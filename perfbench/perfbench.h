// Shared declarations of the repository benchmark driver (perfbench).
//
// The driver drives the shipping serving stack from outside: it starts
// `bccs_serve --listen` as a child process and talks the line protocol to it
// (lp-large-groups, zipf-updates), or runs a ServeEngine batch in process
// (mbcc-batch). Every answer is checked against an in-process
// recomputation. A traced run (--trace 1) additionally replays the same
// inputs through the layers' public functions and records spans around
// those calls; no timer is added inside src/.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bcc/bcc_types.h"
#include "bcc/mbcc.h"
#include "graph/graph_delta.h"
#include "graph/labeled_graph.h"

namespace perfbench {

/// Seconds on the steady clock (arbitrary origin).
double Now();

/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Child processes (proc.cc).
// ---------------------------------------------------------------------------

/// A started child whose stdout is a pipe read by the driver; stderr is
/// inherited.
struct Child {
  pid_t pid = -1;
  int out_fd = -1;
  std::string pending;  // bytes read past the last returned line
};

/// Starts argv[0] with the given arguments. pid stays -1 on failure.
Child Spawn(const std::vector<std::string>& argv);

/// Reads stdout lines until one starts with `prefix` (returned in *line) or
/// the child closes stdout or `timeout` seconds pass. False on the latter.
bool WaitForLine(Child& child, const std::string& prefix, double timeout, std::string* line);

/// Sends `signal` (0 = none, just wait), reads stdout to EOF, and reaps the
/// child; escalates to SIGKILL after `timeout` seconds. Returns the exit
/// status as from waitpid (-1 if it had to be killed).
int StopChild(Child& child, int signal, double timeout, std::string* rest = nullptr);

/// Peak resident set (VmHWM) of a live process in MiB; 0 if unreadable.
double PeakRssMb(pid_t pid);

/// The CPU model string from /proc/cpuinfo ("unknown" if absent).
std::string CpuModel();

/// Path of the running executable.
std::string SelfExe();

// ---------------------------------------------------------------------------
// Spans (trace.cc).
// ---------------------------------------------------------------------------

/// One timed interval. `derived` spans were not timed by the driver: their
/// duration is a SearchStats phase the search reported, laid out back to
/// back from the start of the enclosing call span.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::uint64_t request = 0;
  bool derived = false;
};

/// Aggregate of one span name: count, summed duration, summed self time
/// (duration minus the union of its children, clipped at zero).
struct SpanTotals {
  std::size_t count = 0;
  double total = 0;
  double self = 0;
};

/// In-memory span store; written out once when the run ends. Add is
/// thread-safe (stream replays record from serving workers).
class SpanLog {
 public:
  int Add(const std::string& name, double start, double end, int parent,
          std::uint64_t request, bool derived = false);
  /// Lays `phases` (name, seconds) out back to back from `parent`'s start
  /// as derived children; zero-length phases are skipped.
  void AddDerived(int parent, const std::vector<std::pair<std::string, double>>& phases);
  void SetEnd(int id, double end);

  std::vector<std::pair<std::string, SpanTotals>> Totals() const;
  SpanTotals TotalsOf(const std::string& name) const;
  std::size_t size() const;
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Wire load generation (loadgen.cc).
// ---------------------------------------------------------------------------

/// One request of a socket session.
struct WireRequest {
  bool is_update = false;
  bccs::BccQuery query;       // queries
  bccs::EdgeUpdate update;    // updates
  double due = 0;             // open loop: scheduled send time (session clock)
  int connection = 0;
  bool in_window = false;     // counted in the end-to-end metrics
};

/// What came back for one request. Times are on the session clock.
struct WireReply {
  bool sent = false;
  bool received = false;
  double send_time = 0;
  double done_time = 0;
  char status = '?';  // 'o' ok, 'r' rej, 'e' err
  std::uint64_t epoch = 0;
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
};

/// Closed loop: each of `connections` connections keeps exactly one request
/// outstanding, drawing queries in order from `requests` (which must be long
/// enough) until `stop` on the session clock; requests sent at or after
/// `window_start` are marked in_window. `requests` is truncated to what was
/// drawn. Replies missing `grace` seconds after `stop` stay unreceived.
void RunClosedLoop(int port, int connections, double session_origin, double window_start,
                   double stop, double grace, std::vector<WireRequest>* requests,
                   std::vector<WireReply>* replies);

/// Open loop: every request is sent on its connection at its due time (or
/// as soon after as the generator manages), pipelined; `requests` must be in
/// due order. One generator thread polls every connection; replies are
/// matched by request id.
void RunOpenLoop(int port, int connections, double session_origin, double grace,
                 const std::vector<WireRequest>& requests, std::vector<WireReply>* replies);

/// Sends `updates` one at a time on a fresh connection (closed loop) and
/// records each ack; ids continue from `first_id`.
void RunUpdateProbe(int port, double session_origin, std::uint64_t first_id,
                    const std::vector<WireRequest>& updates, std::vector<WireReply>* replies);

/// The request line for a wire request with client id `id`.
std::string FormatWireRequest(const WireRequest& r, std::uint64_t id);

// ---------------------------------------------------------------------------
// Answer checking (check.cc).
// ---------------------------------------------------------------------------

struct CheckResult {
  std::size_t checked = 0;
  std::size_t wrong = 0;          // size/hash mismatch against recomputation
  std::size_t invalid = 0;        // distinct answers failing VerifyBcc/VerifyMbcc
  std::size_t bad_acks = 0;       // update acks not applied or epoch not +1
  std::size_t distinct_answers = 0;
  std::size_t empty_answers = 0;  // non-failing "no community" answers
  std::vector<bccs::Community> samples;  // a few expected answers (format timing)
  std::vector<std::string> messages;     // first few mismatches
};

/// Checks every received query reply of a two-label socket session against
/// LP-BCC recomputed at the epoch the reply reports. Epoch E is the base
/// graph plus the first E-1 acknowledged updates (the writer's, in send
/// order). Replies are memoized per (query, number of updates so far that
/// touch the query's two label groups): an LP-BCC answer depends only on
/// the subgraph induced by those two groups. Runs on `threads` threads.
/// Marks each failing reply in *failed (same indexing as replies).
CheckResult CheckBccSession(const bccs::LabeledGraph& base,
                            const std::vector<WireRequest>& requests,
                            const std::vector<WireReply>& replies,
                            const std::vector<std::size_t>& update_order, std::size_t threads,
                            std::vector<char>* failed);

/// A served answer as the wire reports it: community size and CommunityHash.
struct ServedAnswer {
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
};

/// Checks mBCC answers (answers[i] served for pool[keys[i]]) against a fresh
/// sequential MbccSearch per distinct query, and verifies each distinct
/// non-empty answer.
CheckResult CheckMbccAnswers(const bccs::LabeledGraph& g,
                             const std::vector<bccs::MbccQuery>& pool,
                             const std::vector<std::size_t>& keys,
                             const std::vector<ServedAnswer>& answers, std::size_t threads,
                             std::vector<char>* failed);

// ---------------------------------------------------------------------------
// Workloads (workloads.cc).
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir;
  std::size_t nproc = 1;
};

struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload; human-readable progress goes to stdout.
RunOutput RunWorkload(const RunConfig& cfg);

/// `perfbench prepare`: generates the named stand-in, builds and
/// materializes its BcIndex, saves the snapshot, and prints one
/// "prepared ..." line with the phase timings. Returns the exit code.
int PrepareMain(const std::string& dataset, const std::string& snapshot_path);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
