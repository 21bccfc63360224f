#ifndef BCCS_EVAL_BATCH_RUNNER_H_
#define BCCS_EVAL_BATCH_RUNNER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "bcc/bc_index.h"
#include "bcc/bcc_types.h"
#include "common/mutex.h"
#include "eval/result_cache.h"
#include "common/thread_annotations.h"
#include "bcc/local_search.h"
#include "bcc/mbcc.h"
#include "bcc/online_search.h"
#include "bcc/workspace.h"
#include "graph/labeled_graph.h"

namespace bccs {

/// Scheduling lane of a serving request. Interactive queries are claimed
/// ahead of bulk ones (with anti-starvation aging, see AdmissionQueue).
enum class Lane : std::uint8_t { kInteractive = 0, kBulk = 1 };

inline const char* Name(Lane lane) {
  return lane == Lane::kInteractive ? "interactive" : "bulk";
}

/// Parses a lane token: "interactive" or "i", "bulk" or "b". Returns false,
/// leaving `*lane` as it was, for anything else.
inline bool ParseLane(std::string_view text, Lane* lane) {
  if (text == "interactive" || text == "i") {
    *lane = Lane::kInteractive;
  } else if (text == "bulk" || text == "b") {
    *lane = Lane::kBulk;
  } else {
    return false;
  }
  return true;
}

/// The paper's search variants as planner targets. kMbcc serves the
/// Section 7 multi-labeled model; the other three serve two-label queries.
enum class QueryMethod : std::uint8_t { kOnlineBcc, kLpBcc, kL2pBcc, kMbcc };

inline const char* Name(QueryMethod m) {
  switch (m) {
    case QueryMethod::kOnlineBcc: return "online";
    case QueryMethod::kLpBcc: return "lp";
    case QueryMethod::kL2pBcc: return "l2p";
    case QueryMethod::kMbcc: return "mbcc";
  }
  return "?";
}

/// Parses a two-label method token: "online", "lp" or "l2p" (an mBCC query
/// is chosen by its shape, not by name). Returns false, leaving `*method`
/// as it was, for anything else.
inline bool ParseMethod(std::string_view text, QueryMethod* method) {
  if (text == "online") {
    *method = QueryMethod::kOnlineBcc;
  } else if (text == "lp") {
    *method = QueryMethod::kLpBcc;
  } else if (text == "l2p") {
    *method = QueryMethod::kL2pBcc;
  } else {
    return false;
  }
  return true;
}

/// Latency/throughput summary of one batch execution.
struct BatchLatency {
  double wall_seconds = 0;
  double qps = 0;
  double avg_seconds = 0;
  double p50_seconds = 0;
  double p90_seconds = 0;
  double p95_seconds = 0;
  double p99_seconds = 0;
};

/// Per-lane slice of a served batch: percentiles over *sojourn* time
/// (submission of the batch to completion of the query, so queueing delay
/// counts — the number an interactive caller actually experiences).
struct LaneSummary {
  Lane lane = Lane::kBulk;
  std::size_t queries = 0;
  BatchLatency latency;
  /// High-water mark of concurrently executing queries of this lane
  /// (streaming serve loop only; bounded by ServeOptions::caps).
  std::size_t max_inflight = 0;
};

/// Outcome of one UpdateRequest served by ServeEngine (see
/// eval/serve_engine.h): whether the edge-update batch applied, what the
/// incremental index repair did, and the epoch it produced.
struct UpdateOutcome {
  std::size_t item_index = 0;  // position in the served item stream
  bool applied = false;
  std::string error;       // validation failure reason when !applied
  std::uint64_t epoch = 0;  // engine epoch after this item
  std::size_t inserts = 0;  // net edge toggles applied
  std::size_t deletes = 0;
  UpdateRepairStats repair;  // bc_index.h: incremental vs scoped-rebuild work
  double seconds = 0;        // validation + graph rebuild + index repair
};

/// What a finished serving stream reports (ServeEngine::Stream::Finish):
/// totals folded from its items' completions, the per-lane sojourn
/// percentiles, and the engine's counters at finish. Nothing in it grows
/// with the number of items.
struct StreamSummary {
  std::size_t items = 0;  // queries and updates admitted (all completed)
  std::size_t updates_applied = 0;
  std::size_t updates_rejected = 0;
  std::size_t timed_out = 0;  // queries whose deadline expired
  SearchStats totals;         // summed over the queries
  double wall_seconds = 0;    // stream open -> drained
  std::vector<LaneSummary> lanes;  // per-lane percentiles over sojourn
  std::size_t threads_used = 0;
  WorkspaceStats workspace_stats;  // aggregated over worker workspaces

  // Caching-tier counters at stream finish (ServeEngine streams only).
  // The result-cache counters are engine-cumulative (the cache outlives
  // individual streams); pair_cache reports the newest published index's
  // pair table, all-zero when serving without an index.
  bool result_cache_enabled = false;
  ResultCacheStats result_cache;
  BlockCacheStats pair_cache;
};

/// Result of a batch: the stream summary plus per-item outputs in input
/// order. In a mixed query/update stream, `latency` (and the per-lane
/// summaries) cover query items only; update slots report through
/// `updates`, with their apply duration also mirrored into their `seconds`
/// slot. The raw Run* paths fill only the per-item answers, `latency`,
/// `threads_used` and `workspace_stats`.
struct BatchResult : StreamSummary {
  std::vector<Community> communities;
  std::vector<SearchStats> stats;
  std::vector<double> seconds;  // per-query execution latency
  BatchLatency latency;

  // Filled by ServeEngine::Serve only (empty for the raw Run* paths):
  std::vector<double> sojourn_seconds;  // batch submission -> query completion

  // Filled by the mixed-stream ServeEngine::Serve only:
  std::vector<UpdateOutcome> updates;    // per UpdateRequest, in stream order
  std::vector<std::uint64_t> epoch_of;   // epoch each item executed in
};

/// Fixed worker pool. Each worker owns a persistent QueryWorkspace, so
/// per-worker steady state performs no O(n) allocations. The pool runs one
/// job at a time: Start hands the job to every worker, each worker runs it
/// once on its own workspace, and Wait collects them. Scheduling *within* a
/// job belongs to the job — ServeEngine's workers drain its AdmissionQueue,
/// RunCustomBatch's claim indices from a counter.
///
/// The pool threads persist across jobs (construction cost is paid once per
/// runner, matching a long-lived serving process).
class BatchRunner {
 public:
  /// num_threads == 0 picks std::thread::hardware_concurrency().
  explicit BatchRunner(std::size_t num_threads = 0);
  ~BatchRunner();
  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  std::size_t NumThreads() const { return threads_.size(); }

  using Job = std::function<void(QueryWorkspace&)>;

  /// Runs fn(workspace) once on every worker and returns at once. fn must
  /// only touch shared state in a thread-safe way; the workspace is
  /// exclusive to its worker. Starting a job before the previous one was
  /// waited for aborts with a message: the pool cannot run two jobs, and
  /// the failure mode would otherwise be a silent deadlock. A ServeEngine
  /// stream on this runner is one job for its whole lifetime.
  void Start(Job fn);

  /// Blocks until every worker has returned from the started job, then
  /// releases the pool. A non-null `stats_after` receives
  /// AggregateWorkspaceStats() captured *before* the release — the only
  /// race-free point when the runner is shared between engines (a later
  /// aggregation could interleave with the next job's workspace writes).
  void Wait(WorkspaceStats* stats_after = nullptr);

  /// Aggregated workspace stats over all workers (for allocation tests).
  WorkspaceStats AggregateWorkspaceStats() const;

  /// Per-query callable of the timed batch wrappers.
  using RunTimedFn = std::function<void(std::size_t, QueryWorkspace&, Community*, SearchStats*)>;

  /// Timed fan-out of an arbitrary per-query function over [0, count)
  /// (used for methods not covered by the convenience wrappers, e.g. the
  /// CTC/PSA baselines). Blocks until the batch drains.
  BatchResult RunCustomBatch(std::size_t count, const RunTimedFn& fn);

  // Compatibility shims over the unified serving engine. Each builds one
  // QueryRequest per query (bulk lane, no deadline) and routes it through
  // ServeEngine — the single dispatch path for all four methods, each with
  // the paper's options. Defined in serve_engine.cc; prefer ServeEngine
  // directly for new code (lanes, deadlines, mixed-method batches).

  /// Batch Online-BCC or LP-BCC (`method` kOnlineBcc or kLpBcc) over one
  /// graph.
  BatchResult RunBccBatch(const LabeledGraph& g, std::span<const BccQuery> queries,
                          const BccParams& params, QueryMethod method);

  /// Batch L2P-BCC. The index's lazy pair table is internally synchronized.
  BatchResult RunL2pBatch(const LabeledGraph& g, const BcIndex& index,
                          std::span<const BccQuery> queries, const BccParams& params);

  /// Batch multi-label search.
  BatchResult RunMbccBatch(const LabeledGraph& g, std::span<const MbccQuery> queries,
                           const MbccParams& params);

 private:
  void WorkerLoop(std::size_t tid);

  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<QueryWorkspace>> workspaces_;

  Mutex mutex_;
  CondVar work_cv_;
  CondVar done_cv_;
  Job job_ GUARDED_BY(mutex_);  // set by Start, cleared by Wait
  std::size_t running_ GUARDED_BY(mutex_) = 0;  // workers not yet back from job_
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;  // bumped by every Start
  bool stop_ GUARDED_BY(mutex_) = false;
};

/// Computes the latency summary from per-query seconds (sorted copy inside).
/// When the wall clock reads zero (sub-tick batches), qps falls back to the
/// sum of per-query seconds instead of silently reporting 0.
BatchLatency SummarizeLatency(std::span<const double> seconds, double wall_seconds);

}  // namespace bccs

#endif  // BCCS_EVAL_BATCH_RUNNER_H_
