// bccs_serve: streaming front-end over a mixed query/update stream — from a
// finite pipe/file, or as a TCP server (--listen).
//
//   bccs_serve (--graph g.txt | --index-file g.snap | both)
//              [--stream FILE | -]      mixed stream (default: stdin)
//              [--listen PORT]          TCP server mode (0 = ephemeral port)
//              [--max-connections N]    connection cap in --listen mode
//              [--threads N] [--bulk-cap K] [--interactive-cap K]
//              [--aging N] [--method online|lp|l2p] [--k1 N] [--k2 N] [--b N]
//              [--deadline-ms N] [--quiet]
//              [--fsync none|on-rotation|every-append] [--segment-blocks N]
//              [--compact-threshold N]
//
// This is the ServeEngine streaming loop end to end: each line is parsed
// and admitted into the engine's AdmissionQueue while the worker pool is
// already draining earlier items — a producer on a pipe is *served* while
// it is still writing — with updates prepared off-thread against a pinned
// copy-on-write epoch and published with a single swap; queries admitted
// after an update observe the post-update epoch (DESIGN.md, serving
// contract 3). --bulk-cap K keeps at most K bulk queries in flight so
// interactive tail latency stays bounded under a saturating bulk backlog.
//
// Reporting is batch-style: per-item results are printed in admission
// order after the stream ends (EOF) and the pool drains, and memory is
// proportional to the stream length — so feed this tool finite streams, or
// use --listen, which replies per item as it completes.
//
// Stream format, one item per line ('#' comments and blank lines allowed):
// the `q` and `u` requests of the wire protocol (net/line_protocol.h),
// parsed by the same strict codec, so trailing tokens are an error:
//   q <ql> <qr> [interactive|bulk] [id=N]   two-label query (default: bulk)
//   u <+|-> <a> <b> [id=N]                  one-edge update batch
//
// Output: one line per item, in admission order, tagged with the epoch the
// item executed in (an update's edge is printed with a < b):
//   [i] epoch=E query (ql, qr) -> N members  (T s)
//   [i] epoch=E update +(a, b) applied       (T s)
// followed by the per-lane sojourn summaries and totals.
//
// Durability (requires --index-file): with any of --fsync /
// --segment-blocks / --compact-threshold — or when changelog segments
// already exist next to the snapshot — the engine serves DURABLY: startup
// recovers the snapshot (truncating torn tails, deleting stale segments)
// and replays the changelog, and every applied update is appended to the
// rotated changelog before its epoch publishes, so "applied" in the output
// means durable per the --fsync policy (graph/changelog.h). A nonzero
// --compact-threshold starts the background compactor, folding that many
// sealed segments into a fresh base so recovery time stays bounded.
//
// SIGINT/SIGTERM stop admission: the loop stops reading the stream, the
// already-admitted items drain, and the normal summary is printed — a
// durable serve killed softly loses nothing, and killed hard (the fault
// harness's mode) loses at most unacknowledged updates.
//
// --listen PORT turns the same streaming loop into a concurrent TCP server
// (src/net/server.h): the newline protocol of ARCHITECTURE.md's "Wire
// protocol" section over any number of connections, each response streamed
// back on its originating connection the moment the item completes, with
// id= request deduplication for idempotent retries. PORT 0 binds an
// ephemeral port; the actual port is printed on the "listening on" line.
// SIGINT/SIGTERM drain admitted items, flush response tails, print the
// summary, and exit 0. Incompatible with --stream (one front-end at a
// time).

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "eval/serve_engine.h"
#include "eval/timer.h"
#include "graph/changelog.h"
#include "graph/compactor.h"
#include "graph/graph_io.h"
#include "graph/snapshot.h"
#include "net/line_protocol.h"
#include "net/server.h"
#include "tools/arg_parser.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: bccs_serve (--graph FILE | --index-file FILE | both)\n"
               "                  [--stream FILE|-] [--threads N] [--bulk-cap K]\n"
               "                  [--interactive-cap K] [--aging N]\n"
               "                  [--method online|lp|l2p] [--k1 N] [--k2 N] [--b N]\n"
               "                  [--deadline-ms N] [--quiet]\n"
               "                  [--fsync none|on-rotation|every-append]\n"
               "                  [--segment-blocks N] [--compact-threshold N]\n"
               "                  [--result-cache N]\n"
               "                  [--listen PORT] [--max-connections N]\n");
}

volatile std::sig_atomic_t g_stop_signal = 0;
/// The running TCP server, when in --listen mode, for the signal handler.
std::atomic<bccs::NetServer*> g_server{nullptr};

void HandleStopSignal(int sig) {
  g_stop_signal = sig;
  // RequestShutdown is async-signal-safe (atomic store + self-pipe write),
  // as is this lock-free pointer load.
  bccs::NetServer* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestShutdown();
}

/// SIGINT/SIGTERM → stop admission and drain. Installed WITHOUT
/// SA_RESTART, so a blocking stdin read returns early instead of riding out
/// a slow producer.
void InstallStopHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupt the getline read
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

struct StreamLine {
  bccs::ServeItem item;
  std::string text;  // echoed back next to the result
};

enum class LineStatus { kItem, kBlank, kError };

/// Parses ONE stream line (so the main loop can Submit each item as it
/// arrives instead of slurping the input to EOF — a live producer on a
/// pipe is served while it is still writing) with the wire codec, after
/// stripping a trailing '#' comment. Malformed lines, and the
/// connection-level `ping`/`quit`, are a hard error with the line number: a
/// serving stream with a typo'd update must not half-apply.
LineStatus ParseStreamLine(std::string line, std::size_t line_no, std::size_t num_vertices,
                           const bccs::QueryRequest& proto, StreamLine* out) {
  std::size_t hash = line.find('#');
  if (hash != std::string::npos) line.resize(hash);
  bccs::NetRequest req;
  std::string error;
  switch (bccs::ParseNetRequest(line, num_vertices, &req, &error)) {
    case bccs::NetParseStatus::kBlank:
      return LineStatus::kBlank;
    case bccs::NetParseStatus::kError:
      std::fprintf(stderr, "stream:%zu: %s\n", line_no, error.c_str());
      return LineStatus::kError;
    case bccs::NetParseStatus::kOk:
      break;
  }
  if (req.kind == bccs::NetRequestKind::kQuery) {
    out->text = "query (" + std::to_string(req.ql) + ", " + std::to_string(req.qr) + ")";
  } else if (req.kind == bccs::NetRequestKind::kUpdate) {
    out->text = std::string("update ") +
                (req.update.kind == bccs::EdgeUpdateKind::kInsert ? "+" : "-") + "(" +
                std::to_string(req.update.edge.u) + ", " + std::to_string(req.update.edge.v) +
                ")";
  } else {
    std::fprintf(stderr, "stream:%zu: ping and quit are socket requests (q|u)\n", line_no);
    return LineStatus::kError;
  }
  out->item = bccs::ToServeItem(req, proto);
  return LineStatus::kItem;
}

}  // namespace

int main(int argc, char** argv) {
  bccs::ArgParser args = bccs::ArgParser::Parse(argc, argv);
  auto unknown = args.UnknownFlags({"graph", "index-file", "stream", "threads", "bulk-cap",
                                    "interactive-cap", "aging", "method", "k1", "k2", "b",
                                    "deadline-ms", "quiet", "fsync", "segment-blocks",
                                    "compact-threshold", "result-cache", "listen",
                                    "max-connections", "help"});
  if (!unknown.empty() || args.Has("help")) {
    for (const auto& u : unknown) std::fprintf(stderr, "unknown flag: --%s\n", u.c_str());
    PrintUsage();
    return args.Has("help") ? 0 : 2;
  }

  // Strict numeric-flag validation, shared contract with bccs_query.
  bool counts_valid = true;
  const std::int64_t threads_raw = args.GetNonNegativeIntOr("threads", 0, &counts_valid);
  const std::int64_t bulk_cap = args.GetNonNegativeIntOr("bulk-cap", 0, &counts_valid);
  const std::int64_t interactive_cap =
      args.GetNonNegativeIntOr("interactive-cap", 0, &counts_valid);
  const std::int64_t aging = args.GetNonNegativeIntOr("aging", 8, &counts_valid);
  const std::int64_t k1 = args.GetNonNegativeIntOr("k1", 0, &counts_valid);
  const std::int64_t k2 = args.GetNonNegativeIntOr("k2", 0, &counts_valid);
  const std::int64_t b = args.GetPositiveIntOr("b", 1, &counts_valid);
  const std::int64_t deadline_ms = args.GetPositiveIntOr("deadline-ms", 0, &counts_valid);
  const std::int64_t segment_blocks =
      args.GetPositiveIntOr("segment-blocks", 0, &counts_valid);
  const std::int64_t compact_threshold =
      args.GetPositiveIntOr("compact-threshold", 0, &counts_valid);
  const std::int64_t result_cache =
      args.GetNonNegativeIntOr("result-cache", 0, &counts_valid);
  const bool listen_mode = args.Has("listen");
  const std::int64_t listen_port = args.GetNonNegativeIntOr("listen", 0, &counts_valid);
  const std::int64_t max_connections =
      args.GetPositiveIntOr("max-connections", 256, &counts_valid);
  if (!counts_valid) {
    std::fprintf(stderr, "invalid numeric flag value\n");
    PrintUsage();
    return 2;
  }
  if (k1 > UINT32_MAX || k2 > UINT32_MAX) {
    std::fprintf(stderr, "--k1 and --k2 must be at most %u\n", UINT32_MAX);
    return 2;
  }
  if (listen_port > 65535) {
    std::fprintf(stderr, "--listen port must be 0 (ephemeral) to 65535\n");
    return 2;
  }
  if (args.Has("max-connections") && !listen_mode) {
    std::fprintf(stderr, "--max-connections requires --listen\n");
    return 2;
  }
  if (listen_mode && args.Has("stream")) {
    std::fprintf(stderr, "--listen and --stream are mutually exclusive\n");
    return 2;
  }
  bccs::ChangelogOptions copts;
  if (auto fsync_text = args.GetString("fsync")) {
    if (!bccs::ParseFsyncPolicy(*fsync_text, &copts.fsync)) {
      std::fprintf(stderr, "--fsync must be none, on-rotation, or every-append\n");
      return 2;
    }
  }
  if (segment_blocks > 0) copts.segment_blocks = static_cast<std::size_t>(segment_blocks);
  const bool durability_flags = args.Has("fsync") || args.Has("segment-blocks") ||
                                args.Has("compact-threshold");
  bool threads_clamped = false;
  const std::size_t threads = bccs::ArgParser::ClampThreadCount(threads_raw, &threads_clamped);
  if (threads_clamped) {
    std::fprintf(stderr, "note: --threads %lld clamped to hardware concurrency (%zu)\n",
                 static_cast<long long>(threads_raw), threads);
  }

  const std::string method_name = args.GetStringOr("method", "lp");
  bccs::QueryMethod method;
  if (method_name == "online") {
    method = bccs::QueryMethod::kOnlineBcc;
  } else if (method_name == "lp") {
    method = bccs::QueryMethod::kLpBcc;
  } else if (method_name == "l2p") {
    method = bccs::QueryMethod::kL2pBcc;
  } else {
    std::fprintf(stderr, "unknown method '%s' (valid methods: online, lp, l2p)\n",
                 method_name.c_str());
    return 2;
  }

  auto graph_path = args.GetString("graph");
  auto index_path = args.GetString("index-file");
  if (!graph_path && !index_path) {
    PrintUsage();
    return 2;
  }
  if (durability_flags && !index_path) {
    std::fprintf(stderr, "durability (--fsync/--segment-blocks/--compact-threshold) "
                         "requires --index-file (the changelog lives next to it)\n");
    return 2;
  }

  // Resolve the serving state: snapshot when given (shared ownership fits
  // the engine's epoch layer), else the text graph.
  std::shared_ptr<const bccs::LabeledGraph> graph;
  std::shared_ptr<const bccs::BcIndex> index;
  std::unique_ptr<bccs::Changelog> changelog;  // durable mode; outlives the engine
  bccs::SourceGraphInfo stamp;
  if (index_path) {
    std::string error;
    bccs::SnapshotLoadOptions load_opts;
    if (graph_path) load_opts.expected_source = bccs::StatSourceGraph(*graph_path);
    stamp = load_opts.expected_source;
    // Recovery-grade open even when durability is off: it removes a
    // leftover compaction temp file and repairs torn tails, and tells us
    // whether segments exist (which forces durable mode — serving on top
    // of a replayed changelog without appending to it would un-persist
    // every further ack on the next restart).
    auto recovered = bccs::OpenSnapshotWithChangelog(*index_path, copts, load_opts, &error);
    if (!recovered) {
      std::fprintf(stderr, "cannot load snapshot %s: %s\n", index_path->c_str(),
                   error.c_str());
      return 1;
    }
    const bccs::SnapshotBundle& bundle = recovered->bundle;
    const bccs::ChangelogStatus& st = recovered->status;
    if (bundle.replayed_updates > 0 || st.segments > 0 || st.stale_segments_removed > 0 ||
        st.truncated_bytes > 0) {
      std::printf("recovery: %zu updates replayed (%zu changelog records in %zu "
                  "segments), %zu stale segments removed, %llu torn changelog bytes "
                  "truncated%s\n",
                  bundle.replayed_updates, st.records, st.segments,
                  st.stale_segments_removed,
                  static_cast<unsigned long long>(st.truncated_bytes),
                  st.dropped_tail_segment ? " (tail segment dropped)" : "");
    }
    graph = bundle.graph;
    index = std::shared_ptr<const bccs::BcIndex>(std::move(recovered->bundle.index));
    if (durability_flags || st.segments > 0 || recovered->log->base_seq() > 0) {
      changelog = std::move(recovered->log);
    }
  } else {
    std::string error;
    auto g = bccs::ReadLabeledGraphFromFile(*graph_path, &error);
    if (!g) {
      std::fprintf(stderr, "cannot read graph from %s: %s\n", graph_path->c_str(),
                   error.c_str());
      return 1;
    }
    graph = std::make_shared<const bccs::LabeledGraph>(std::move(*g));
  }
  if (method == bccs::QueryMethod::kL2pBcc && index == nullptr) {
    auto built = std::make_shared<bccs::BcIndex>(*graph);
    index = built;
  }

  // The per-item prototype every 'q' line starts from.
  bccs::QueryRequest proto;
  proto.method = method;
  proto.deadline_seconds = static_cast<double>(deadline_ms) / 1000.0;
  proto.params = {static_cast<std::uint32_t>(k1), static_cast<std::uint32_t>(k2),
                  static_cast<std::uint64_t>(b)};

  bccs::ServeOptions so;
  so.aging_period = static_cast<std::size_t>(aging);
  so.caps.bulk = static_cast<std::size_t>(bulk_cap);
  so.caps.interactive = static_cast<std::size_t>(interactive_cap);
  so.result_cache_entries = static_cast<std::size_t>(result_cache);

  const std::string stream_arg = args.GetStringOr("stream", "-");
  std::ifstream stream_file;
  std::istream* stream_in = &std::cin;
  if (stream_arg != "-") {
    stream_file.open(stream_arg);
    if (!stream_file.good()) {
      std::fprintf(stderr, "cannot read stream from %s\n", stream_arg.c_str());
      return 2;
    }
    stream_in = &stream_file;
  }
  std::printf("graph: %zu vertices, %zu edges, %zu labels%s\n", graph->NumVertices(),
              graph->NumEdges(), graph->NumLabels(), index != nullptr ? " (indexed)" : "");

  bccs::BatchRunner runner(threads);
  bccs::ServeEngine engine(runner, graph, index, so);
  std::unique_ptr<bccs::Compactor> compactor;
  if (changelog != nullptr) {
    engine.AttachDurability(changelog.get(), stamp);
    std::printf("durability: changelog at %s.log.NNNNNN, fsync %s, rotate every %zu "
                "records, compact threshold %lld\n",
                index_path->c_str(), Name(copts.fsync), copts.segment_blocks,
                static_cast<long long>(compact_threshold));
    if (compact_threshold > 0) {
      bccs::CompactorOptions fold_opts;
      fold_opts.threshold_segments = static_cast<std::size_t>(compact_threshold);
      // The capture runs under the changelog's commit lock (Compactor's
      // contract); the engine publishes epochs under the same lock, so the
      // captured pair is exactly the appended history.
      compactor = std::make_unique<bccs::Compactor>(
          *changelog,
          [&engine, stamp] {
            return bccs::Compactor::State{engine.graph_ptr(), engine.index_ptr(), stamp};
          },
          fold_opts);
      compactor->Start();
    }
  }

  InstallStopHandlers();
  std::vector<StreamLine> lines;
  bool parse_ok = true;
  bccs::BatchResult result;
  std::size_t served_count = 0;
  if (listen_mode) {
    // TCP server mode: the socket front-end drives the same stream — each
    // connection is one producer into Stream::Submit, each completed item
    // streams its response back on its originating connection. SIGINT /
    // SIGTERM request a graceful shutdown through the handler above.
    bccs::NetServerOptions nopts;
    nopts.port = static_cast<int>(listen_port);
    nopts.max_connections = static_cast<std::size_t>(max_connections);
    nopts.query_proto = proto;
    bccs::NetServer server(engine, nopts);
    std::string net_error;
    if (!server.Start(&net_error)) {
      std::fprintf(stderr, "cannot listen on %s:%lld: %s\n", nopts.bind_address.c_str(),
                   static_cast<long long>(listen_port), net_error.c_str());
      return 1;
    }
    g_server.store(&server, std::memory_order_release);
    if (g_stop_signal != 0) server.RequestShutdown();  // a signal raced Start
    // Scripted clients (tools/e2e_snapshot_test.sh) discover an ephemeral
    // port from this line; flush so it crosses a pipe before the loop runs.
    std::printf("listening on %s:%d (max %zu connections)\n", nopts.bind_address.c_str(),
                server.port(), nopts.max_connections);
    std::fflush(stdout);
    result = server.Run();
    g_server.store(nullptr, std::memory_order_release);
    served_count = result.epoch_of.size();
    if (g_stop_signal != 0) {
      std::printf("signal %d: drained %zu admitted items and flushed tails\n",
                  static_cast<int>(g_stop_signal), served_count);
    }
    const bccs::NetServerStats& net = server.stats();
    std::printf("net: %llu connections accepted (%llu over capacity), %llu requests, "
                "%llu protocol errors, %llu overlong closes, %llu torn disconnects, "
                "%llu outbox overflows\n",
                static_cast<unsigned long long>(net.accepted),
                static_cast<unsigned long long>(net.rejected_over_capacity),
                static_cast<unsigned long long>(net.requests_submitted),
                static_cast<unsigned long long>(net.protocol_errors),
                static_cast<unsigned long long>(net.overlong_closes),
                static_cast<unsigned long long>(net.torn_disconnects),
                static_cast<unsigned long long>(net.overflow_closes));
    std::printf("retries: %llu ids started, %llu attached, %llu replayed, %llu evicted\n",
                static_cast<unsigned long long>(net.keeper.started),
                static_cast<unsigned long long>(net.keeper.attached),
                static_cast<unsigned long long>(net.keeper.replayed),
                static_cast<unsigned long long>(net.keeper.evictions));
  } else {
    // Stream serving proper: each line is parsed and admitted as it arrives
    // while the pool drains earlier items — a live producer on a pipe is
    // served before it closes its end, exactly what the socket front-end
    // does per connection. A malformed line stops admission; what was
    // already admitted drains and the tool exits nonzero. SIGINT/SIGTERM
    // also stop admission, but drain and exit cleanly.
    bccs::ServeEngine::Stream stream = engine.OpenStream();
    {
      std::string line;
      std::size_t line_no = 0;
      while (g_stop_signal == 0 && std::getline(*stream_in, line)) {
        ++line_no;
        StreamLine sl;
        const LineStatus status =
            ParseStreamLine(std::move(line), line_no, graph->NumVertices(), proto, &sl);
        if (status == LineStatus::kBlank) continue;
        if (status == LineStatus::kError) {
          parse_ok = false;
          break;
        }
        stream.Submit(sl.item);
        lines.push_back(std::move(sl));
      }
    }
    if (g_stop_signal != 0) {
      std::printf("signal %d: admission stopped, draining %zu admitted items\n",
                  static_cast<int>(g_stop_signal), lines.size());
    }
    result = stream.Finish();
    served_count = lines.size();
  }
  if (compactor != nullptr) {
    // One last threshold check on this thread: a short-lived stream can end
    // before the background poll ever fires.
    compactor->Stop();
    std::string fold_err;
    if (!compactor->RunOnce(/*force=*/false, &fold_err)) {
      std::fprintf(stderr, "compaction: %s\n", fold_err.c_str());
    }
  }
  if (!parse_ok && lines.empty()) return 2;

  if (!args.Has("quiet")) {
    std::size_t next_update = 0;  // result.updates is in admission order
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (std::holds_alternative<bccs::QueryRequest>(lines[i].item)) {
        std::printf("[%zu] epoch=%llu %s -> %zu members%s  (%.6f s)\n", i,
                    static_cast<unsigned long long>(result.epoch_of[i]),
                    lines[i].text.c_str(), result.communities[i].Size(),
                    result.stats[i].timed_out ? " (timed out)" : "", result.seconds[i]);
      } else {
        const bccs::UpdateOutcome* outcome =
            next_update < result.updates.size() ? &result.updates[next_update++] : nullptr;
        if (outcome == nullptr || outcome->item_index != i) continue;
        std::printf("[%zu] epoch=%llu %s %s%s%s  (%.6f s)\n", i,
                    static_cast<unsigned long long>(result.epoch_of[i]),
                    lines[i].text.c_str(), outcome->applied ? "applied" : "rejected: ",
                    outcome->applied ? "" : outcome->error.c_str(),
                    outcome->applied ? "" : " (epoch unchanged)", result.seconds[i]);
      }
    }
  }

  std::size_t applied = 0;
  for (const auto& u : result.updates) applied += u.applied ? 1 : 0;
  std::printf("served %zu items (%zu updates, %zu applied) on %zu workers in %.4fs; "
              "final epoch %llu; %zu timed out\n",
              served_count, result.updates.size(), applied, result.threads_used,
              result.latency.wall_seconds, static_cast<unsigned long long>(engine.epoch()),
              result.timed_out);
  for (const bccs::LaneSummary& lane : result.lanes) {
    std::printf("lane %-11s %zu queries  max_inflight=%zu  sojourn p50=%.6fs p90=%.6fs "
                "p99=%.6fs\n",
                bccs::Name(lane.lane), lane.queries, lane.max_inflight,
                lane.latency.p50_seconds, lane.latency.p90_seconds,
                lane.latency.p99_seconds);
  }
  {
    bccs::SearchStats sum;
    for (const auto& s : result.stats) sum += s;
    std::printf("phases: find_g0=%.4fs query_distance=%.4fs butterfly=%.4fs leader=%.4fs  "
                "(counting calls=%zu)\n",
                sum.find_g0_seconds, sum.query_distance_seconds, sum.butterfly_seconds,
                sum.leader_update_seconds, sum.butterfly_counting_calls);
  }
  if (result.result_cache_enabled) {
    const bccs::ResultCacheStats& rc = result.result_cache;
    const bccs::BlockCacheStats& pc = result.pair_cache;
    const std::uint64_t rc_total = rc.hits + rc.misses;
    std::printf("cache: result %llu/%llu hits (%.1f%%), %zu entries, %llu evictions, "
                "%llu stale; pairs %llu/%llu hits\n",
                static_cast<unsigned long long>(rc.hits),
                static_cast<unsigned long long>(rc_total),
                rc_total > 0 ? 100.0 * static_cast<double>(rc.hits) /
                                   static_cast<double>(rc_total)
                             : 0.0,
                rc.entries, static_cast<unsigned long long>(rc.evictions),
                static_cast<unsigned long long>(rc.stale_drops),
                static_cast<unsigned long long>(pc.hits),
                static_cast<unsigned long long>(pc.hits + pc.misses));
  }
  if (changelog != nullptr) {
    std::size_t updates_appended = 0, sealed_segments = 0;
    std::uint64_t last_seq = 0;
    {
      // The stream is finished and the compactor stopped; the lock is
      // uncontended but required by the counters' contract.
      bccs::MutexLock commit(changelog->commit_mutex());
      updates_appended = changelog->updates_appended();
      last_seq = changelog->last_seq();
      sealed_segments = changelog->sealed_segments();
    }
    std::printf("durable: %zu updates appended (last seq %llu, %zu sealed segments), "
                "%zu compaction folds\n",
                updates_appended, static_cast<unsigned long long>(last_seq),
                sealed_segments,
                compactor != nullptr ? compactor->folds() : std::size_t{0});
  }
  return parse_ok ? 0 : 2;
}
