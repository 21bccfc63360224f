// bccs_query: run a butterfly-core community search on a graph file.
//
//   bccs_query --graph g.txt --ql 3 --qr 17 [--k1 0] [--k2 0] [--b 1]
//              [--method online|lp|l2p] [--verify]
//   bccs_query --graph g.txt --queries 3,17,42 --b 1 [--verify]
//     multi-label mBCC: every group's k is auto (query coreness) and the
//     engine's mBCC options apply, so --method, --k1 and --k2 are rejected
//     with exit 2.
//
// Every query — single, mBCC, or batch — enters through the unified
// ServeEngine (eval/serve_engine.h): requests carry a method, a priority
// lane and an optional deadline.
//
// Serving flags:
//   --lane interactive|bulk   priority lane (default: interactive for
//                             single queries, bulk for batches). Interactive
//                             drains ahead of bulk with anti-starvation
//                             aging.
//   --deadline-ms N           per-query deadline; an expired query returns
//                             its best valid partial answer flagged timed_out.
//
// Index snapshots (see tools/bccs_build and graph/snapshot.h):
//   bccs_query --index-file g.snap ...
//     serves straight from the snapshot (mmap cold start; --graph not
//     needed); the snapshot's changelog (tools/bccs_update) is replayed on
//     load. With both --graph and --index-file, the snapshot is
//     loaded when valid AND its effective source stamp matches the graph
//     file's current size/mtime; otherwise (corrupt, stale, absent) the
//     index is rebuilt from the graph and saved to the snapshot path
//     (BcIndex::BuildOrLoad).
//
// Dynamic graphs:
//   bccs_query ... --updates-file u.txt
//     applies an edge-update batch ("+ u v" / "- u v" lines, see
//     graph/graph_delta.h) through the serving engine's update path before
//     any query runs: the batch is validated, the graph rebuilt, the index
//     incrementally repaired (BcIndex::ApplyUpdates), and every query below
//     observes the post-update epoch.
//
// Batch mode (parallel engine with per-thread workspaces):
//   bccs_query --graph g.txt --batch-file queries.txt [--threads 8]
//              [--method online|lp|l2p] [--b 1] [--repeat N]
//     queries.txt: one "ql qr [interactive|bulk]" per line ('#' comments
//     allowed); the optional lane column overrides --lane; --repeat tiles
//     the batch N times.
//   bccs_query --graph g.txt --ql 3 --qr 17 --repeat 1000 [--threads 8]
//     repeats one query to measure steady-state QPS / latency.
//   The BcIndex for --method l2p is built (or snapshot-loaded) exactly once,
//   before the batch starts, so repeats measure query cost only.
//
// Vertex ids must be decimals below the graph's vertex count and --k1/--k2
// at most 2^32 - 1; anything else is rejected with exit 2. k = 0 means auto
// (query coreness). Prints the community and search stats.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bcc/local_search.h"
#include "bcc/mbcc.h"
#include "bcc/online_search.h"
#include "bcc/verify.h"
#include "eval/serve_engine.h"
#include "eval/timer.h"
#include "graph/graph_io.h"
#include "graph/snapshot.h"
#include "tools/arg_parser.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: bccs_query (--graph FILE | --index-file FILE | both)\n"
               "                  (--ql ID --qr ID | --queries ID,ID[,ID...])\n"
               "                  [--k1 N] [--k2 N] [--b N] [--method online|lp|l2p]\n"
               "                  [--lane interactive|bulk] [--deadline-ms N]\n"
               "                  [--updates-file FILE] [--verify]\n"
               "                  [--result-cache N]\n"
               "       bccs_query ... --batch-file FILE [--threads N] [--repeat N]\n"
               "       bccs_query ... --ql ID --qr ID --repeat N [--threads N]\n");
}

/// Parses the value of --`flag` as a vertex id: the whole token is an
/// unsigned decimal (no sign, no overflow) below `num_vertices`, checked
/// before narrowing to VertexId. Prints why when it is not one.
bool ParseVertexFlag(const char* flag, std::string_view token, std::size_t num_vertices,
                     bccs::VertexId* out) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec != std::errc() || ptr != token.data() + token.size() || v >= num_vertices) {
    std::fprintf(stderr, "--%s: '%.*s' is not a vertex id (graph has %zu vertices)\n", flag,
                 static_cast<int>(token.size()), token.data(), num_vertices);
    return false;
  }
  *out = static_cast<bccs::VertexId>(v);
  return true;
}

/// --queries: comma-separated vertex ids, every one strict.
bool ParseIdList(std::string_view csv, std::size_t num_vertices,
                 std::vector<bccs::VertexId>* out) {
  while (true) {
    const std::size_t comma = csv.find(',');
    bccs::VertexId v = 0;
    if (!ParseVertexFlag("queries", csv.substr(0, comma), num_vertices, &v)) return false;
    out->push_back(v);
    if (comma == std::string_view::npos) return true;
    csv.remove_prefix(comma + 1);
  }
}

/// --ql/--qr: both required (usage otherwise), both strict vertex ids.
bool ParseQueryPair(const bccs::ArgParser& args, std::size_t num_vertices,
                    bccs::BccQuery* q) {
  if (!args.Has("ql") || !args.Has("qr")) {
    PrintUsage();
    return false;
  }
  return ParseVertexFlag("ql", args.GetStringOr("ql", ""), num_vertices, &q->ql) &&
         ParseVertexFlag("qr", args.GetStringOr("qr", ""), num_vertices, &q->qr);
}

struct BatchLine {
  bccs::BccQuery query;
  bool has_lane = false;
  bccs::Lane lane = bccs::Lane::kBulk;
};

std::vector<BatchLine> ReadBatchFile(const std::string& path, std::size_t num_vertices,
                                     bool* opened) {
  std::vector<BatchLine> out;
  std::ifstream in(path);
  *opened = in.good();
  if (!*opened) return out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::uint64_t ql = 0, qr = 0;
    if (!(ls >> ql >> qr)) {
      bool blank = line.find_first_not_of(" \t\r") == std::string::npos;
      if (!blank) {
        std::fprintf(stderr, "%s:%zu: expected two vertex ids, skipped\n", path.c_str(),
                     line_no);
      }
      continue;
    }
    if (ql >= num_vertices || qr >= num_vertices) {
      std::fprintf(stderr, "%s:%zu: vertex id out of range (graph has %zu vertices), skipped\n",
                   path.c_str(), line_no, num_vertices);
      continue;
    }
    BatchLine bl;
    bl.query = {static_cast<bccs::VertexId>(ql), static_cast<bccs::VertexId>(qr)};
    std::string lane_token;
    if (ls >> lane_token) {
      if (!bccs::ParseLane(lane_token, &bl.lane)) {
        std::fprintf(stderr, "%s:%zu: unknown lane '%s' (interactive|bulk), skipped\n",
                     path.c_str(), line_no, lane_token.c_str());
        continue;
      }
      bl.has_lane = true;
    }
    out.push_back(bl);
  }
  return out;
}

/// Serving knobs shared by every mode, resolved once from the flags.
struct ServeConfig {
  bccs::QueryMethod method = bccs::QueryMethod::kLpBcc;
  bccs::Lane lane = bccs::Lane::kBulk;
  double deadline_seconds = 0;
  std::size_t result_cache_entries = 0;
};

bccs::ServeOptions MakeServeOptions(const ServeConfig& cfg) {
  bccs::ServeOptions so;
  so.result_cache_entries = cfg.result_cache_entries;
  return so;
}

/// Per-phase time breakdown of a batch (or single query): where the search
/// spent its wall time, summed across queries.
void PrintPhaseBreakdown(const std::vector<bccs::SearchStats>& stats) {
  bccs::SearchStats sum;
  for (const auto& s : stats) sum += s;
  std::printf("phases: find_g0=%.4fs query_distance=%.4fs butterfly=%.4fs leader=%.4fs\n",
              sum.find_g0_seconds, sum.query_distance_seconds, sum.butterfly_seconds,
              sum.leader_update_seconds);
  std::printf("counting: calls=%zu leader_rebuilds=%zu\n", sum.butterfly_counting_calls,
              sum.leader_rebuilds);
}

void PrintLaneSummaries(const bccs::BatchResult& result) {
  for (const bccs::LaneSummary& lane : result.lanes) {
    std::printf("lane %-11s %zu queries  sojourn p50=%.6fs p90=%.6fs p99=%.6fs\n",
                bccs::Name(lane.lane), lane.queries, lane.latency.p50_seconds,
                lane.latency.p90_seconds, lane.latency.p99_seconds);
  }
}

/// `index` must already be built/loaded for method "l2p" (never inside the
/// timed batch), so repeated batches measure query cost only.
int RunBatch(const bccs::LabeledGraph& graph, const bccs::BcIndex* index,
             const std::vector<BatchLine>& lines, const bccs::BccParams& params,
             const ServeConfig& cfg, std::size_t threads) {
  std::vector<bccs::QueryRequest> requests(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    requests[i].query = lines[i].query;
    requests[i].method = cfg.method;
    requests[i].lane = lines[i].has_lane ? lines[i].lane : cfg.lane;
    requests[i].deadline_seconds = cfg.deadline_seconds;
    requests[i].params = params;
  }
  bccs::BatchRunner runner(threads);
  bccs::ServeEngine engine(runner, graph, index, MakeServeOptions(cfg));
  bccs::BatchResult result = engine.Serve(requests);

  std::size_t non_empty = 0;
  for (const auto& c : result.communities) non_empty += c.Empty() ? 0 : 1;
  std::printf("batch: %zu queries, %zu threads, %zu non-empty, %zu timed out\n",
              requests.size(), result.threads_used, non_empty, result.timed_out);
  std::printf("wall=%.4fs qps=%.1f avg=%.6fs p50=%.6fs p90=%.6fs p99=%.6fs\n",
              result.latency.wall_seconds, result.latency.qps, result.latency.avg_seconds,
              result.latency.p50_seconds, result.latency.p90_seconds,
              result.latency.p99_seconds);
  PrintLaneSummaries(result);
  PrintPhaseBreakdown(result.stats);
  std::printf("workspace: bulk_inits=%llu buffer_acquires=%llu\n",
              static_cast<unsigned long long>(result.workspace_stats.bulk_inits),
              static_cast<unsigned long long>(result.workspace_stats.buffer_acquires));
  for (std::size_t i = 0; i < requests.size() && i < 10; ++i) {
    std::printf("  [%zu] (%u, %u) -> %zu members\n", i, lines[i].query.ql, lines[i].query.qr,
                result.communities[i].Size());
  }
  if (requests.size() > 10) std::printf("  ... (%zu more)\n", requests.size() - 10);
  return 0;
}

/// Single-request serve (the --ql/--qr and --queries paths): one request,
/// one worker — still the ServeEngine dispatch path.
bccs::BatchResult ServeOne(const bccs::LabeledGraph& graph, const bccs::BcIndex* index,
                           bccs::QueryRequest request, const ServeConfig& cfg) {
  bccs::BatchRunner runner(1);
  bccs::ServeEngine engine(runner, graph, index, MakeServeOptions(cfg));
  std::vector<bccs::QueryRequest> requests{std::move(request)};
  return engine.Serve(requests);
}

}  // namespace

int main(int argc, char** argv) {
  bccs::ArgParser args = bccs::ArgParser::Parse(argc, argv);
  auto unknown = args.UnknownFlags({"graph", "index-file", "ql", "qr", "queries", "k1", "k2",
                                    "b", "method", "verify", "help", "batch-file", "threads",
                                    "repeat", "lane", "deadline-ms", "updates-file",
                                    "result-cache"});
  if (!unknown.empty() || args.Has("help")) {
    for (const auto& u : unknown) std::fprintf(stderr, "unknown flag: --%s\n", u.c_str());
    PrintUsage();
    return args.Has("help") ? 0 : 2;
  }

  // Validate the serving flags before any graph is loaded.
  if (args.Has("queries")) {
    for (const char* flag : {"method", "k1", "k2"}) {
      if (!args.Has(flag)) continue;
      std::fprintf(stderr,
                   "--%s does not apply to --queries (mBCC runs with auto k and the "
                   "engine's mBCC options)\n",
                   flag);
      return 2;
    }
  }
  const std::string method_name = args.GetStringOr("method", "lp");
  ServeConfig cfg;
  if (method_name == "online") {
    cfg.method = bccs::QueryMethod::kOnlineBcc;
  } else if (method_name == "lp") {
    cfg.method = bccs::QueryMethod::kLpBcc;
  } else if (method_name == "l2p") {
    cfg.method = bccs::QueryMethod::kL2pBcc;
  } else {
    std::fprintf(stderr, "unknown method '%s' (valid methods: online, lp, l2p)\n",
                 method_name.c_str());
    PrintUsage();
    return 2;
  }
  const bool batch_mode = args.Has("batch-file") || args.Has("repeat");
  cfg.lane = batch_mode ? bccs::Lane::kBulk : bccs::Lane::kInteractive;
  if (args.Has("lane") && !bccs::ParseLane(args.GetStringOr("lane", ""), &cfg.lane)) {
    std::fprintf(stderr, "invalid --lane '%s' (valid lanes: interactive, bulk)\n",
                 args.GetStringOr("lane", "").c_str());
    return 2;
  }
  bool flags_valid = true;
  const std::int64_t deadline_ms = args.GetPositiveIntOr("deadline-ms", 0, &flags_valid);
  if (!flags_valid) {
    std::fprintf(stderr, "--deadline-ms must be a positive integer\n");
    return 2;
  }
  // The count/parameter flags share one strict numeric contract: a value
  // that is not a clean integer in range is an invocation error, never a
  // silent fallback.
  bool counts_valid = true;
  const std::int64_t threads_raw = args.GetNonNegativeIntOr("threads", 0, &counts_valid);
  const std::int64_t k1_arg = args.GetNonNegativeIntOr("k1", 0, &counts_valid);
  const std::int64_t k2_arg = args.GetNonNegativeIntOr("k2", 0, &counts_valid);
  const std::int64_t b_arg = args.GetPositiveIntOr("b", 1, &counts_valid);
  const std::int64_t result_cache =
      args.GetNonNegativeIntOr("result-cache", 0, &counts_valid);
  if (!counts_valid || k1_arg > UINT32_MAX || k2_arg > UINT32_MAX) {
    std::fprintf(stderr,
                 "--threads, --k1, --k2 and --result-cache must be "
                 "integers >= 0 (--k1/--k2 at most %u); --b must be an integer > 0\n",
                 UINT32_MAX);
    PrintUsage();
    return 2;
  }
  cfg.result_cache_entries = static_cast<std::size_t>(result_cache);
  bool threads_clamped = false;
  const std::size_t threads = bccs::ArgParser::ClampThreadCount(threads_raw, &threads_clamped);
  if (threads_clamped) {
    std::fprintf(stderr, "note: --threads %lld clamped to hardware concurrency (%zu)\n",
                 static_cast<long long>(threads_raw), threads);
  }
  cfg.deadline_seconds = static_cast<double>(deadline_ms) / 1000.0;

  auto graph_path = args.GetString("graph");
  auto index_path = args.GetString("index-file");
  if (!graph_path && !index_path) {
    PrintUsage();
    return 2;
  }

  // Resolve the graph (and, when snapshots are involved, the index) exactly
  // once, before any query or repeat loop runs.
  std::shared_ptr<const bccs::LabeledGraph> graph;
  bccs::SnapshotBundle bundle;
  if (index_path) {
    // Warm path first: a valid snapshot serves on its own, so the text
    // graph (potentially huge) is parsed only when the load fails and a
    // rebuild fallback is actually needed. When --graph is also given, its
    // stat() identity is checked against the snapshot's stamp, so a stale
    // snapshot is rejected (and rebuilt below) instead of silently winning.
    bccs::Timer load_timer;
    std::string load_error;
    bccs::SnapshotLoadOptions load_opts;
    bccs::SourceGraphInfo source;
    if (graph_path) {
      source = bccs::StatSourceGraph(*graph_path);
      load_opts.expected_source = source;
    }
    if (auto loaded = bccs::LoadSnapshot(*index_path, &load_error, load_opts)) {
      bundle = std::move(*loaded);
    } else if (!graph_path) {
      std::fprintf(stderr, "cannot load snapshot %s: %s\n", index_path->c_str(),
                   load_error.c_str());
      return 1;
    } else {
      std::string io_error;
      auto text_graph = bccs::ReadLabeledGraphFromFile(*graph_path, &io_error);
      if (!text_graph) {
        std::fprintf(stderr, "snapshot %s failed (%s) and cannot read graph %s: %s\n",
                     index_path->c_str(), load_error.c_str(), graph_path->c_str(),
                     io_error.c_str());
        return 1;
      }
      if (cfg.method == bccs::QueryMethod::kL2pBcc) {
        // The load above already failed; build and save without re-reading
        // the snapshot file.
        std::fprintf(stderr, "note: snapshot %s: %s; rebuilding\n", index_path->c_str(),
                     load_error.c_str());
        bundle = bccs::BuildSnapshotBundle(*text_graph, *index_path, &io_error, source);
        if (!io_error.empty()) {
          std::fprintf(stderr, "note: snapshot %s: %s\n", index_path->c_str(),
                       io_error.c_str());
        }
      } else {
        // lp/online/mBCC only read label coreness from an index and peel
        // the same answer without one: don't pay the all-pairs butterfly
        // build + snapshot write for them.
        std::fprintf(stderr, "note: snapshot %s: %s; serving from the text graph\n",
                     index_path->c_str(), load_error.c_str());
        bundle.graph = std::make_shared<const bccs::LabeledGraph>(std::move(*text_graph));
      }
    }
    graph = bundle.graph;
    if (bundle.index != nullptr) {
      std::printf("index: %s %s in %.6fs (%zu bytes, %zu cached pairs, "
                  "%zu replayed updates)\n",
                  bundle.loaded_from_snapshot ? "loaded from" : "built and saved to",
                  index_path->c_str(), load_timer.Seconds(), bundle.snapshot_bytes,
                  bundle.index->CachedPairCount(), bundle.replayed_updates);
    }
  } else {
    std::string io_error;
    auto text_graph = bccs::ReadLabeledGraphFromFile(*graph_path, &io_error);
    if (!text_graph) {
      std::fprintf(stderr, "cannot read graph from %s: %s\n", graph_path->c_str(),
                   io_error.c_str());
      return 1;
    }
    graph = std::make_shared<const bccs::LabeledGraph>(std::move(*text_graph));
  }
  std::printf("graph: %zu vertices, %zu edges, %zu labels\n", graph->NumVertices(),
              graph->NumEdges(), graph->NumLabels());

  // --updates-file: one UpdateRequest through the serving engine's update
  // path before any query runs, so everything below — single queries,
  // batches, repeats — observes the post-update epoch.
  std::shared_ptr<const bccs::BcIndex> updated_index;
  if (auto updates_path = args.GetString("updates-file")) {
    std::string up_error;
    auto updates = bccs::ReadEdgeUpdatesFromFile(*updates_path, &up_error);
    if (!updates) {
      std::fprintf(stderr, "cannot read updates from %s: %s\n", updates_path->c_str(),
                   up_error.c_str());
      return 1;
    }
    const std::size_t raw_count = updates->size();
    bccs::BatchRunner update_runner(1);
    bccs::ServeEngine update_engine(update_runner, *graph, bundle.index.get());
    bccs::UpdateRequest update_request;
    update_request.updates = std::move(*updates);
    std::vector<bccs::ServeItem> items;
    items.emplace_back(std::move(update_request));
    const bccs::BatchResult update_result = update_engine.Serve(items);
    const bccs::UpdateOutcome& outcome = update_result.updates[0];
    if (!outcome.applied) {
      std::fprintf(stderr, "cannot apply %s: %s\n", updates_path->c_str(),
                   outcome.error.c_str());
      return 1;
    }
    graph = update_engine.graph_ptr();
    if (bundle.index != nullptr) updated_index = update_engine.index_ptr();
    std::printf("updates: %zu applied (%zu inserts, %zu deletes net) in %.4fs; "
                "now %zu edges, serving epoch %llu\n",
                raw_count, outcome.inserts, outcome.deletes, outcome.seconds,
                graph->NumEdges(), static_cast<unsigned long long>(outcome.epoch));
  }

  const auto b = static_cast<std::uint64_t>(b_arg);

  // The l2p index is shared by every mode below; build it now (once) if the
  // snapshot machinery (or the update replay) did not already provide one.
  std::unique_ptr<bccs::BcIndex> local_index;
  const bccs::BcIndex* index =
      updated_index != nullptr ? updated_index.get() : bundle.index.get();
  if (cfg.method == bccs::QueryMethod::kL2pBcc && index == nullptr) {
    local_index = std::make_unique<bccs::BcIndex>(*graph);
    index = local_index.get();
  }

  // Batch modes run through the parallel engine and return early.
  const std::int64_t repeat_arg = args.GetIntOr("repeat", 0);
  if (args.Has("repeat") && repeat_arg <= 0) {
    std::fprintf(stderr, "--repeat must be an integer > 0\n");
    return 2;
  }
  const auto repeat = args.Has("repeat") ? static_cast<std::size_t>(repeat_arg) : 1;
  bccs::BccParams batch_params{static_cast<std::uint32_t>(k1_arg),
                               static_cast<std::uint32_t>(k2_arg), b};
  if (batch_mode && args.Has("verify")) {
    std::fprintf(stderr, "warning: --verify is not supported in batch mode and is ignored\n");
  }
  if (args.Has("batch-file")) {
    const std::string batch_path = args.GetStringOr("batch-file", "");
    bool opened = false;
    auto batch = ReadBatchFile(batch_path, graph->NumVertices(), &opened);
    if (!opened) {
      std::fprintf(stderr, "cannot read batch file %s\n", batch_path.c_str());
      return 2;
    }
    if (batch.empty()) {
      std::fprintf(stderr, "no queries in batch file\n");
      return 2;
    }
    if (repeat > 1) {  // tile the batch; the index above is NOT rebuilt per repeat
      const std::size_t base = batch.size();
      batch.reserve(base * repeat);
      for (std::size_t r = 1; r < repeat; ++r) {
        for (std::size_t i = 0; i < base; ++i) batch.push_back(batch[i]);
      }
    }
    return RunBatch(*graph, index, batch, batch_params, cfg, threads);
  }
  if (args.Has("repeat")) {
    BatchLine bl;
    if (!ParseQueryPair(args, graph->NumVertices(), &bl.query)) return 2;
    std::vector<BatchLine> batch(repeat, bl);
    return RunBatch(*graph, index, batch, batch_params, cfg, threads);
  }

  bccs::BatchResult result;
  std::vector<bccs::VertexId> queries;

  if (args.Has("queries")) {
    if (!ParseIdList(args.GetStringOr("queries", ""), graph->NumVertices(), &queries)) {
      return 2;
    }
    if (queries.size() < 2) {
      std::fprintf(stderr, "--queries needs at least two ids\n");
      return 2;
    }
    bccs::QueryRequest request;
    request.query = bccs::MbccQuery{queries};
    request.method = bccs::QueryMethod::kMbcc;
    request.lane = cfg.lane;
    request.deadline_seconds = cfg.deadline_seconds;
    request.mbcc_params.b = b;
    result = ServeOne(*graph, index, std::move(request), cfg);
  } else {
    bccs::BccQuery q;
    if (!ParseQueryPair(args, graph->NumVertices(), &q)) return 2;
    queries = {q.ql, q.qr};
    bccs::QueryRequest request;
    request.query = q;
    request.method = cfg.method;
    request.lane = cfg.lane;
    request.deadline_seconds = cfg.deadline_seconds;
    request.params = {static_cast<std::uint32_t>(k1_arg),
                      static_cast<std::uint32_t>(k2_arg), b};
    result = ServeOne(*graph, index, std::move(request), cfg);
  }

  const bccs::Community& community = result.communities[0];
  const bccs::SearchStats& stats = result.stats[0];
  if (stats.timed_out) {
    std::printf("deadline expired: returning best valid partial answer\n");
  }
  if (community.Empty()) {
    std::printf("no community found\n");
    return 1;
  }
  std::printf("community (%zu members):", community.Size());
  for (bccs::VertexId v : community.vertices) std::printf(" %u", v);
  std::printf("\nrounds=%zu butterfly_counting_calls=%zu time=%.6fs\n", stats.rounds,
              stats.butterfly_counting_calls, stats.total_seconds);
  PrintPhaseBreakdown(result.stats);

  if (args.Has("verify")) {
    // Resolve auto parameters the way the search did.
    const char* verdict = nullptr;
    if (args.Has("queries")) {
      const bccs::MbccQuery q{queries};
      const bccs::MbccParams p{{}, b};
      verdict = bccs::ToString(bccs::VerifyMbcc(
          *graph, community, queries, bccs::ResolveMbccCores(*graph, q, p, nullptr, index), b));
    } else {
      bccs::BccParams p{static_cast<std::uint32_t>(k1_arg),
                        static_cast<std::uint32_t>(k2_arg), b};
      bccs::SearchStats tmp;
      bccs::G0Result g0 =
          bccs::FindG0(*graph, bccs::BccQuery{queries[0], queries[1]}, p, &tmp);
      p.k1 = g0.k1;
      p.k2 = g0.k2;
      verdict = bccs::ToString(
          bccs::VerifyBcc(*graph, community, bccs::BccQuery{queries[0], queries[1]}, p));
    }
    std::printf("verification: %s\n", verdict);
  }
  return 0;
}
