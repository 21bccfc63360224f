// perf_smoke: the PR-over-PR performance trajectory micro-benchmark.
//
// Runs LP-BCC, Online-BCC and mBCC query batches over a planted synthetic
// graph, sequentially (1 worker) and in parallel (all cores), checks that
// the parallel engine returns identical communities, measures BcIndex
// snapshot cold-start (index_build_seconds vs index_load_seconds, with an
// identical-answers check for L2P on the loaded index), exercises the
// unified serving engine (mixed interactive/bulk lanes with per-lane
// percentiles, the streaming serve loop under a saturating mixed stream —
// interactive p95 with/without the bulk in-flight cap and update publish
// latency vs the old barrier flush), measures
// dynamic edge-update batches (incremental BcIndex::ApplyUpdates vs full
// rebuild seconds, with a bit-identical check), measures crash-recovery
// cost (bare base load vs a rotated-changelog replay vs the load after a
// compaction fold, with an identical-answers check), replays a seeded
// open-loop Zipfian trace through the epoch-keyed result cache (hit rate,
// cached-vs-uncached p50/p95, identical-answers gate) with a butterfly
// block-cache eviction-pressure run, drives the socket front-end over 100+
// concurrent loopback TCP connections (sustained QPS + client-observed
// interactive p95 vs the in-process baseline, with every wire response
// byte-identical to the in-process answer), peels the seeded big-graph
// queries with the incremental butterfly counter on vs per-round recounts
// (bit-identical answers, butterfly-phase speedup), and emits a JSON
// summary (default BENCH_PR10.json) so future PRs can compare against
// this one.
//
//   perf_smoke [--out BENCH_PR10.json] [--queries 64] [--threads 0]
//             [--serving-only]
//              [--communities 24] [--group-size 24] [--keep-snapshot]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bench_common.h"
#include "eval/serve_engine.h"
#include "eval/timer.h"
#include "graph/changelog.h"
#include "graph/compactor.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "graph/snapshot.h"
#include "net/client.h"
#include "net/line_protocol.h"
#include "net/server.h"
#include "tools/arg_parser.h"

namespace {

using namespace bccs;
using namespace bccs::bench;

struct MethodRow {
  std::string name;
  std::size_t queries = 0;
  double seq_qps = 0, par_qps = 0, speedup = 0;
  double p50 = 0, p99 = 0;
  bool identical = false;
  std::uint64_t steady_bulk_inits = 0;  // bulk inits during the 2nd (warm) batch
  SearchStats stage;                    // aggregated per-query stage seconds
};

/// Snapshot cold-start measurements for the JSON "index" block.
struct IndexRow {
  double build_seconds = 0;   // BcIndex build + all-pairs materialization
  double save_seconds = 0;
  double load_seconds = 0;    // LoadSnapshot (checksum verified)
  double load_over_build = 0;
  std::size_t snapshot_bytes = 0;
  std::size_t pairs = 0;
  bool mapped = false;
  bool identical = false;     // L2P answers: built index vs loaded index
};

/// Streaming serve loop measurements: interactive p95 under a saturating
/// bulk backlog with and without the bulk in-flight cap, and update publish
/// latency (admission -> epoch publish) for the streaming loop vs the PR 4
/// barrier emulation (flush every query ahead of the update first).
struct StreamingRow {
  std::size_t interactive_queries = 0, bulk_queries = 0;
  std::size_t bulk_cap = 0;
  double uncapped_interactive_p95 = 0, capped_interactive_p95 = 0;
  std::size_t uncapped_max_bulk_inflight = 0, capped_max_bulk_inflight = 0;
  double stream_update_sojourn = 0;   // admission -> publish, streaming loop
  double barrier_update_sojourn = 0;  // admission -> publish, barrier emulation
  double stream_wall_seconds = 0;
  double barrier_wall_seconds = 0;
  bool identical = false;          // capped == uncapped == barrier answers
  bool capped_p95_bounded = false; // capped p95 within noise of uncapped
  bool update_publish_faster = false;  // stream sojourn <= barrier sojourn
};

/// Mixed interactive/bulk serving measurements (two-lane scheduler).
struct ServingRow {
  std::size_t interactive_queries = 0, bulk_queries = 0;
  std::size_t aging_period = 8;
  std::size_t timed_out = 0;
  double interactive_p50 = 0, interactive_p99 = 0;
  double bulk_p50 = 0, bulk_p99 = 0;
  double wall_seconds = 0;  // measured Serve() call, warm
  bool interactive_ahead = false;  // interactive p99 < bulk p99 (sojourn)
};

/// Incremental-repair-vs-rebuild measurements for one edge-update batch on
/// the large generated graph.
struct UpdateBatchRow {
  std::size_t updates = 0;
  double incremental_seconds = 0;
  double rebuild_seconds = 0;  // fresh BcIndex + MaterializeAllPairs on g'
  double speedup = 0;
  UpdateRepairStats repair;
  bool identical = false;  // repaired index == rebuilt index, bit for bit
};

/// Caching-layer measurements: a seeded open-loop Zipfian trace replayed
/// through the serving engine with the result cache off and on (same
/// admission order, so epoch_of must match bit for bit), plus a butterfly
/// block-cache run under byte-budget eviction pressure on a label-rich
/// graph, checked against an unbounded index.
struct CachingRow {
  std::size_t trace_requests = 0;   // query items in the trace
  std::size_t distinct_queries = 0; // Zipf pool size
  std::size_t update_bursts = 0;
  std::uint64_t hits = 0, misses = 0, stale_drops = 0, evictions = 0;
  double hit_rate = 0;
  double uncached_p50 = 0, uncached_p95 = 0;  // per-query execution seconds
  double cached_p50 = 0, cached_p95 = 0;
  bool identical_to_uncached = false;  // communities + epoch_of, cache on vs off
  bool cached_p50_faster = false;      // cached p50 <= 0.9 * uncached p50
  std::size_t block_budget_bytes = 0;
  std::size_t block_bytes = 0;  // resident unpinned bytes after the run
  std::uint64_t block_hits = 0, block_misses = 0, block_evictions = 0;
  bool block_within_budget = false;  // held after every single access
  bool block_identical = false;      // capped counts == unbounded counts
};

/// Socket front-end measurements: the same query workload served over 100+
/// concurrent loopback TCP connections (closed-loop, one in-flight request
/// per connection) and in-process through ServeEngine::Serve, with every
/// wire response checked byte-for-byte against the in-process answer.
struct NetworkRow {
  std::size_t connections = 0;
  std::size_t requests = 0;             // total requests over the sockets
  std::size_t interactive_requests = 0;
  double net_wall_seconds = 0, net_qps = 0;
  double net_interactive_p95 = 0;       // client-observed round trip
  double baseline_wall_seconds = 0, baseline_qps = 0;
  double baseline_interactive_p95 = 0;  // in-process sojourn
  double net_over_baseline = 0;         // wall ratio: the socket tax
  bool identical = false;  // every wire response == FormatQueryResponse of
                           // the in-process community at epoch 1
};

/// This PR's headline: the same seeded queries peeled to convergence with the
/// incremental butterfly counter on (per-round validity from maintained chi)
/// vs off (full recount per round), in online mode where every round needs an
/// exact check. Answers must be bit-identical; the speedup is the ratio of
/// the butterfly-maintenance cost (recount seconds vs recount-fallback +
/// delta-debit seconds).
struct PeelingRow {
  std::size_t queries = 0;
  double incremental_wall_seconds = 0, recount_wall_seconds = 0;
  double incremental_butterfly_seconds = 0;  // fallback recounts + delta debits
  double recount_butterfly_seconds = 0;      // per-round full recounts
  double speedup = 0;        // recount_butterfly / incremental_butterfly
  double wall_speedup = 0;   // end-to-end, diluted by find_g0 + distances
  std::size_t incremental_counting_calls = 0, recount_counting_calls = 0;
  std::size_t delta_rounds = 0, delta_fallbacks = 0;
  bool identical_to_recount = false;
};

/// Crash-recovery cost on the big index graph: load of the bare base
/// snapshot vs recovery with a rotated-changelog replay vs the same load
/// after the compactor folded the segments into a fresh base.
struct RecoveryRow {
  std::size_t batches = 0;             // changelog records appended
  std::size_t appended_updates = 0;    // edge updates across those records
  std::size_t live_segments = 0;       // sealed segments before the fold
  double base_load_seconds = 0;        // replay_changelog = false
  double replay_load_seconds = 0;      // base + segment replay (uncompacted)
  double fold_seconds = 0;             // Compactor::RunOnce(force)
  double compacted_load_seconds = 0;   // after the fold: no segments left
  double replay_over_base = 0;         // replay_load / base_load
  bool identical = false;              // replayed answers == folded answers
};

/// Half deletions of existing edges, half insertions of absent pairs — a
/// mixed batch that validates against `g`.
std::vector<EdgeUpdate> MakeMixedBatch(const LabeledGraph& g, std::size_t batch_size,
                                       std::mt19937_64& rng) {
  std::vector<EdgeUpdate> updates;
  std::vector<Edge> edges = g.AllEdges();
  std::shuffle(edges.begin(), edges.end(), rng);
  for (std::size_t i = 0; i < batch_size / 2 && i < edges.size(); ++i) {
    updates.push_back({EdgeUpdateKind::kDelete, edges[i]});
  }
  std::uniform_int_distribution<VertexId> pick(0, static_cast<VertexId>(g.NumVertices() - 1));
  while (updates.size() < batch_size) {
    VertexId u = pick(rng), v = pick(rng);
    if (u == v || g.HasEdge(u, v)) continue;
    if (std::any_of(updates.begin(), updates.end(), [&](const EdgeUpdate& x) {
          return x.edge == Edge{std::min(u, v), std::max(u, v)};
        })) {
      continue;
    }
    updates.push_back({EdgeUpdateKind::kInsert, {std::min(u, v), std::max(u, v)}});
  }
  return updates;
}

bool SameCommunities(const BatchResult& a, const BatchResult& b) {
  if (a.communities.size() != b.communities.size()) return false;
  for (std::size_t i = 0; i < a.communities.size(); ++i) {
    if (a.communities[i].vertices != b.communities[i].vertices) return false;
  }
  return true;
}

SearchStats SumStats(const BatchResult& r) {
  SearchStats s;
  for (const SearchStats& q : r.stats) s += q;
  return s;
}

void PrintJson(std::FILE* f, const std::vector<MethodRow>& rows, const IndexRow& index,
               const ServingRow& serving, const StreamingRow& streaming,
               const CachingRow& caching,
               const NetworkRow& network, const std::vector<UpdateBatchRow>& updates,
               const RecoveryRow& recovery, const PeelingRow& peeling, std::size_t n,
               std::size_t edges, std::size_t par_threads) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"perf_smoke\",\n");
  std::fprintf(f, "  \"graph\": {\"vertices\": %zu, \"edges\": %zu},\n", n, edges);
  std::fprintf(f, "  \"parallel_threads\": %zu,\n", par_threads);
  std::fprintf(f, "  \"streaming\": {\n");
  std::fprintf(f, "    \"interactive_queries\": %zu,\n", streaming.interactive_queries);
  std::fprintf(f, "    \"bulk_queries\": %zu,\n", streaming.bulk_queries);
  std::fprintf(f, "    \"bulk_cap\": %zu,\n", streaming.bulk_cap);
  std::fprintf(f, "    \"uncapped_interactive_p95_seconds\": %.6f,\n",
               streaming.uncapped_interactive_p95);
  std::fprintf(f, "    \"capped_interactive_p95_seconds\": %.6f,\n",
               streaming.capped_interactive_p95);
  std::fprintf(f, "    \"uncapped_max_bulk_inflight\": %zu,\n",
               streaming.uncapped_max_bulk_inflight);
  std::fprintf(f, "    \"capped_max_bulk_inflight\": %zu,\n",
               streaming.capped_max_bulk_inflight);
  std::fprintf(f, "    \"stream_update_publish_seconds\": %.6f,\n",
               streaming.stream_update_sojourn);
  std::fprintf(f, "    \"barrier_update_publish_seconds\": %.6f,\n",
               streaming.barrier_update_sojourn);
  std::fprintf(f, "    \"stream_wall_seconds\": %.6f,\n", streaming.stream_wall_seconds);
  std::fprintf(f, "    \"barrier_wall_seconds\": %.6f,\n", streaming.barrier_wall_seconds);
  std::fprintf(f, "    \"identical_across_modes\": %s,\n",
               streaming.identical ? "true" : "false");
  std::fprintf(f, "    \"capped_p95_bounded\": %s,\n",
               streaming.capped_p95_bounded ? "true" : "false");
  std::fprintf(f, "    \"update_publish_faster_than_barrier\": %s\n",
               streaming.update_publish_faster ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"serving\": {\n");
  std::fprintf(f, "    \"aging_period\": %zu,\n", serving.aging_period);
  std::fprintf(f, "    \"timed_out\": %zu,\n", serving.timed_out);
  std::fprintf(f, "    \"interactive\": {\"queries\": %zu, \"p50_seconds\": %.6f, "
               "\"p99_seconds\": %.6f},\n",
               serving.interactive_queries, serving.interactive_p50, serving.interactive_p99);
  std::fprintf(f, "    \"bulk\": {\"queries\": %zu, \"p50_seconds\": %.6f, "
               "\"p99_seconds\": %.6f},\n",
               serving.bulk_queries, serving.bulk_p50, serving.bulk_p99);
  std::fprintf(f, "    \"wall_seconds\": %.6f,\n", serving.wall_seconds);
  std::fprintf(f, "    \"interactive_p99_below_bulk_p99\": %s\n",
               serving.interactive_ahead ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"caching\": {\n");
  std::fprintf(f, "    \"trace_requests\": %zu,\n", caching.trace_requests);
  std::fprintf(f, "    \"distinct_queries\": %zu,\n", caching.distinct_queries);
  std::fprintf(f, "    \"update_bursts\": %zu,\n", caching.update_bursts);
  std::fprintf(f, "    \"hits\": %llu,\n", static_cast<unsigned long long>(caching.hits));
  std::fprintf(f, "    \"misses\": %llu,\n", static_cast<unsigned long long>(caching.misses));
  std::fprintf(f, "    \"stale_drops\": %llu,\n",
               static_cast<unsigned long long>(caching.stale_drops));
  std::fprintf(f, "    \"evictions\": %llu,\n",
               static_cast<unsigned long long>(caching.evictions));
  std::fprintf(f, "    \"hit_rate\": %.4f,\n", caching.hit_rate);
  std::fprintf(f, "    \"uncached_p50_seconds\": %.6f,\n", caching.uncached_p50);
  std::fprintf(f, "    \"uncached_p95_seconds\": %.6f,\n", caching.uncached_p95);
  std::fprintf(f, "    \"cached_p50_seconds\": %.6f,\n", caching.cached_p50);
  std::fprintf(f, "    \"cached_p95_seconds\": %.6f,\n", caching.cached_p95);
  std::fprintf(f, "    \"identical_to_uncached\": %s,\n",
               caching.identical_to_uncached ? "true" : "false");
  std::fprintf(f, "    \"cached_p50_below_uncached\": %s,\n",
               caching.cached_p50_faster ? "true" : "false");
  std::fprintf(f, "    \"block_cache\": {\n");
  std::fprintf(f, "      \"budget_bytes\": %zu,\n", caching.block_budget_bytes);
  std::fprintf(f, "      \"bytes\": %zu,\n", caching.block_bytes);
  std::fprintf(f, "      \"hits\": %llu,\n",
               static_cast<unsigned long long>(caching.block_hits));
  std::fprintf(f, "      \"misses\": %llu,\n",
               static_cast<unsigned long long>(caching.block_misses));
  std::fprintf(f, "      \"evictions\": %llu,\n",
               static_cast<unsigned long long>(caching.block_evictions));
  std::fprintf(f, "      \"within_budget\": %s,\n",
               caching.block_within_budget ? "true" : "false");
  std::fprintf(f, "      \"identical_to_unbounded\": %s\n",
               caching.block_identical ? "true" : "false");
  std::fprintf(f, "    }\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"network\": {\n");
  std::fprintf(f, "    \"connections\": %zu,\n", network.connections);
  std::fprintf(f, "    \"requests\": %zu,\n", network.requests);
  std::fprintf(f, "    \"interactive_requests\": %zu,\n", network.interactive_requests);
  std::fprintf(f, "    \"net_wall_seconds\": %.6f,\n", network.net_wall_seconds);
  std::fprintf(f, "    \"net_qps\": %.2f,\n", network.net_qps);
  std::fprintf(f, "    \"net_interactive_p95_seconds\": %.6f,\n",
               network.net_interactive_p95);
  std::fprintf(f, "    \"baseline_wall_seconds\": %.6f,\n", network.baseline_wall_seconds);
  std::fprintf(f, "    \"baseline_qps\": %.2f,\n", network.baseline_qps);
  std::fprintf(f, "    \"baseline_interactive_p95_seconds\": %.6f,\n",
               network.baseline_interactive_p95);
  std::fprintf(f, "    \"net_over_baseline\": %.3f,\n", network.net_over_baseline);
  std::fprintf(f, "    \"identical_to_in_process\": %s\n",
               network.identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"updates\": [\n");
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const UpdateBatchRow& u = updates[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"updates\": %zu,\n", u.updates);
    std::fprintf(f, "      \"incremental_seconds\": %.6f,\n", u.incremental_seconds);
    std::fprintf(f, "      \"rebuild_seconds\": %.6f,\n", u.rebuild_seconds);
    std::fprintf(f, "      \"speedup\": %.3f,\n", u.speedup);
    std::fprintf(f, "      \"labels_incremental\": %zu,\n", u.repair.labels_incremental);
    std::fprintf(f, "      \"labels_rebuilt\": %zu,\n", u.repair.labels_rebuilt);
    std::fprintf(f, "      \"pairs_incremental\": %zu,\n", u.repair.pairs_incremental);
    std::fprintf(f, "      \"pairs_recounted\": %zu,\n", u.repair.pairs_recounted);
    std::fprintf(f, "      \"identical_to_rebuild\": %s\n", u.identical ? "true" : "false");
    std::fprintf(f, "    }%s\n", i + 1 < updates.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"recovery\": {\n");
  std::fprintf(f, "    \"batches\": %zu,\n", recovery.batches);
  std::fprintf(f, "    \"appended_updates\": %zu,\n", recovery.appended_updates);
  std::fprintf(f, "    \"live_segments\": %zu,\n", recovery.live_segments);
  std::fprintf(f, "    \"base_load_seconds\": %.6f,\n", recovery.base_load_seconds);
  std::fprintf(f, "    \"replay_load_seconds\": %.6f,\n", recovery.replay_load_seconds);
  std::fprintf(f, "    \"fold_seconds\": %.6f,\n", recovery.fold_seconds);
  std::fprintf(f, "    \"compacted_load_seconds\": %.6f,\n", recovery.compacted_load_seconds);
  std::fprintf(f, "    \"replay_over_base\": %.3f,\n", recovery.replay_over_base);
  std::fprintf(f, "    \"identical_replay_vs_fold\": %s\n", recovery.identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"peeling\": {\n");
  std::fprintf(f, "    \"queries\": %zu,\n", peeling.queries);
  std::fprintf(f, "    \"incremental_wall_seconds\": %.6f,\n",
               peeling.incremental_wall_seconds);
  std::fprintf(f, "    \"recount_wall_seconds\": %.6f,\n", peeling.recount_wall_seconds);
  std::fprintf(f, "    \"incremental_butterfly_seconds\": %.6f,\n",
               peeling.incremental_butterfly_seconds);
  std::fprintf(f, "    \"recount_butterfly_seconds\": %.6f,\n",
               peeling.recount_butterfly_seconds);
  std::fprintf(f, "    \"speedup\": %.3f,\n", peeling.speedup);
  std::fprintf(f, "    \"wall_speedup\": %.3f,\n", peeling.wall_speedup);
  std::fprintf(f, "    \"incremental_counting_calls\": %zu,\n",
               peeling.incremental_counting_calls);
  std::fprintf(f, "    \"recount_counting_calls\": %zu,\n", peeling.recount_counting_calls);
  std::fprintf(f, "    \"delta_rounds\": %zu,\n", peeling.delta_rounds);
  std::fprintf(f, "    \"delta_fallbacks\": %zu,\n", peeling.delta_fallbacks);
  std::fprintf(f, "    \"identical_to_recount\": %s\n",
               peeling.identical_to_recount ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"index\": {\n");
  std::fprintf(f, "    \"index_build_seconds\": %.6f,\n", index.build_seconds);
  std::fprintf(f, "    \"index_save_seconds\": %.6f,\n", index.save_seconds);
  std::fprintf(f, "    \"index_load_seconds\": %.6f,\n", index.load_seconds);
  std::fprintf(f, "    \"load_over_build\": %.6f,\n", index.load_over_build);
  std::fprintf(f, "    \"snapshot_bytes\": %zu,\n", index.snapshot_bytes);
  std::fprintf(f, "    \"materialized_pairs\": %zu,\n", index.pairs);
  std::fprintf(f, "    \"mmap\": %s,\n", index.mapped ? "true" : "false");
  std::fprintf(f, "    \"identical_to_built\": %s\n", index.identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"methods\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const MethodRow& r = rows[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"queries\": %zu,\n", r.queries);
    std::fprintf(f, "      \"seq_qps\": %.2f,\n", r.seq_qps);
    std::fprintf(f, "      \"par_qps\": %.2f,\n", r.par_qps);
    std::fprintf(f, "      \"speedup\": %.3f,\n", r.speedup);
    std::fprintf(f, "      \"p50_seconds\": %.6f,\n", r.p50);
    std::fprintf(f, "      \"p99_seconds\": %.6f,\n", r.p99);
    std::fprintf(f, "      \"identical_to_sequential\": %s,\n", r.identical ? "true" : "false");
    std::fprintf(f, "      \"steady_state_bulk_inits\": %llu,\n",
                 static_cast<unsigned long long>(r.steady_bulk_inits));
    std::fprintf(f, "      \"stage_seconds\": {\n");
    std::fprintf(f, "        \"find_g0\": %.6f,\n", r.stage.find_g0_seconds);
    std::fprintf(f, "        \"query_distance\": %.6f,\n", r.stage.query_distance_seconds);
    std::fprintf(f, "        \"butterfly\": %.6f,\n", r.stage.butterfly_seconds);
    std::fprintf(f, "        \"delta\": %.6f,\n", r.stage.butterfly_delta_seconds);
    std::fprintf(f, "        \"leader_update\": %.6f,\n", r.stage.leader_update_seconds);
    std::fprintf(f, "        \"total\": %.6f\n", r.stage.total_seconds);
    std::fprintf(f, "      }\n");
    std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
}

/// Builds the index (with every pair materialized), saves a snapshot next to
/// `out_path`, reloads it, and checks that L2P answers from the loaded index
/// match the freshly built one. This is the serving cold-start story: load
/// must be a small fraction of build.
///
/// Runs on its own, larger planted graph (the method rows keep the
/// PR1-comparable default) so the build cost being amortized is a realistic
/// one: butterfly materialization is superlinear in group degree while load
/// stays linear in file size.
IndexRow MeasureSnapshotColdStart(std::size_t index_communities, const std::string& out_path,
                                  bool keep_snapshot, PlantedGraph* out_graph,
                                  std::vector<BccQuery>* out_queries) {
  IndexRow row;
  const std::string snap_path = out_path + ".snapshot";

  PlantedConfig cfg;
  cfg.num_communities = index_communities;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.mixed_group_counts = true;
  cfg.min_group_size = 40;
  cfg.max_group_size = 72;
  // Denser cross-label wiring: butterfly materialization cost (the build
  // side of the ratio) grows with the square of cross degrees, while
  // snapshot size — and so load cost — grows only linearly.
  cfg.cross_pair_prob = 0.25;
  cfg.seed = 17;
  PlantedGraph pg = GeneratePlanted(cfg);
  std::printf("index graph: %zu vertices, %zu edges, %zu labels\n", pg.graph.NumVertices(),
              pg.graph.NumEdges(), pg.graph.NumLabels());

  QueryGenConfig qcfg;
  std::vector<GroundTruthQuery> gt = SampleGroundTruthQueries(pg, 32, qcfg);
  std::vector<BccQuery> queries;
  for (const auto& g : gt) queries.push_back(g.query);
  const BccParams params;  // auto k, b = 1

  Timer build_timer;
  BcIndex built(pg.graph);
  built.MaterializeAllPairs();
  row.build_seconds = build_timer.Seconds();
  row.pairs = built.CachedPairCount();

  Timer save_timer;
  std::string error;
  if (!SaveSnapshot(built, snap_path, &error)) {
    std::fprintf(stderr, "snapshot save failed: %s\n", error.c_str());
    return row;
  }
  row.save_seconds = save_timer.Seconds();

  Timer load_timer;
  auto loaded = LoadSnapshot(snap_path, &error);
  row.load_seconds = load_timer.Seconds();
  if (!loaded) {
    std::fprintf(stderr, "snapshot load failed: %s\n", error.c_str());
    return row;
  }
  row.load_over_build = row.build_seconds > 0 ? row.load_seconds / row.build_seconds : 0;
  row.snapshot_bytes = loaded->snapshot_bytes;
  row.mapped = loaded->mapped;

  BatchRunner seq(1);
  BatchResult from_built = seq.RunL2pBatch(pg.graph, built, queries, params, {});
  BatchResult from_loaded =
      seq.RunL2pBatch(*loaded->graph, *loaded->index, queries, params, {});
  row.identical = SameCommunities(from_built, from_loaded);

  if (!keep_snapshot) std::remove(snap_path.c_str());
  if (out_graph != nullptr) *out_graph = std::move(pg);
  if (out_queries != nullptr) *out_queries = std::move(queries);
  return row;
}

/// Incremental repair vs full rebuild for one random mixed edge-update
/// batch on the big index graph. The base index (all pairs materialized) is
/// shared by reference; each call leaves it untouched.
UpdateBatchRow MeasureUpdateBatch(const PlantedGraph& pg, const BcIndex& base,
                                  std::size_t batch_size, std::uint64_t seed) {
  UpdateBatchRow row;
  const LabeledGraph& g = pg.graph;
  std::mt19937_64 rng(seed);
  std::vector<EdgeUpdate> updates = MakeMixedBatch(g, batch_size, rng);
  row.updates = updates.size();

  const auto delta = BuildGraphDelta(g, updates);
  if (!delta) {
    std::fprintf(stderr, "update batch did not validate\n");
    return row;
  }
  const LabeledGraph updated = ApplyGraphDelta(g, *delta);

  Timer incremental_timer;
  const auto repaired = base.ApplyUpdates(updated, *delta, {}, &row.repair);
  row.incremental_seconds = incremental_timer.Seconds();

  Timer rebuild_timer;
  BcIndex rebuilt(updated);
  rebuilt.MaterializeAllPairs();
  row.rebuild_seconds = rebuild_timer.Seconds();
  row.speedup =
      row.incremental_seconds > 0 ? row.rebuild_seconds / row.incremental_seconds : 0;

  row.identical = true;
  for (VertexId v = 0; v < updated.NumVertices(); ++v) {
    row.identical = row.identical && repaired->Coreness(v) == rebuilt.Coreness(v);
  }
  repaired->ForEachCachedPair([&](Label a, Label b, const ButterflyCounts& counts) {
    const auto want_pin = rebuilt.PairButterflies(a, b);
    const ButterflyCounts& want = *want_pin;
    row.identical = row.identical && counts.total == want.total &&
                    counts.max_left == want.max_left && counts.max_right == want.max_right &&
                    counts.argmax_left == want.argmax_left &&
                    counts.argmax_right == want.argmax_right && counts.chi == want.chi;
  });
  return row;
}

/// Recovery-time story for the durability layer: saves the base index to a
/// scratch snapshot, appends `batches` mixed update batches to a rotated
/// changelog (segment_blocks = 1, so every batch lands in its own sealed
/// segment — the worst case for replay), then times (i) the bare base load,
/// (ii) the full recovery load that replays every segment, and (iii) the
/// load after a forced compaction fold collapsed the segments into a new
/// base. Answers from the replayed and the folded state must be identical.
RecoveryRow MeasureRecovery(const PlantedGraph& pg, const BcIndex& base,
                            std::span<const BccQuery> queries, const std::string& out_path,
                            std::size_t batches, std::size_t batch_size,
                            std::uint64_t seed) {
  RecoveryRow row;
  const std::string snap_path = out_path + ".recovery.snapshot";
  std::string error;
  std::remove(snap_path.c_str());
  RemoveChangelogSegments(snap_path);
  if (!SaveSnapshot(base, snap_path, &error)) {
    std::fprintf(stderr, "recovery bench: snapshot save failed: %s\n", error.c_str());
    return row;
  }

  ChangelogOptions copts;
  copts.fsync = FsyncPolicy::kOnRotation;
  copts.segment_blocks = 1;
  std::unique_ptr<Changelog> log = Changelog::Open(snap_path, 0, copts, nullptr, &error);
  if (log == nullptr) {
    std::fprintf(stderr, "recovery bench: changelog open failed: %s\n", error.c_str());
    return row;
  }

  std::mt19937_64 rng(seed);
  auto cur = std::make_shared<LabeledGraph>(pg.graph);
  for (std::size_t i = 0; i < batches; ++i) {
    std::vector<EdgeUpdate> updates = MakeMixedBatch(*cur, batch_size, rng);
    const auto delta = BuildGraphDelta(*cur, updates);
    if (!delta) {
      std::fprintf(stderr, "recovery bench: batch %zu did not validate\n", i);
      return row;
    }
    {
      MutexLock commit(log->commit_mutex());
      if (!log->Append(updates, {}, &error)) {
        std::fprintf(stderr, "recovery bench: append failed: %s\n", error.c_str());
        return row;
      }
    }
    cur = std::make_shared<LabeledGraph>(ApplyGraphDelta(*cur, *delta));
    row.batches++;
    row.appended_updates += updates.size();
  }
  {
    MutexLock commit(log->commit_mutex());
    row.live_segments = log->sealed_segments();
  }

  Timer base_timer;
  SnapshotLoadOptions bare;
  bare.replay_changelog = false;
  auto base_bundle = LoadSnapshot(snap_path, &error, bare);
  row.base_load_seconds = base_timer.Seconds();
  if (!base_bundle) {
    std::fprintf(stderr, "recovery bench: bare load failed: %s\n", error.c_str());
    return row;
  }

  Timer replay_timer;
  auto replayed = LoadSnapshot(snap_path, &error);
  row.replay_load_seconds = replay_timer.Seconds();
  if (!replayed || replayed->replayed_updates != row.appended_updates) {
    std::fprintf(stderr, "recovery bench: replay load failed (%s, replayed %zu of %zu)\n",
                 error.c_str(), replayed ? replayed->replayed_updates : 0,
                 row.appended_updates);
    return row;
  }
  row.replay_over_base =
      row.base_load_seconds > 0 ? row.replay_load_seconds / row.base_load_seconds : 0;

  // The fold serializes an already-materialized serving state (in the serve
  // engine the index is repaired incrementally), so build it outside the
  // fold timer.
  auto folded_index = std::make_shared<BcIndex>(*cur);
  folded_index->MaterializeAllPairs();
  Compactor compactor(*log, [&] {
    return Compactor::State{cur, folded_index, SourceGraphInfo{}};
  });
  Timer fold_timer;
  if (!compactor.RunOnce(/*force=*/true, &error)) {
    std::fprintf(stderr, "recovery bench: fold failed: %s\n", error.c_str());
    return row;
  }
  row.fold_seconds = fold_timer.Seconds();

  Timer compacted_timer;
  auto compacted = LoadSnapshot(snap_path, &error);
  row.compacted_load_seconds = compacted_timer.Seconds();
  if (!compacted || compacted->replayed_updates != 0 || compacted->changelog_segments != 0) {
    std::fprintf(stderr, "recovery bench: compacted load failed: %s\n", error.c_str());
    return row;
  }

  const BccParams params;
  BatchRunner seq(1);
  BatchResult from_replay =
      seq.RunL2pBatch(*replayed->graph, *replayed->index, queries, params, {});
  BatchResult from_fold =
      seq.RunL2pBatch(*compacted->graph, *compacted->index, queries, params, {});
  row.identical = SameCommunities(from_replay, from_fold);

  log.reset();
  std::remove(snap_path.c_str());
  RemoveChangelogSegments(snap_path);
  return row;
}

/// The streaming serve loop under a saturating mixed stream: a deep bulk
/// backlog, interleaved interactive queries, and one edge-update batch in
/// the middle. Measures interactive sojourn p95 with and without the bulk
/// in-flight cap, and the update's admission->publish latency against a
/// PR 4-style barrier emulation (every query ahead of the update flushed
/// before it applies, every query behind it held back).
StreamingRow MeasureStreaming(const PlantedGraph& pg, std::span<const BccQuery> queries,
                              std::size_t threads) {
  StreamingRow row;
  std::vector<Edge> edges = pg.graph.AllEdges();

  // The stream: 6x bulk tiling saturates the pool; every 4th item is
  // interactive; one deletion+reinsert update batch lands mid-stream.
  std::vector<ServeItem> items;
  std::vector<int> lane_of;  // mirrors items: 0 interactive, 1 bulk, -1 update
  for (std::size_t rep = 0; rep < 6; ++rep) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      QueryRequest req;
      req.query = queries[i];
      req.method = QueryMethod::kLpBcc;
      req.lane = items.size() % 4 == 0 ? Lane::kInteractive : Lane::kBulk;
      req.request_id = items.size() + 1;
      lane_of.push_back(req.lane == Lane::kInteractive ? 0 : 1);
      items.emplace_back(req);
    }
  }
  UpdateRequest update;
  update.updates.push_back({EdgeUpdateKind::kDelete, edges[0]});
  update.updates.push_back({EdgeUpdateKind::kInsert, edges[0]});
  const std::size_t update_index = items.size() / 2;
  items.insert(items.begin() + static_cast<std::ptrdiff_t>(update_index), ServeItem(update));
  lane_of.insert(lane_of.begin() + static_cast<std::ptrdiff_t>(update_index), -1);
  row.interactive_queries = static_cast<std::size_t>(
      std::count(lane_of.begin(), lane_of.end(), 0));
  row.bulk_queries = static_cast<std::size_t>(std::count(lane_of.begin(), lane_of.end(), 1));
  row.bulk_cap = std::max<std::size_t>(1, threads / 2);

  // Same nearest-rank rule as every other percentile in the report.
  auto interactive_p95 = [&](const BatchResult& r) {
    std::vector<double> sojourn;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (lane_of[i] == 0) sojourn.push_back(r.sojourn_seconds[i]);
    }
    return SummarizeLatency(sojourn, 0).p95_seconds;
  };

  BatchRunner runner(threads);

  ServeEngine uncapped_engine(runner, pg.graph);
  uncapped_engine.RunStream(items);  // warm-up
  Timer uncapped_timer;
  BatchResult uncapped = uncapped_engine.RunStream(items);
  row.stream_wall_seconds = uncapped_timer.Seconds();
  row.uncapped_interactive_p95 = interactive_p95(uncapped);
  row.stream_update_sojourn = uncapped.sojourn_seconds[update_index];
  for (const LaneSummary& lane : uncapped.lanes) {
    if (lane.lane == Lane::kBulk) row.uncapped_max_bulk_inflight = lane.max_inflight;
  }

  ServeOptions capped_opts;
  capped_opts.caps.bulk = row.bulk_cap;
  ServeEngine capped_engine(runner, pg.graph, nullptr, capped_opts);
  capped_engine.RunStream(items);  // warm-up
  BatchResult capped = capped_engine.RunStream(items);
  row.capped_interactive_p95 = interactive_p95(capped);
  for (const LaneSummary& lane : capped.lanes) {
    if (lane.lane == Lane::kBulk) row.capped_max_bulk_inflight = lane.max_inflight;
  }

  // Barrier emulation (the PR 4 behavior): flush every query ahead of the
  // update, apply it alone, then run the tail — the update's sojourn pays
  // the whole leading segment.
  ServeEngine barrier_engine(runner, pg.graph);
  std::vector<ServeItem> head(items.begin(),
                              items.begin() + static_cast<std::ptrdiff_t>(update_index));
  std::vector<ServeItem> mid(items.begin() + static_cast<std::ptrdiff_t>(update_index),
                             items.begin() + static_cast<std::ptrdiff_t>(update_index) + 1);
  std::vector<ServeItem> tail(items.begin() + static_cast<std::ptrdiff_t>(update_index) + 1,
                              items.end());
  barrier_engine.RunStream(head);  // warm-up on the same state
  ServeEngine barrier_run(runner, pg.graph);
  Timer barrier_timer;
  BatchResult b_head = barrier_run.RunStream(head);
  BatchResult b_mid = barrier_run.RunStream(mid);
  BatchResult b_tail = barrier_run.RunStream(tail);
  row.barrier_wall_seconds = barrier_timer.Seconds();
  // The barrier update could not start before the whole head segment
  // flushed: its admission->publish latency is that flush plus its own
  // preparation.
  row.barrier_update_sojourn = b_head.latency.wall_seconds + b_mid.sojourn_seconds[0];

  // Answers must agree across capped/uncapped/barrier execution.
  row.identical = true;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (lane_of[i] == -1) continue;
    const Community& u = uncapped.communities[i];
    row.identical = row.identical && u.vertices == capped.communities[i].vertices;
    const Community& b = i < update_index ? b_head.communities[i]
                                          : b_tail.communities[i - update_index - 1];
    row.identical = row.identical && u.vertices == b.vertices;
  }
  row.capped_p95_bounded =
      row.capped_interactive_p95 <= row.uncapped_interactive_p95 * 1.5 + 0.005;
  row.update_publish_faster = row.stream_update_sojourn <= row.barrier_update_sojourn;
  return row;
}

/// Mixed interactive/bulk batch through the unified serving engine: the
/// per-lane sojourn percentiles the two-lane scheduler exists for.
ServingRow MeasureServing(const PlantedGraph& pg, std::span<const BccQuery> queries,
                          std::size_t threads) {
  ServingRow row;
  std::vector<QueryRequest> requests;
  for (std::size_t rep = 0; rep < 4; ++rep) {
    for (const BccQuery& q : queries) {
      QueryRequest req;
      req.query = q;
      req.method = QueryMethod::kLpBcc;
      req.lane = requests.size() % 2 == 0 ? Lane::kInteractive : Lane::kBulk;
      requests.push_back(req);
    }
  }
  BatchRunner runner(threads);
  ServeEngine engine(runner, pg.graph);
  row.aging_period = engine.options().aging_period;
  engine.Serve(requests);  // warm-up
  Timer wall;
  BatchResult result = engine.Serve(requests);
  row.wall_seconds = wall.Seconds();
  row.timed_out = result.timed_out;
  for (const LaneSummary& lane : result.lanes) {
    if (lane.lane == Lane::kInteractive) {
      row.interactive_queries = lane.queries;
      row.interactive_p50 = lane.latency.p50_seconds;
      row.interactive_p99 = lane.latency.p99_seconds;
    } else {
      row.bulk_queries = lane.queries;
      row.bulk_p50 = lane.latency.p50_seconds;
      row.bulk_p99 = lane.latency.p99_seconds;
    }
  }
  row.interactive_ahead = row.interactive_p99 < row.bulk_p99;
  return row;
}

/// The socket front-end under sustained load: `kConnections` loopback TCP
/// clients, each a closed loop of `kPerConn` queries (every 3rd
/// interactive), against the in-process Serve() of the identical flattened
/// workload on the same worker pool. Identity is exact-wire: each socket
/// response line must equal FormatQueryResponse(id, 1, community) for the
/// in-process community — a query-only workload never advances the epoch,
/// so every response must report epoch 1.
NetworkRow MeasureNetwork(const PlantedGraph& pg, std::span<const BccQuery> queries,
                          std::size_t threads) {
  NetworkRow row;
  const std::size_t kConnections = 104;
  const std::size_t kPerConn = 6;
  row.connections = kConnections;
  row.requests = kConnections * kPerConn;
  auto interactive_slot = [](std::size_t r) { return r % 3 == 0; };

  // In-process baseline: the identical workload, flattened in connection
  // order, through Serve() on the same-width pool. Its communities are also
  // the identity reference for the wire responses.
  std::vector<QueryRequest> flat;
  flat.reserve(kConnections * kPerConn);
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (std::size_t r = 0; r < kPerConn; ++r) {
      QueryRequest req;
      req.query = queries[(c * kPerConn + r) % queries.size()];
      req.method = QueryMethod::kLpBcc;
      req.lane = interactive_slot(r) ? Lane::kInteractive : Lane::kBulk;
      req.request_id = flat.size() + 1;
      flat.push_back(req);
    }
  }
  BatchRunner runner(threads);
  ServeEngine base_engine(runner, pg.graph);
  base_engine.Serve(flat);  // warm-up
  Timer base_timer;
  BatchResult base = base_engine.Serve(flat);
  row.baseline_wall_seconds = base_timer.Seconds();
  row.baseline_qps = row.baseline_wall_seconds > 0
                         ? static_cast<double>(flat.size()) / row.baseline_wall_seconds
                         : 0;
  std::vector<double> base_interactive;
  std::vector<std::string> expected(flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    if (interactive_slot(i % kPerConn)) base_interactive.push_back(base.sojourn_seconds[i]);
    expected[i] = FormatQueryResponse(i + 1, /*epoch=*/1, base.communities[i]);
  }
  row.baseline_interactive_p95 = SummarizeLatency(base_interactive, 0).p95_seconds;

  // The server proper, on its own engine over the same pool.
  ServeEngine net_engine(runner, pg.graph);
  NetServerOptions nopts;
  nopts.max_connections = kConnections + 8;
  nopts.query_proto.method = QueryMethod::kLpBcc;
  NetServer server(net_engine, nopts);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "network bench: %s\n", error.c_str());
    return row;
  }
  const int port = server.port();
  std::thread loop([&] { server.Run(); });

  // Connect everything before the clock starts so the timed window measures
  // request service, not the accept ramp.
  std::vector<NetClient> clients(kConnections);
  bool connected = true;
  for (NetClient& cli : clients) {
    connected = connected && cli.Connect("127.0.0.1", port, &error);
  }
  if (!connected) {
    std::fprintf(stderr, "network bench: connect failed: %s\n", error.c_str());
    server.RequestShutdown();
    loop.join();
    return row;
  }

  std::vector<std::vector<double>> interactive_lat(kConnections);
  std::vector<std::size_t> answered(kConnections, 0);
  std::vector<char> wire_ok(kConnections, 1);
  Timer net_timer;
  std::vector<std::thread> workers;
  workers.reserve(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    workers.emplace_back([&, c] {
      NetClient& cli = clients[c];
      std::string line;
      for (std::size_t r = 0; r < kPerConn; ++r) {
        const std::size_t gid = c * kPerConn + r + 1;
        const BccQuery& q = std::get<BccQuery>(flat[gid - 1].query);
        std::string request = "q " + std::to_string(q.ql) + " " + std::to_string(q.qr) +
                              (interactive_slot(r) ? " interactive" : " bulk") +
                              " id=" + std::to_string(gid);
        Timer round_trip;
        if (!cli.SendLine(request) || !cli.ReadLine(&line, 120.0)) {
          wire_ok[c] = 0;
          return;
        }
        if (line != expected[gid - 1]) wire_ok[c] = 0;
        ++answered[c];
        if (interactive_slot(r)) interactive_lat[c].push_back(round_trip.Seconds());
      }
      cli.Close();
    });
  }
  for (std::thread& t : workers) t.join();
  row.net_wall_seconds = net_timer.Seconds();
  server.RequestShutdown();
  loop.join();

  std::size_t total_answered = 0;
  row.identical = true;
  std::vector<double> net_interactive;
  for (std::size_t c = 0; c < kConnections; ++c) {
    total_answered += answered[c];
    row.identical = row.identical && wire_ok[c] != 0;
    net_interactive.insert(net_interactive.end(), interactive_lat[c].begin(),
                           interactive_lat[c].end());
  }
  row.identical = row.identical && total_answered == row.requests;
  row.interactive_requests = net_interactive.size();
  row.net_qps = row.net_wall_seconds > 0
                    ? static_cast<double>(total_answered) / row.net_wall_seconds
                    : 0;
  row.net_interactive_p95 = SummarizeLatency(net_interactive, 0).p95_seconds;
  row.net_over_baseline = row.baseline_wall_seconds > 0
                              ? row.net_wall_seconds / row.baseline_wall_seconds
                              : 0;
  return row;
}

/// One entry of the generated trace: a serve item plus its open-loop
/// arrival offset from trace start.
struct TraceItem {
  ServeItem item;
  double arrival_seconds = 0;
};

/// Seeded Zipfian rank sampler over [0, n): weight of rank r is 1/(r+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Result-cache trace replay plus block-cache eviction pressure.
///
/// The trace: ~512 LP-BCC requests Zipf(s=1.0)-distributed over the query
/// pool, open-loop exponential arrivals (~0.3s total), with four update
/// bursts that delete an edge and reinsert it a burst later — so answers
/// really change between epochs and the invalidation path runs. The same
/// trace replays against a cache-off engine and a cold cache-on engine;
/// identical admission order makes communities and epoch_of comparable bit
/// for bit.
CachingRow MeasureCaching(const PlantedGraph& pg, std::span<const BccQuery> queries,
                          std::size_t threads) {
  CachingRow row;
  row.distinct_queries = queries.size();
  std::mt19937_64 rng(2026);
  ZipfSampler zipf(queries.size(), 1.0);
  std::exponential_distribution<double> interarrival(1.0 / 0.0006);

  std::vector<Edge> edges = pg.graph.AllEdges();
  std::shuffle(edges.begin(), edges.end(), rng);

  const std::size_t kRequests = 512;
  const std::size_t kBurstEvery = kRequests / 4;  // 4 bursts, evenly spaced
  std::vector<TraceItem> trace;
  double arrival = 0;
  std::size_t burst = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (i > 0 && i % kBurstEvery == 0) {
      // Burst k reinserts burst k-1's edge and deletes a fresh one; the
      // final burst only reinserts, so the stream ends on the seed graph.
      UpdateRequest update;
      if (burst > 0) update.updates.push_back({EdgeUpdateKind::kInsert, edges[burst - 1]});
      if (burst + 1 < kRequests / kBurstEvery) {
        update.updates.push_back({EdgeUpdateKind::kDelete, edges[burst]});
      }
      arrival += interarrival(rng);
      trace.push_back({ServeItem(update), arrival});
      ++burst;
      ++row.update_bursts;
    }
    QueryRequest req;
    req.query = queries[zipf(rng)];
    req.method = QueryMethod::kLpBcc;
    req.lane = i % 4 == 0 ? Lane::kInteractive : Lane::kBulk;
    arrival += interarrival(rng);
    trace.push_back({ServeItem(req), arrival});
    ++row.trace_requests;
  }

  BatchRunner runner(threads);
  auto replay = [&](ServeEngine& engine) {
    ServeEngine::Stream stream = engine.OpenStream();
    const auto start = std::chrono::steady_clock::now();
    for (const TraceItem& t : trace) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(t.arrival_seconds)));
      stream.Submit(t.item);
    }
    return stream.Finish();
  };
  auto query_latency = [&](const BatchResult& r) {
    std::vector<double> exec;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (std::holds_alternative<QueryRequest>(trace[i].item)) exec.push_back(r.seconds[i]);
    }
    return SummarizeLatency(exec, 0);
  };

  {
    ServeEngine warm(runner, pg.graph);  // code/memory warm-up, discarded
    replay(warm);
  }
  ServeEngine uncached_engine(runner, pg.graph);
  BatchResult uncached = replay(uncached_engine);
  const BatchLatency uncached_lat = query_latency(uncached);
  row.uncached_p50 = uncached_lat.p50_seconds;
  row.uncached_p95 = uncached_lat.p95_seconds;

  ServeOptions cached_opts;
  cached_opts.result_cache_entries = 256;
  ServeEngine cached_engine(runner, pg.graph, nullptr, cached_opts);
  BatchResult cached = replay(cached_engine);  // cold cache: misses then hits
  const BatchLatency cached_lat = query_latency(cached);
  row.cached_p50 = cached_lat.p50_seconds;
  row.cached_p95 = cached_lat.p95_seconds;

  const ResultCacheStats rc = cached.result_cache;
  row.hits = rc.hits;
  row.misses = rc.misses;
  row.stale_drops = rc.stale_drops;
  row.evictions = rc.evictions;
  row.hit_rate = rc.hits + rc.misses > 0
                     ? static_cast<double>(rc.hits) / static_cast<double>(rc.hits + rc.misses)
                     : 0;
  row.identical_to_uncached =
      SameCommunities(uncached, cached) && uncached.epoch_of == cached.epoch_of;
  row.cached_p50_faster = row.cached_p50 <= row.uncached_p50 * 0.9;

  // Block-cache pressure: a label-rich planted graph (8 labels, 28 cross
  // pairs) served lazily through a budget of ~3.5 pair blocks, against an
  // unbounded reference. Every access must return the exact counts and
  // leave the cache within budget.
  PlantedConfig bcfg;
  bcfg.num_communities = 12;
  bcfg.groups_per_community = 4;
  bcfg.num_labels = 8;
  bcfg.mixed_group_counts = true;
  bcfg.min_group_size = 10;
  bcfg.max_group_size = 14;
  bcfg.seed = 21;
  PlantedGraph bpg = GeneratePlanted(bcfg);
  BcIndex ref(bpg.graph);
  BcIndex capped(bpg.graph);

  std::vector<std::pair<Label, Label>> pairs;
  const auto num_labels = static_cast<Label>(bpg.graph.NumLabels());
  for (Label a = 0; a + 1 < num_labels; ++a) {
    for (Label b = a + 1; b < num_labels; ++b) pairs.emplace_back(a, b);
  }
  std::shuffle(pairs.begin(), pairs.end(), rng);  // decorrelate rank from label order

  capped.PairButterflies(pairs[0].first, pairs[0].second);  // size one block
  const std::size_t entry_bytes = capped.PairCacheStats().bytes;
  row.block_budget_bytes = entry_bytes * 7 / 2;
  capped.SetPairCacheBudget(row.block_budget_bytes);

  ZipfSampler pair_zipf(pairs.size(), 1.0);
  row.block_identical = true;
  row.block_within_budget = true;
  for (std::size_t access = 0; access < 256; ++access) {
    const auto [a, b] = pairs[pair_zipf(rng)];
    const auto got = capped.PairButterflies(a, b);
    const auto want = ref.PairButterflies(a, b);
    row.block_identical = row.block_identical && got->total == want->total &&
                          got->chi == want->chi && got->max_left == want->max_left &&
                          got->max_right == want->max_right;
    row.block_within_budget =
        row.block_within_budget && capped.PairCacheStats().bytes <= row.block_budget_bytes;
  }
  const BlockCacheStats bs = capped.PairCacheStats();
  row.block_bytes = bs.bytes;
  row.block_hits = bs.hits;
  row.block_misses = bs.misses;
  row.block_evictions = bs.evictions;
  return row;
}

}  // namespace

/// Seeded queries peeled to convergence in online mode with the incremental
/// counter on vs off. The workload is a two-label Erdos-Renyi graph: the
/// homogeneous edges give auto-k a real core so Find-G0 returns the whole
/// k-core component, and the heterogeneous edges carry enough butterflies
/// that a threshold b near the typical chi drives an onion-shaped cascade —
/// every round removes the current chi tail and needs an exact validity
/// check over the survivors. With the flag off each round pays a full
/// O(alive wedges) recount; the counter's debit walk is O(wedges through
/// the removed batch), so the whole peel costs about one recount. Both runs
/// are sequential so the stage timers are comparable, and the communities
/// must be bit-identical.
PeelingRow MeasurePeeling(std::size_t n, double avg_degree, std::uint64_t b,
                          std::size_t num_queries) {
  LabeledGraph g = GenerateErdosRenyi(n, avg_degree, /*num_labels=*/2, /*seed=*/1013);
  // Any (label-0, label-1) pair works as a query: the candidate is the whole
  // k-core component either way, which is what the peel stresses.
  std::vector<BccQuery> queries;
  VertexId ql = kInvalidVertex, qr = kInvalidVertex;
  const auto num_vertices = static_cast<VertexId>(g.NumVertices());
  for (VertexId v = 0; v < num_vertices && queries.size() < num_queries; ++v) {
    if (g.LabelOf(v) == 0 && ql == kInvalidVertex) ql = v;
    if (g.LabelOf(v) == 1 && qr == kInvalidVertex) qr = v;
    if (ql != kInvalidVertex && qr != kInvalidVertex) {
      queries.push_back(BccQuery{ql, qr});
      ql = qr = kInvalidVertex;
    }
  }

  PeelingRow row;
  row.queries = queries.size();
  BccParams params;  // auto k: the query vertex's coreness in its label group
  params.b = b;      // threshold near typical chi -> a long peel
  SearchOptions on = OnlineBccOptions();
  // Single-vertex deletion: one exact validity check per removed vertex, the
  // fine-grained peel where per-round recounts are at their worst.
  on.bulk_delete = false;
  SearchOptions off = on;
  off.incremental_butterflies = false;

  BatchRunner seq(1);
  seq.RunBccBatch(g, queries, params, on);  // warm-up
  BatchResult r_on = seq.RunBccBatch(g, queries, params, on);
  seq.RunBccBatch(g, queries, params, off);
  BatchResult r_off = seq.RunBccBatch(g, queries, params, off);

  const SearchStats s_on = SumStats(r_on);
  const SearchStats s_off = SumStats(r_off);
  row.incremental_wall_seconds = r_on.latency.wall_seconds;
  row.recount_wall_seconds = r_off.latency.wall_seconds;
  row.incremental_butterfly_seconds =
      s_on.butterfly_seconds + s_on.butterfly_delta_seconds;
  row.recount_butterfly_seconds =
      s_off.butterfly_seconds + s_off.butterfly_delta_seconds;
  row.speedup = row.incremental_butterfly_seconds > 0
                    ? row.recount_butterfly_seconds / row.incremental_butterfly_seconds
                    : 0;
  row.wall_speedup = row.incremental_wall_seconds > 0
                         ? row.recount_wall_seconds / row.incremental_wall_seconds
                         : 0;
  row.incremental_counting_calls = s_on.butterfly_counting_calls;
  row.recount_counting_calls = s_off.butterfly_counting_calls;
  row.delta_rounds = s_on.delta_rounds;
  row.delta_fallbacks = s_on.delta_fallbacks;
  row.identical_to_recount = SameCommunities(r_on, r_off);
  return row;
}

int main(int argc, char** argv) {
  ArgParser args = ArgParser::Parse(argc, argv);
  const std::string out_path = args.GetStringOr("out", "BENCH_PR10.json");
  const auto num_queries = static_cast<std::size_t>(args.GetIntOr("queries", 64));
  const auto par_threads = static_cast<std::size_t>(args.GetIntOr("threads", 0));

  PlantedConfig cfg;
  cfg.num_communities = static_cast<std::size_t>(args.GetIntOr("communities", 24));
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.mixed_group_counts = true;
  cfg.min_group_size = 14;
  cfg.max_group_size = static_cast<std::size_t>(args.GetIntOr("group-size", 24));
  cfg.seed = 7;
  PlantedGraph pg = GeneratePlanted(cfg);
  const std::size_t n = pg.graph.NumVertices();
  std::printf("perf_smoke: graph %zu vertices, %zu edges, %zu labels\n", n,
              pg.graph.NumEdges(), pg.graph.NumLabels());

  QueryGenConfig qcfg;
  std::vector<GroundTruthQuery> gt = SampleGroundTruthQueries(pg, num_queries, qcfg);
  std::vector<BccQuery> queries;
  for (const auto& g : gt) queries.push_back(g.query);
  std::vector<MbccGroundTruthQuery> mgt = SampleMbccGroundTruthQueries(pg, 3, num_queries, 11);
  std::vector<MbccQuery> mqueries;
  for (const auto& g : mgt) mqueries.push_back(g.query);

  // --serving-only: just the two-lane serving block, emitted as a minimal
  // JSON. run_bench.sh runs this twice — once from the normal tree and once
  // from a BCCS_STRIP_CHECKS build — to price the always-on BCCS_CHECKs.
  if (args.Has("serving-only")) {
    BatchRunner par_only(par_threads);
    ServingRow serving = MeasureServing(pg, queries, par_only.NumThreads());
    std::printf("serving     wall=%.4fs  interactive p99=%.4fs  bulk p99=%.4fs\n",
                serving.wall_seconds, serving.interactive_p99, serving.bulk_p99);
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"serving\": {\n    \"wall_seconds\": %.6f,\n"
                 "    \"interactive_p99_seconds\": %.6f,\n"
                 "    \"bulk_p99_seconds\": %.6f,\n"
                 "    \"checks_compiled_in\": %s\n  }\n}\n",
                 serving.wall_seconds, serving.interactive_p99, serving.bulk_p99,
#ifdef BCCS_STRIP_CHECKS_FOR_BENCH
                 "false"
#else
                 "true"
#endif
    );
    std::fclose(f);
    return 0;
  }

  BccParams params;  // auto k, b = 1
  MbccParams mparams;

  BatchRunner seq(1);
  BatchRunner par(par_threads);
  std::printf("parallel workers: %zu\n", par.NumThreads());

  std::vector<MethodRow> rows;

  auto run_bcc = [&](const char* name, const SearchOptions& opts) {
    MethodRow row;
    row.name = name;
    row.queries = queries.size();
    BatchResult warmup = seq.RunBccBatch(pg.graph, queries, params, opts);
    const std::uint64_t warm_inits = seq.AggregateWorkspaceStats().bulk_inits;
    BatchResult s = seq.RunBccBatch(pg.graph, queries, params, opts);
    row.steady_bulk_inits = seq.AggregateWorkspaceStats().bulk_inits - warm_inits;
    par.RunBccBatch(pg.graph, queries, params, opts);  // parallel warm-up
    BatchResult p = par.RunBccBatch(pg.graph, queries, params, opts);
    row.seq_qps = s.latency.qps;
    row.par_qps = p.latency.qps;
    row.speedup = s.latency.qps > 0 ? p.latency.qps / s.latency.qps : 0;
    row.p50 = p.latency.p50_seconds;
    row.p99 = p.latency.p99_seconds;
    row.identical = SameCommunities(s, p) && SameCommunities(s, warmup);
    row.stage = SumStats(s);
    rows.push_back(row);
  };
  run_bcc("LP-BCC", LpBccOptions());
  run_bcc("Online-BCC", OnlineBccOptions());

  {
    MethodRow row;
    row.name = "MBCC-LP";
    row.queries = mqueries.size();
    BatchResult warmup = seq.RunMbccBatch(pg.graph, mqueries, mparams, LpBccOptions());
    const std::uint64_t warm_inits = seq.AggregateWorkspaceStats().bulk_inits;
    BatchResult s = seq.RunMbccBatch(pg.graph, mqueries, mparams, LpBccOptions());
    row.steady_bulk_inits = seq.AggregateWorkspaceStats().bulk_inits - warm_inits;
    par.RunMbccBatch(pg.graph, mqueries, mparams, LpBccOptions());
    BatchResult p = par.RunMbccBatch(pg.graph, mqueries, mparams, LpBccOptions());
    row.seq_qps = s.latency.qps;
    row.par_qps = p.latency.qps;
    row.speedup = s.latency.qps > 0 ? p.latency.qps / s.latency.qps : 0;
    row.p50 = p.latency.p50_seconds;
    row.p99 = p.latency.p99_seconds;
    row.identical = SameCommunities(s, p) && SameCommunities(s, warmup);
    row.stage = SumStats(s);
    rows.push_back(row);
  }

  for (const MethodRow& r : rows) {
    std::printf(
        "%-10s  seq=%8.1f qps  par=%8.1f qps  speedup=%.2fx  p50=%.4fs p99=%.4fs  "
        "identical=%s  steady_bulk_inits=%llu\n",
        r.name.c_str(), r.seq_qps, r.par_qps, r.speedup, r.p50, r.p99,
        r.identical ? "yes" : "NO", static_cast<unsigned long long>(r.steady_bulk_inits));
  }

  ServingRow serving = MeasureServing(pg, queries, par.NumThreads());
  std::printf(
      "serving     interactive p50=%.4fs p99=%.4fs | bulk p50=%.4fs p99=%.4fs  "
      "aging=%zu  interactive_ahead=%s\n",
      serving.interactive_p50, serving.interactive_p99, serving.bulk_p50, serving.bulk_p99,
      serving.aging_period, serving.interactive_ahead ? "yes" : "NO");

  StreamingRow streaming = MeasureStreaming(pg, queries, par.NumThreads());
  std::printf(
      "streaming   interactive p95 uncapped=%.4fs capped=%.4fs (bulk cap %zu, "
      "max inflight %zu->%zu)  update publish stream=%.4fs barrier=%.4fs  identical=%s\n",
      streaming.uncapped_interactive_p95, streaming.capped_interactive_p95,
      streaming.bulk_cap, streaming.uncapped_max_bulk_inflight,
      streaming.capped_max_bulk_inflight, streaming.stream_update_sojourn,
      streaming.barrier_update_sojourn, streaming.identical ? "yes" : "NO");

  CachingRow caching = MeasureCaching(pg, queries, par.NumThreads());
  std::printf(
      "caching     hits=%llu/%llu (%.1f%%) stale=%llu  p50 uncached=%.4fs cached=%.4fs  "
      "identical=%s | block budget=%zu bytes=%zu evictions=%llu within=%s identical=%s\n",
      static_cast<unsigned long long>(caching.hits),
      static_cast<unsigned long long>(caching.hits + caching.misses),
      100.0 * caching.hit_rate, static_cast<unsigned long long>(caching.stale_drops),
      caching.uncached_p50, caching.cached_p50,
      caching.identical_to_uncached ? "yes" : "NO", caching.block_budget_bytes,
      caching.block_bytes, static_cast<unsigned long long>(caching.block_evictions),
      caching.block_within_budget ? "yes" : "NO", caching.block_identical ? "yes" : "NO");

  NetworkRow network = MeasureNetwork(pg, queries, par.NumThreads());
  std::printf(
      "network     %zu conns x %zu req  net=%.1f qps (interactive p95=%.4fs)  "
      "in-process=%.1f qps (p95=%.4fs)  overhead=%.2fx  identical=%s\n",
      network.connections, network.requests / std::max<std::size_t>(1, network.connections),
      network.net_qps, network.net_interactive_p95, network.baseline_qps,
      network.baseline_interactive_p95, network.net_over_baseline,
      network.identical ? "yes" : "NO");

  PlantedGraph big_graph;
  std::vector<BccQuery> big_queries;
  IndexRow index = MeasureSnapshotColdStart(
      static_cast<std::size_t>(args.GetIntOr("index-communities", 48)), out_path,
      args.Has("keep-snapshot"), &big_graph, &big_queries);
  std::printf(
      "index       build=%.4fs save=%.4fs load=%.4fs (%.1f%% of build)  %zu pairs  "
      "%zu bytes  mmap=%s  identical=%s\n",
      index.build_seconds, index.save_seconds, index.load_seconds,
      100.0 * index.load_over_build, index.pairs, index.snapshot_bytes,
      index.mapped ? "yes" : "no", index.identical ? "yes" : "NO");

  // The incremental peel counter under a long butterfly-driven cascade
  // (candidate = the whole bipartite component, peeled down round by round).
  PeelingRow peeling =
      MeasurePeeling(static_cast<std::size_t>(args.GetIntOr("peel-n", 1000)),
                     /*avg_degree=*/16.0,
                     static_cast<std::uint64_t>(args.GetIntOr("peel-b", 8)),
                     /*num_queries=*/8);
  std::printf(
      "peeling     butterfly recount=%.4fs incremental=%.4fs speedup=%.2fx "
      "(wall %.2fx)  calls=%zu->%zu  delta_rounds=%zu fallbacks=%zu  identical=%s\n",
      peeling.recount_butterfly_seconds, peeling.incremental_butterfly_seconds,
      peeling.speedup, peeling.wall_speedup, peeling.recount_counting_calls,
      peeling.incremental_counting_calls, peeling.delta_rounds, peeling.delta_fallbacks,
      peeling.identical_to_recount ? "yes" : "NO");

  // Dynamic edge-update batches: incremental ApplyUpdates vs full rebuild
  // on the big index graph (one shared all-pairs base index).
  BcIndex update_base(big_graph.graph);
  update_base.MaterializeAllPairs();
  std::vector<UpdateBatchRow> update_rows;
  update_rows.push_back(MeasureUpdateBatch(big_graph, update_base, 8, 77));
  update_rows.push_back(MeasureUpdateBatch(big_graph, update_base, 128, 78));
  for (const UpdateBatchRow& u : update_rows) {
    std::printf(
        "updates     batch=%3zu  incremental=%.4fs rebuild=%.4fs speedup=%.1fx  "
        "labels(inc/rebuilt)=%zu/%zu pairs(inc/recount)=%zu/%zu  identical=%s\n",
        u.updates, u.incremental_seconds, u.rebuild_seconds, u.speedup,
        u.repair.labels_incremental, u.repair.labels_rebuilt, u.repair.pairs_incremental,
        u.repair.pairs_recounted, u.identical ? "yes" : "NO");
  }

  // Crash-recovery cost: replaying a rotated changelog vs loading the base
  // the compactor folded those segments into.
  RecoveryRow recovery = MeasureRecovery(big_graph, update_base, big_queries, out_path,
                                         /*batches=*/32, /*batch_size=*/8, 79);
  std::printf(
      "recovery    base=%.4fs replay(%zu segs, %zu updates)=%.4fs (%.1fx base)  "
      "fold=%.4fs compacted=%.4fs  identical=%s\n",
      recovery.base_load_seconds, recovery.live_segments, recovery.appended_updates,
      recovery.replay_load_seconds, recovery.replay_over_base, recovery.fold_seconds,
      recovery.compacted_load_seconds, recovery.identical ? "yes" : "NO");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  PrintJson(f, rows, index, serving, streaming, caching, network, update_rows, recovery,
            peeling, n, pg.graph.NumEdges(), par.NumThreads());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // interactive_ahead is a wall-clock scheduling property: it is
  // deterministic while the claim order dominates sojourn (few workers
  // relative to the 256-request batch) but becomes timing noise when most
  // of the batch is in flight at once, so on very wide pools it is
  // reported in the JSON without gating the exit code.
  const bool gate_serving = par.NumThreads() <= 8;
  bool ok = index.identical && (serving.interactive_ahead || !gate_serving);
  // Streaming: answers must be execution-mode independent; the p95 and
  // publish-latency claims are scheduling properties, gated with the same
  // noise tolerance as interactive_ahead.
  ok = ok && streaming.identical;
  ok = ok && (!gate_serving ||
              (streaming.capped_p95_bounded && streaming.update_publish_faster));
  for (const MethodRow& r : rows) ok = ok && r.identical && r.steady_bulk_inits == 0;
  // Incremental repair must be exact for every batch and beat the full
  // rebuild on the small one (the streaming-update serving case).
  for (const UpdateBatchRow& u : update_rows) ok = ok && u.identical;
  ok = ok && !update_rows.empty() && update_rows.front().speedup > 1.0;
  // Recovery must be exact: the changelog replay and the compacted base
  // must answer identically.
  ok = ok && recovery.identical;
  // Caching: a hit must be indistinguishable from re-execution (answers and
  // epoch_of bit-identical with the cache on), the Zipf trace must actually
  // hit, and the hit path must be cheaper at the median. The block cache
  // must stay within its byte budget while evicting, without ever serving
  // wrong counts.
  ok = ok && caching.identical_to_uncached && caching.hit_rate >= 0.5 &&
       caching.cached_p50_faster;
  ok = ok && caching.block_identical && caching.block_within_budget &&
       caching.block_evictions > 0;
  // The socket front-end must be invisible to answers: every wire response
  // byte-identical to the in-process community. The QPS/p95 numbers are
  // trajectory data, not gates — loopback overhead is real and expected.
  ok = ok && network.identical;
  // The incremental peel counter must be invisible to answers and must
  // actually replace recounts (fewer full counting calls, delta rounds
  // served). The speedup itself is trajectory data.
  ok = ok && peeling.identical_to_recount && peeling.delta_rounds > 0 &&
       peeling.incremental_counting_calls < peeling.recount_counting_calls;
  return ok ? 0 : 1;
}
