// Ablation micro-benchmarks (google-benchmark) for the Section 6 design
// choices: Algorithm 3 butterfly counting, Algorithm 5 vs full BFS
// distance maintenance, Algorithm 7 vs full recount, and bulk vs
// single-vertex deletion; plus the query-distance repair kernel alone,
// Find-G0 with and without the BC-index, one label's k-core forest build,
// and the index-backed query-group resolve, candidate-graph build, seed
// butterfly count, first core cascade and initial query-distance BFS on one
// Find-G0 candidate; the query-distance repairs of one orkut peel; the
// BC-index's incremental update repair; and the serving admission queue,
// request-line parser and result-cache lookup.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "bcc/bc_index.h"
#include "bcc/candidate.h"
#include "bcc/candidate_graph.h"
#include "bcc/find_g0.h"
#include "bcc/local_search.h"
#include "bcc/online_search.h"
#include "bcc/query_distance.h"
#include "bcc/workspace.h"
#include "butterfly/butterfly_counting.h"
#include "butterfly/butterfly_update.h"
#include "core/core_decomposition.h"
#include "core/core_forest.h"
#include "eval/admission_queue.h"
#include "eval/datasets.h"
#include "eval/result_cache.h"
#include "eval/serve_engine.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "net/line_protocol.h"

namespace {

using namespace bccs;  // NOLINT: benchmark file scoped to this binary

struct BipartiteFixture {
  LabeledGraph g;
  std::vector<VertexId> left, right;
  std::vector<char> in_left, in_right;
  // G[left ∪ right]: left is 0..n-1 and right n..2n-1, so candidate-local
  // ids equal graph ids.
  CandidateGraph cg;
  std::vector<char> alive;

  explicit BipartiteFixture(std::size_t n, double p) {
    g = GenerateRandomBipartite(n, n, p, 99);
    in_left.assign(g.NumVertices(), 0);
    in_right.assign(g.NumVertices(), 0);
    for (VertexId v = 0; v < n; ++v) {
      left.push_back(v);
      in_left[v] = 1;
    }
    for (VertexId v = static_cast<VertexId>(n); v < 2 * n; ++v) {
      right.push_back(v);
      in_right[v] = 1;
    }
    const std::span<const VertexId> groups[2] = {left, right};
    QueryWorkspace ws;
    cg.Build(g, groups, ws);
    alive.assign(cg.NumVertices(), 1);
  }
};

void BM_ButterflyCountingHashmap(benchmark::State& state) {
  BipartiteFixture f(static_cast<std::size_t>(state.range(0)), 0.05);
  for (auto _ : state) {
    auto counts = CountButterflies(f.g, f.left, f.right, f.in_left, f.in_right);
    benchmark::DoNotOptimize(counts.total);
  }
}
BENCHMARK(BM_ButterflyCountingHashmap)->Arg(200)->Arg(400)->Arg(800);

void BM_LeaderUpdateAlgorithm7(benchmark::State& state) {
  BipartiteFixture f(static_cast<std::size_t>(state.range(0)), 0.05);
  QueryWorkspace ws;
  LeaderButterflyUpdater updater(f.cg, ws.LeaderStamp(f.cg.NumVertices()),
                                 ws.LeaderStampCounter());
  VertexId leader = f.left[0];
  for (auto _ : state) {
    std::uint64_t loss = 0;
    for (VertexId victim : f.right) {
      loss += updater.LossOnDeletion(f.alive, 0, 1, leader, victim);
    }
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_LeaderUpdateAlgorithm7)->Arg(200)->Arg(400)->Arg(800);

// The LP call pattern: a left and a right leader both updated per removed
// vertex, victims from both sides interleaved and leaving the candidate as
// they go. Each iteration is one peel over a fresh alive mask on a fresh
// updater that borrows the stamp scratch, as PeelToMbcc borrows the
// workspace's.
void BM_LeaderUpdateTwoLeadersInterleaved(benchmark::State& state) {
  BipartiteFixture f(static_cast<std::size_t>(state.range(0)), 0.05);
  const VertexId leaders[2] = {f.left[0], f.right[0]};
  std::vector<VertexId> victims;
  for (std::size_t i = 1; i < f.left.size(); ++i) {
    victims.push_back(f.left[i]);
    victims.push_back(f.right[i]);
  }
  std::vector<std::uint32_t> stamp(f.cg.NumVertices(), 0);
  std::uint32_t counter = 0;
  for (auto _ : state) {
    std::vector<char> alive = f.alive;
    LeaderButterflyUpdater updater(f.cg, &stamp, &counter);
    std::uint64_t loss = 0;
    for (VertexId victim : victims) {
      for (VertexId leader : leaders) {
        loss += updater.LossOnDeletion(alive, 0, 1, leader, victim);
      }
      alive[victim] = 0;
    }
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_LeaderUpdateTwoLeadersInterleaved)->Arg(200)->Arg(400)->Arg(800);

struct PeelFixture {
  PlantedGraph pg;
  BccQuery q;

  PeelFixture() {
    PlantedConfig cfg;
    cfg.num_communities = 20;
    cfg.min_group_size = 14;
    cfg.max_group_size = 24;
    cfg.intra_edge_prob = 0.4;
    cfg.background_vertices = 500;
    cfg.seed = 42;
    pg = GeneratePlanted(cfg);
    q = {pg.communities[0].groups[0][0], pg.communities[0].groups[1][0]};
  }
};

void BM_SearchFullBfsDistances(benchmark::State& state) {
  PeelFixture f;
  SearchOptions opts;  // full BFS, full recount
  for (auto _ : state) {
    auto c = BccSearch(f.pg.graph, f.q, BccParams{}, opts, nullptr);
    benchmark::DoNotOptimize(c.Size());
  }
}
BENCHMARK(BM_SearchFullBfsDistances);

void BM_SearchFastDistances(benchmark::State& state) {
  PeelFixture f;
  SearchOptions opts;
  opts.fast_query_distance = true;
  for (auto _ : state) {
    auto c = BccSearch(f.pg.graph, f.q, BccParams{}, opts, nullptr);
    benchmark::DoNotOptimize(c.Size());
  }
}
BENCHMARK(BM_SearchFastDistances);

// One LP-shaped peel of a query on its candidate graph G[G0], recorded
// once: every step deletes the farthest query-distance level plus its core
// cascade (GroupedCandidate::RemoveAndMaintain), as PeelToMbcc does when no
// butterfly check stops it early. Ids are candidate-local; `alive[i]` is
// the candidate after step i (`alive[0]` is G0), `removed[i]` the vertices
// step i deleted.
struct RepairReplay {
  const LabeledGraph* g = nullptr;
  VertexId ql = 0, qr = 0;
  std::vector<std::vector<char>> alive;
  std::vector<std::vector<VertexId>> removed;

  RepairReplay(const G0Result& g0, const BccQuery& q) : g(&g0.graph->graph()) {
    ql = g0.graph->ToLocal(q.ql);
    qr = g0.graph->ToLocal(q.qr);
    QueryWorkspace ws;
    GroupedCandidate cand(*g0.graph, {g0.k1, g0.k2}, ws);
    alive.push_back(cand.alive());
    DistanceMap dl, dr;
    std::vector<VertexId> changed;
    BfsDistances(*g, cand.alive(), ql, &dl);
    BfsDistances(*g, cand.alive(), qr, &dr);
    while (cand.IsAlive(ql) && cand.IsAlive(qr) && dl.Get(qr) != kInfDistance) {
      std::vector<VertexId> batch;
      std::uint32_t far = 0;
      for (VertexId v : cand.AliveVertices()) {
        if (v == ql || v == qr) continue;
        const std::uint32_t qd = std::max(dl.Get(v), dr.Get(v));  // kInfDistance is the max
        if (qd > far) {
          batch.clear();
          far = qd;
        }
        if (qd == far) batch.push_back(v);
      }
      if (batch.empty()) break;
      removed.push_back(cand.RemoveAndMaintain(batch, [](VertexId) {}));
      alive.push_back(cand.alive());
      UpdateDistancesAfterDeletion(*g, cand.alive(), removed.back(), &dl, &changed);
      UpdateDistancesAfterDeletion(*g, cand.alive(), removed.back(), &dr, &changed);
    }
  }
};

// The "BFS and the Algorithm 5 repair" kernel: replays a RepairReplay's
// batches against both query distances, timing only the repairs (the
// initial BFS per iteration is paused). `adjacency_reads` is the repair's
// own work count per replay.
void RunRepairReplay(benchmark::State& state, const RepairReplay& r) {
  const LabeledGraph& g = *r.g;
  DistanceMap dl, dr;
  std::vector<VertexId> changed;
  std::uint64_t reads = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BfsDistances(g, r.alive[0], r.ql, &dl);
    BfsDistances(g, r.alive[0], r.qr, &dr);
    reads = 0;
    state.ResumeTiming();
    for (std::size_t i = 0; i < r.removed.size(); ++i) {
      reads += UpdateDistancesAfterDeletion(g, r.alive[i + 1], r.removed[i], &dl, &changed);
      reads += UpdateDistancesAfterDeletion(g, r.alive[i + 1], r.removed[i], &dr, &changed);
    }
    benchmark::DoNotOptimize(reads);
  }
  state.counters["batches"] = static_cast<double>(r.removed.size());
  state.counters["adjacency_reads"] = static_cast<double>(reads);
}

// On PeelFixture's planted graph.
void BM_QueryDistanceRepair(benchmark::State& state) {
  static const PeelFixture f;
  static const G0Result g0 = FindG0(f.pg.graph, f.q, BccParams{}, nullptr);
  static const RepairReplay r(g0, f.q);
  RunRepairReplay(state, r);
}
BENCHMARK(BM_QueryDistanceRepair);

void BM_SearchSingleDeletion(benchmark::State& state) {
  PeelFixture f;
  SearchOptions opts = LpBccOptions();
  opts.bulk_delete = false;
  for (auto _ : state) {
    auto c = BccSearch(f.pg.graph, f.q, BccParams{}, opts, nullptr);
    benchmark::DoNotOptimize(c.Size());
  }
}
BENCHMARK(BM_SearchSingleDeletion);

void BM_SearchBulkDeletion(benchmark::State& state) {
  PeelFixture f;
  SearchOptions opts = LpBccOptions();
  for (auto _ : state) {
    auto c = BccSearch(f.pg.graph, f.q, BccParams{}, opts, nullptr);
    benchmark::DoNotOptimize(c.Size());
  }
}
BENCHMARK(BM_SearchBulkDeletion);

void BM_L2pEtaSweep(benchmark::State& state) {
  PeelFixture f;
  BcIndex index(f.pg.graph);
  L2pOptions opts;
  opts.eta = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto c = L2pBcc(f.pg.graph, index, f.q, BccParams{}, opts, nullptr);
    benchmark::DoNotOptimize(c.Size());
  }
}
BENCHMARK(BM_L2pEtaSweep)->Arg(128)->Arg(512)->Arg(2048)->Arg(8192);

// Find-G0 on one orkut stand-in query (two ~29k-vertex label groups):
// Arg(0) peels each query group (auto-k bucket peel + k-core peel),
// Arg(1) reads the groups' coreness from the BC-index. Both include the
// seed butterfly count over G0. The graph and index are built once.
void BM_FindG0(benchmark::State& state) {
  static const PlantedGraph pg = MakeDataset(*FindSpec("orkut"));
  static const BcIndex index(pg.graph);
  const BccQuery q{pg.communities[0].groups[0][0], pg.communities[0].groups[1][0]};
  const BcIndex* use = state.range(0) != 0 ? &index : nullptr;
  QueryWorkspace ws;
  for (auto _ : state) {
    G0Result g0 = FindG0(pg.graph, q, BccParams{}, nullptr, &ws, use);
    benchmark::DoNotOptimize(g0.left.size());
    ReleaseG0Counts(&ws, &g0);
  }
}
BENCHMARK(BM_FindG0)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One orkut stand-in G0 (BM_FindG0's query, groups from the BC-index),
// resolved once and shared by the kernels below.
struct OrkutG0 {
  PlantedGraph pg = MakeDataset(*FindSpec("orkut"));
  BcIndex index{pg.graph};
  BccQuery q{pg.communities[0].groups[0][0], pg.communities[0].groups[1][0]};
  G0Result g0 = FindG0(pg.graph, q, BccParams{}, nullptr, nullptr, &index);
};

const OrkutG0& SharedOrkutG0() {
  static const OrkutG0 fixture;
  return fixture;
}

// Building G[G0] with local ids from Find-G0's two groups (one pass over
// their adjacency), on a warm workspace as FindG0 does.
void BM_CandidateGraphBuild(benchmark::State& state) {
  const OrkutG0& f = SharedOrkutG0();
  const std::span<const VertexId> groups[2] = {f.g0.left, f.g0.right};
  QueryWorkspace ws;
  std::unique_ptr<CandidateGraph> cg = ws.AcquireCandidateGraph();
  for (auto _ : state) {
    cg->Build(f.pg.graph, groups, ws);
    benchmark::DoNotOptimize(cg->NumVertices());
  }
  state.counters["g0"] = static_cast<double>(cg->NumVertices());
}
BENCHMARK(BM_CandidateGraphBuild)->Unit(benchmark::kMillisecond);

// The seed butterfly count (CountButterfliesInto over the cross sub-ranges)
// on the same G0, into a pooled chi buffer.
void BM_SeedCount(benchmark::State& state) {
  const OrkutG0& f = SharedOrkutG0();
  QueryWorkspace ws;
  ButterflyCounts counts;
  counts.chi = ws.U64ZeroPool().Acquire(f.g0.graph->NumVertices());
  for (auto _ : state) {
    CountButterfliesInto(*f.g0.graph, 0, 1, nullptr, ws, &counts);
    benchmark::DoNotOptimize(counts.total);
  }
  state.counters["butterflies"] = static_cast<double>(counts.total);
}
BENCHMARK(BM_SeedCount)->Unit(benchmark::kMillisecond);

// One query group from the BC-index (Find-G0's index path, the left side of
// the same query): auto-k from stored coreness, then the component of q in
// the label's k-core forest by one ancestor walk and one scan of the label
// group. The forest is built on the first iteration and kept by the index.
void BM_ResolveQueryGroup(benchmark::State& state) {
  const OrkutG0& f = SharedOrkutG0();
  QueryWorkspace ws;
  std::vector<VertexId> side;
  for (auto _ : state) {
    const std::uint32_t k =
        ResolveQueryGroup(f.pg.graph, f.q.ql, 0, nullptr, &f.index, ws, &side);
    benchmark::DoNotOptimize(k);
    benchmark::DoNotOptimize(side.data());
    benchmark::ClobberMemory();
  }
  state.counters["side"] = static_cast<double>(side.size());
}
BENCHMARK(BM_ResolveQueryGroup)->Unit(benchmark::kMillisecond);

// Building one label's k-core forest (BcIndex::LabelForest's first use):
// the union-find pass over the orkut query's left label group in descending
// coreness, then the preorder numbering.
void BM_LabelForestBuild(benchmark::State& state) {
  const OrkutG0& f = SharedOrkutG0();
  const LabeledGraph& g = f.pg.graph;
  static const std::vector<std::uint32_t> coreness = LabelCoreness(g);
  const std::span<const VertexId> members = g.VerticesWithLabel(g.LabelOf(f.q.ql));
  std::size_t nodes = 0, bytes = 0;
  for (auto _ : state) {
    const CoreForest forest(g, members, coreness);
    nodes = forest.NumNodes();
    bytes = forest.MemoryBytes();
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["members"] = static_cast<double>(members.size());
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_LabelForestBuild)->Unit(benchmark::kMillisecond);

// The peel's first deletion on the shared G0: every vertex at the farthest
// query distance, and the per-group core cascade it sets off
// (GroupedCandidate::RemoveAndMaintain, without leaders). Each iteration
// times the cascade alone on a fresh candidate.
void BM_CoreCascade(benchmark::State& state) {
  const OrkutG0& f = SharedOrkutG0();
  const CandidateGraph& cg = *f.g0.graph;
  const LabeledGraph& g = cg.graph();
  const std::vector<char> alive(cg.NumVertices(), 1);
  const VertexId ql = cg.ToLocal(f.q.ql), qr = cg.ToLocal(f.q.qr);
  DistanceMap dl, dr;
  BfsDistances(g, alive, ql, &dl);
  BfsDistances(g, alive, qr, &dr);
  std::vector<VertexId> batch;
  std::uint32_t far = 0;
  for (VertexId v = 0; v < cg.NumVertices(); ++v) {
    if (v == ql || v == qr) continue;
    const std::uint32_t qd = std::max(dl.Get(v), dr.Get(v));  // kInfDistance is the max
    if (qd > far) {
      batch.clear();
      far = qd;
    }
    if (qd == far) batch.push_back(v);
  }
  QueryWorkspace ws;
  std::size_t removed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    {
      GroupedCandidate cand(cg, {f.g0.k1, f.g0.k2}, ws);
      state.ResumeTiming();
      removed = cand.RemoveAndMaintain(batch).size();
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  state.counters["batch"] = static_cast<double>(batch.size());
  state.counters["removed"] = static_cast<double>(removed);
}
BENCHMARK(BM_CoreCascade)->Unit(benchmark::kMillisecond);

// The peel's two initial query-distance BFS (distances and level counts)
// from q_l and q_r over the whole shared G0.
void BM_InitialBfs(benchmark::State& state) {
  const OrkutG0& f = SharedOrkutG0();
  const LabeledGraph& g = f.g0.graph->graph();
  const std::vector<char> alive(g.NumVertices(), 1);
  const VertexId sources[2] = {f.g0.graph->ToLocal(f.q.ql), f.g0.graph->ToLocal(f.q.qr)};
  DistanceMap dist[2];
  for (auto _ : state) {
    for (int i = 0; i < 2; ++i) {
      BfsDistances(g, alive, sources[i], &dist[i]);
      benchmark::DoNotOptimize(dist[i].queue().data());
    }
    benchmark::ClobberMemory();
  }
  state.counters["g0"] = static_cast<double>(g.NumVertices());
}
BENCHMARK(BM_InitialBfs)->Unit(benchmark::kMillisecond);

// The same replay on the shared G0 (the orkut stand-in's two ~29k-vertex
// label groups).
void BM_QueryDistanceRepairOrkut(benchmark::State& state) {
  const OrkutG0& f = SharedOrkutG0();
  static const RepairReplay r(f.g0, f.q);
  RunRepairReplay(state, r);
}
BENCHMARK(BM_QueryDistanceRepairOrkut)->Unit(benchmark::kMillisecond);

// One intra-label delete and its reinsert on the orkut stand-in, through
// the BC-index's incremental repair (the serve loop's update preparation
// after the graph rebuild): the coreness level passes of the query's left
// label group. The updated graphs are built once; each iteration times the
// two ApplyUpdates calls.
void BM_ApplyUpdates(benchmark::State& state) {
  const OrkutG0& f = SharedOrkutG0();
  const LabeledGraph& g = f.pg.graph;
  Edge e{f.q.ql, kInvalidVertex};
  for (VertexId w : g.Neighbors(f.q.ql)) {
    if (g.LabelOf(w) == g.LabelOf(f.q.ql)) {
      e = {std::min(f.q.ql, w), std::max(f.q.ql, w)};
      break;
    }
  }
  if (e.v == kInvalidVertex) {
    state.SkipWithError("q_l has no same-label neighbour");
    return;
  }
  const EdgeUpdate del[] = {{EdgeUpdateKind::kDelete, e}};
  const EdgeUpdate ins[] = {{EdgeUpdateKind::kInsert, e}};
  const GraphDelta delete_delta = *BuildGraphDelta(g, del);
  const LabeledGraph without = ApplyGraphDelta(g, delete_delta);
  const GraphDelta insert_delta = *BuildGraphDelta(without, ins);
  const LabeledGraph with = ApplyGraphDelta(without, insert_delta);
  UpdateRepairStats deleted, inserted;
  for (auto _ : state) {
    const auto after_delete = f.index.ApplyUpdates(without, delete_delta, {}, &deleted);
    const auto after_insert = after_delete->ApplyUpdates(with, insert_delta, {}, &inserted);
    benchmark::DoNotOptimize(after_insert.get());
  }
  state.counters["delete_passes"] = static_cast<double>(deleted.core_passes);
  state.counters["insert_passes"] = static_cast<double>(inserted.core_passes);
  state.counters["incremental"] =
      static_cast<double>(deleted.labels_incremental + inserted.labels_incremental);
}
BENCHMARK(BM_ApplyUpdates)->Unit(benchmark::kMillisecond);

// The admission queue's cost per served item, single-threaded: admit one
// query carrying the serving stream's ticket payload (AdmittedItem: request,
// completion, request id, admit time, and a null epoch slot), pop it and
// release its lane slot.
void BM_AdmissionQueue(benchmark::State& state) {
  AdmissionQueue<AdmittedItem> queue(/*aging_period=*/8, {});
  QueryRequest q;
  q.query = BccQuery{0, 1};
  q.lane = Lane::kInteractive;
  std::uint64_t id = 0;
  AdmissionQueue<AdmittedItem>::Ticket t;
  for (auto _ : state) {
    queue.AdmitQuery(q.lane, {q, [](const ItemCompletion&) {}, ++id, 0.0, nullptr});
    queue.Pop(&t);
    queue.CompleteQuery(t.lane);
    benchmark::DoNotOptimize(t.item.request_id);
    t.item = {};
  }
}
BENCHMARK(BM_AdmissionQueue);

// One request line through the socket codec (ParseNetRequest, as the server
// and `bccs_serve --stream` call it per line): Arg(0) a query line, Arg(1)
// an update line.
void BM_ParseNetRequest(benchmark::State& state) {
  const std::string_view line =
      state.range(0) == 0 ? "q 1234 56789 interactive id=42" : "u + 1234 56789 id=43";
  NetRequest req;
  std::string error;
  for (auto _ : state) {
    const NetParseStatus status = ParseNetRequest(line, 100000, &req, &error);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(req.id);
  }
}
BENCHMARK(BM_ParseNetRequest)->Arg(0)->Arg(1);

// One result-cache lookup on a warm cache (1,024 two-label answers of 64
// members each): Arg(0) a hit, which copies the stored community out,
// Arg(1) a miss on an absent key.
void BM_ResultCacheLookup(benchmark::State& state) {
  constexpr VertexId kEntries = 1024;
  ResultCache cache(kEntries);
  auto key_of = [](VertexId i) {
    ResultCacheKey key;
    key.vertices = {i, i + kEntries};
    key.ks = {2, 2};
    return key;
  };
  const Label labels[] = {0, 1};
  Community stored;
  for (VertexId v = 0; v < 64; ++v) stored.vertices.push_back(v);
  for (VertexId i = 0; i < kEntries; ++i) cache.Insert(key_of(i), labels, 0, stored, {});
  const ResultCacheKey key = key_of(state.range(0) == 0 ? kEntries / 2 : 2 * kEntries);
  Community community;
  SearchStats stats;
  for (auto _ : state) {
    const bool hit = cache.Lookup(key, 0, 0, &community, &stats);
    benchmark::DoNotOptimize(hit);
    benchmark::DoNotOptimize(community.vertices.data());
  }
  state.counters["entries"] = static_cast<double>(cache.Stats().entries);
}
BENCHMARK(BM_ResultCacheLookup)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
