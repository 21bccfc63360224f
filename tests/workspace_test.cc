#include "bcc/workspace.h"

#include <algorithm>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "bcc/local_search.h"
#include "bcc/mbcc.h"
#include "bcc/online_search.h"
#include "bcc/query_distance.h"
#include "butterfly/butterfly_counting.h"
#include "graph/generators.h"
#include "test_util.h"

namespace bccs {
namespace {

using testing::MakeCycle;
using testing::MakeRandomGraph;

std::vector<std::uint32_t> Materialize(const DistanceMap& dm, std::size_t n) {
  std::vector<std::uint32_t> out(n);
  for (VertexId v = 0; v < n; ++v) out[v] = dm.Get(v);
  return out;
}

TEST(ScratchPoolTest, ReusesBuffersWithoutBulkInits) {
  ScratchPool<char> pool(0);
  auto a = pool.Acquire(100);
  EXPECT_EQ(pool.bulk_inits(), 1u);
  a[7] = 1;
  std::vector<VertexId> touched = {7};
  pool.Release(std::move(a), touched);
  auto b = pool.Acquire(100);
  EXPECT_EQ(pool.bulk_inits(), 1u);  // warm reuse: no refill
  EXPECT_EQ(b[7], 0);                // restored to the default
  pool.ReleaseClean(std::move(b));
  // Growth forces one refill.
  auto c = pool.Acquire(200);
  EXPECT_EQ(pool.bulk_inits(), 2u);
  pool.ReleaseClean(std::move(c));
}

// Support(v) must count v's alive neighbours exactly one level closer to
// the source, for every reachable non-source vertex.
void ExpectSupportCounts(const LabeledGraph& g, const std::vector<char>& alive,
                         VertexId source, const DistanceMap& dm) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const std::uint32_t d = dm.Get(v);
    if (!alive[v] || v == source || d == kInfDistance) continue;
    std::uint32_t parents = 0;
    for (VertexId u : g.Neighbors(v)) parents += alive[u] && dm.Get(u) + 1 == d;
    EXPECT_EQ(dm.Support(v), parents) << "vertex " << v;
  }
}

TEST(DistanceMapTest, MatchesLegacyBfs) {
  LabeledGraph g = MakeCycle(6);
  std::vector<char> alive(6, 1);
  alive[4] = 0;
  std::vector<std::uint32_t> legacy;
  BfsDistances(g, alive, 1, &legacy);
  DistanceMap dm;
  BfsDistances(g, alive, 1, &dm);
  EXPECT_EQ(Materialize(dm, 6), legacy);
  ExpectSupportCounts(g, alive, 1, dm);
  EXPECT_EQ(dm.Support(1), 1u);  // the source's virtual parent

  // A vertex with two shortest-path parents: on the full 6-cycle, 4 is
  // reached from 1 through both 3 and 5.
  alive[4] = 1;
  BfsDistances(g, alive, 1, &dm);
  EXPECT_EQ(dm.Get(4), 3u);
  EXPECT_EQ(dm.Support(4), 2u);
  ExpectSupportCounts(g, alive, 1, dm);
}

// Random G(60, 0.08) with a 12-vertex tree hanging off vertex `hinge`, so
// cut vertices (whose removal strands a subtree) always exist.
LabeledGraph MakeRandomGraphWithPendantTree(std::uint64_t seed, VertexId hinge) {
  constexpr std::size_t kCore = 60, kTree = 12;
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(0.08);
  std::vector<Edge> edges;
  for (VertexId i = 0; i < kCore; ++i) {
    for (VertexId j = i + 1; j < kCore; ++j) {
      if (coin(rng)) edges.push_back({i, j});
    }
  }
  for (VertexId i = 0; i < kTree; ++i) {
    const VertexId parent = i == 0 ? hinge : static_cast<VertexId>(kCore + rng() % i);
    edges.push_back({parent, static_cast<VertexId>(kCore + i)});
  }
  std::vector<Label> labels(kCore + kTree);
  for (VertexId v = 0; v < labels.size(); ++v) labels[v] = static_cast<Label>(v % 2);
  return LabeledGraph::FromEdges(kCore + kTree, std::move(edges), std::move(labels));
}

TEST(DistanceMapTest, RandomizedIncrementalEqualsFreshBfs) {
  // After every deletion batch, the support-counted repair must equal both
  // the paper-literal Algorithm 5 repair and a fresh BFS over the surviving
  // subgraph, report exactly the vertices whose distance moved, and leave
  // every support count exact. Rounds cycle through three batch shapes:
  // random vertices, a parent-child pair on consecutive levels, and a cut
  // vertex whose removal sends a subtree to kInfDistance.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    std::mt19937_64 rng(seed * 97 + 13);
    LabeledGraph g = MakeRandomGraphWithPendantTree(seed, static_cast<VertexId>(rng() % 60));
    const std::size_t n = g.NumVertices();
    std::vector<char> alive(n, 1);
    VertexId source = 0;
    do {
      source = static_cast<VertexId>(rng() % 60);
    } while (g.Neighbors(source).empty());

    std::vector<std::uint32_t> legacy;
    BfsDistances(g, alive, source, &legacy);
    DistanceMap dm;
    BfsDistances(g, alive, source, &dm);
    ASSERT_EQ(Materialize(dm, n), legacy);
    ExpectSupportCounts(g, alive, source, dm);

    auto strands_someone = [&](VertexId c) {
      alive[c] = 0;
      std::vector<std::uint32_t> without;
      BfsDistances(g, alive, source, &without);
      alive[c] = 1;
      for (VertexId v = 0; v < n; ++v) {
        if (v != c && legacy[v] != kInfDistance && without[v] == kInfDistance) return true;
      }
      return false;
    };

    std::vector<VertexId> changed;
    int cut_batches = 0, chain_batches = 0;
    for (int round = 0; round < 12; ++round) {
      std::vector<VertexId> batch;
      const VertexId start = static_cast<VertexId>(rng() % n);
      for (VertexId i = 0; i < n && batch.empty(); ++i) {
        const VertexId v = static_cast<VertexId>((start + i) % n);
        if (v == source || !alive[v] || legacy[v] == kInfDistance) continue;
        if (round % 3 == 1) {
          for (VertexId w : g.Neighbors(v)) {
            if (w != source && alive[w] && legacy[w] == legacy[v] + 1) {
              batch = {v, w};
              ++chain_batches;
              break;
            }
          }
        } else if (round % 3 == 2 && strands_someone(v)) {
          batch = {v};
          ++cut_batches;
        }
      }
      // Random non-source vertices: the whole batch in round-shape 0, one
      // extra vertex on top of the shaped batches otherwise.
      for (int t = 0; t < 8 && batch.size() < (round % 3 == 0 ? 4u : 3u); ++t) {
        VertexId v = static_cast<VertexId>(rng() % n);
        if (v == source || !alive[v]) continue;
        if (std::find(batch.begin(), batch.end(), v) == batch.end()) batch.push_back(v);
        if (round % 3 != 0) break;
      }
      if (batch.empty()) break;
      for (VertexId v : batch) alive[v] = 0;

      const std::vector<std::uint32_t> before = legacy;
      UpdateDistancesAfterDeletion(g, alive, batch, &legacy);
      UpdateDistancesAfterDeletion(g, alive, batch, &dm, &changed);
      ASSERT_EQ(Materialize(dm, n), legacy) << "seed " << seed << " round " << round;

      std::vector<std::uint32_t> fresh;
      BfsDistances(g, alive, source, &fresh);
      ASSERT_EQ(Materialize(dm, n), fresh) << "seed " << seed << " round " << round;
      ExpectSupportCounts(g, alive, source, dm);

      // `changed` is exactly the alive vertices whose distance moved.
      std::vector<VertexId> moved;
      for (VertexId v = 0; v < n; ++v) {
        if (alive[v] && before[v] != legacy[v]) moved.push_back(v);
      }
      std::sort(changed.begin(), changed.end());
      EXPECT_EQ(changed, moved) << "seed " << seed << " round " << round;
    }
    EXPECT_GT(chain_batches, 0) << "seed " << seed;
    EXPECT_GT(cut_batches, 0) << "seed " << seed;
  }
}

TEST(PeelQueueTest, PopsFarthestAndKeepsQueries) {
  PeelQueue q;
  q.Reset(10);
  std::vector<char> alive(10, 1);
  q.Update(0, 1);  // the "query"
  q.Update(1, 3);
  q.Update(2, 3);
  q.Update(3, 2);
  q.Update(4, kInfDistance);

  auto is_query = [](VertexId v) { return v == 0; };
  std::vector<VertexId> batch;
  std::uint32_t level = 0;

  ASSERT_TRUE(q.PopFarthest(alive, is_query, &batch, &level));
  EXPECT_EQ(level, kInfDistance);
  EXPECT_EQ(batch, (std::vector<VertexId>{4}));
  alive[4] = 0;

  ASSERT_TRUE(q.PopFarthest(alive, is_query, &batch, &level));
  EXPECT_EQ(level, 3u);
  std::sort(batch.begin(), batch.end());
  EXPECT_EQ(batch, (std::vector<VertexId>{1, 2}));
  alive[1] = alive[2] = 0;

  // Distance growth: vertex 3 moves from 2 to 5 and must pop at 5.
  q.Update(3, 5);
  ASSERT_TRUE(q.PopFarthest(alive, is_query, &batch, &level));
  EXPECT_EQ(level, 5u);
  EXPECT_EQ(batch, (std::vector<VertexId>{3}));
  alive[3] = 0;

  // Only the query remains: level reported, batch empty, still queued.
  ASSERT_TRUE(q.PopFarthest(alive, is_query, &batch, &level));
  EXPECT_EQ(level, 1u);
  EXPECT_TRUE(batch.empty());
  ASSERT_TRUE(q.PopFarthest(alive, is_query, &batch, &level));
  EXPECT_EQ(level, 1u);

  alive[0] = 0;
  EXPECT_FALSE(q.PopFarthest(alive, is_query, &batch, &level));
}

TEST(DistanceMapTest, ResetForgetsEveryEarlierEntry) {
  DistanceMap dm;
  dm.Reset(8);
  dm.Set(5, 3, 1);
  dm.Set(7, 2, 2);
  dm.SetUnreachable(6);
  ASSERT_EQ(dm.Get(5), 3u);

  // A smaller reset, then a larger one within the same capacity: entries
  // of every earlier use read as unreached, inside and past the small size.
  dm.Reset(4);
  dm.Set(2, 7, 1);
  EXPECT_EQ(dm.Get(2), 7u);
  dm.Reset(8);
  for (VertexId v = 0; v < 8; ++v) {
    EXPECT_EQ(dm.Get(v), kInfDistance) << v;
    EXPECT_EQ(dm.Support(v), 0u) << v;
  }

  dm.Set(5, 1, 1);
  EXPECT_EQ(dm.Get(5), 1u);
  EXPECT_EQ(dm.Support(5), 1u);
}

TEST(PeelQueueTest, ResetForgetsEveryEarlierEntry) {
  PeelQueue q;
  std::vector<char> alive(6, 1);
  auto no_query = [](VertexId) { return false; };
  std::vector<VertexId> batch;
  std::uint32_t level = 0;

  q.Reset(6);
  q.Update(3, 4);
  q.Update(1, kInfDistance);
  q.Reset(3);
  q.Update(2, 9);
  q.Reset(6);
  // Nothing queued since the last reset: earlier entries must not pop.
  EXPECT_FALSE(q.PopFarthest(alive, no_query, &batch, &level));

  // A vertex queued before the reset at the same level is queued afresh.
  q.Update(3, 4);
  q.Update(5, 7);
  ASSERT_TRUE(q.PopFarthest(alive, no_query, &batch, &level));
  EXPECT_EQ(level, 7u);
  EXPECT_EQ(batch, (std::vector<VertexId>{5}));
  ASSERT_TRUE(q.PopFarthest(alive, no_query, &batch, &level));
  EXPECT_EQ(level, 4u);
  EXPECT_EQ(batch, (std::vector<VertexId>{3}));
}

TEST(PeelQueueTest, RequeueAfterPartialDeletion) {
  PeelQueue q;
  q.Reset(4);
  std::vector<char> alive(4, 1);
  for (VertexId v = 0; v < 4; ++v) q.Update(v, 2);
  auto no_query = [](VertexId) { return false; };
  std::vector<VertexId> batch;
  std::uint32_t level = 0;
  ASSERT_TRUE(q.PopFarthest(alive, no_query, &batch, &level));
  ASSERT_EQ(batch.size(), 4u);
  // Single-delete style: keep batch[0], requeue the rest.
  for (std::size_t i = 1; i < batch.size(); ++i) q.Requeue(batch[i]);
  alive[batch[0]] = 0;
  ASSERT_TRUE(q.PopFarthest(alive, no_query, &batch, &level));
  EXPECT_EQ(level, 2u);
  EXPECT_EQ(batch.size(), 3u);
}

TEST(ButterflyWorkspaceTest, MatchesBruteForceRandomized) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    LabeledGraph g = MakeRandomGraph(40, 0.15, 2, seed + 100);
    const std::size_t n = g.NumVertices();
    std::mt19937_64 rng(seed);
    std::vector<VertexId> left, right;
    std::vector<char> in_left(n, 0), in_right(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      if (g.LabelOf(v) == 0) {
        left.push_back(v);
        in_left[v] = rng() % 4 != 0;  // some dead members
      } else {
        right.push_back(v);
        in_right[v] = rng() % 4 != 0;
      }
    }

    ButterflyCounts brute = CountButterfliesBruteForce(g, left, right, in_left, in_right);

    // The workspace kernel counts on the candidate graph of both groups,
    // dead members included and filtered by a local alive mask.
    auto cg = testing::MakeCandidate(g, {left, right});
    std::vector<char> alive(cg->NumVertices(), 0);
    for (VertexId v = 0; v < cg->NumVertices(); ++v) {
      alive[v] = static_cast<char>(in_left[cg->ToGlobal(v)] | in_right[cg->ToGlobal(v)]);
    }
    QueryWorkspace ws;
    ButterflyCounts fast;
    fast.chi = ws.U64ZeroPool().Acquire(cg->NumVertices());
    CountButterfliesInto(*cg, 0, 1, &alive, ws, &fast);
    // Recount over the same buffer (the steady-state path) must stay exact.
    CountButterfliesInto(*cg, 0, 1, &alive, ws, &fast);

    EXPECT_EQ(fast.total, brute.total) << "seed " << seed;
    EXPECT_EQ(fast.max_left, brute.max_left);
    EXPECT_EQ(fast.max_right, brute.max_right);
    EXPECT_EQ(cg->ToGlobal(fast.argmax_left), brute.argmax_left);
    EXPECT_EQ(cg->ToGlobal(fast.argmax_right), brute.argmax_right);
    for (VertexId v = 0; v < cg->NumVertices(); ++v) {
      EXPECT_EQ(fast.chi[v], alive[v] ? brute.chi[cg->ToGlobal(v)] : 0u) << "vertex " << v;
    }
  }
}

TEST(ButterflyWorkspaceTest, ArgmaxValidForZeroChiSides) {
  // A 4-cycle path of cross edges with no butterfly: chi == 0 everywhere,
  // yet both sides are non-empty, so both argmaxes must be valid vertices.
  LabeledGraph g = LabeledGraph::FromEdges(
      4, {{0, 2}, {1, 3}}, {0, 0, 1, 1});
  std::vector<VertexId> left = {0, 1}, right = {2, 3};
  std::vector<char> in_left = {1, 1, 0, 0}, in_right = {0, 0, 1, 1};
  ButterflyCounts fast = CountButterflies(g, left, right, in_left, in_right);
  EXPECT_EQ(fast.max_left, 0u);
  EXPECT_NE(fast.argmax_left, kInvalidVertex);
  EXPECT_NE(fast.argmax_right, kInvalidVertex);
  ButterflyCounts brute = CountButterfliesBruteForce(g, left, right, in_left, in_right);
  EXPECT_NE(brute.argmax_left, kInvalidVertex);
  EXPECT_NE(brute.argmax_right, kInvalidVertex);
  EXPECT_EQ(fast.argmax_left, brute.argmax_left);
  EXPECT_EQ(fast.argmax_right, brute.argmax_right);
}

// The counters a cold call (no workspace) and a warm one must agree on.
void ExpectSameCounters(const SearchStats& cold, const SearchStats& warm,
                        const std::string& note) {
  EXPECT_EQ(cold.rounds, warm.rounds) << note;
  EXPECT_EQ(cold.butterfly_counting_calls, warm.butterfly_counting_calls) << note;
  EXPECT_EQ(cold.leader_rebuilds, warm.leader_rebuilds) << note;
  EXPECT_EQ(cold.g0_size, warm.g0_size) << note;
  EXPECT_EQ(cold.vertices_removed, warm.vertices_removed) << note;
}

TEST(WorkspaceSearchTest, WorkspaceResultsEqualLegacyAcrossOptionGrid) {
  PlantedConfig cfg;
  cfg.num_communities = 5;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.intra_edge_prob = 0.5;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    cfg.seed = seed + 300;
    PlantedGraph pg = GeneratePlanted(cfg);
    const auto& comm = pg.communities[seed % pg.communities.size()];
    BccQuery q{comm.groups[0][0], comm.groups[1][0]};
    BccParams p{2, 2, 1};
    QueryWorkspace ws;
    for (bool bulk : {true, false}) {
      for (bool fast : {true, false}) {
        for (bool leader : {true, false}) {
          SearchOptions opts;
          opts.bulk_delete = bulk;
          opts.fast_query_distance = fast;
          opts.use_leader_pair = leader;
          SearchStats legacy_stats, warm_stats;
          Community legacy = BccSearch(pg.graph, q, p, opts, &legacy_stats);
          Community warm = BccSearch(pg.graph, q, p, opts, &warm_stats, &ws);
          const std::string note = "seed=" + std::to_string(seed) +
                                   " bulk=" + std::to_string(bulk) +
                                   " fast=" + std::to_string(fast) +
                                   " leader=" + std::to_string(leader);
          EXPECT_EQ(legacy.vertices, warm.vertices) << note;
          ExpectSameCounters(legacy_stats, warm_stats, note);
        }
      }
    }
  }
}

TEST(WorkspaceSearchTest, SteadyStateLpBccPerformsNoBulkInits) {
  PlantedConfig cfg;
  cfg.num_communities = 6;
  cfg.min_group_size = 10;
  cfg.max_group_size = 16;
  cfg.seed = 9;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[0];
  BccQuery q{comm.groups[0][0], comm.groups[1][0]};
  BccQuery q2{comm.groups[0][1], comm.groups[1][1]};

  QueryWorkspace ws;
  Community first = LpBcc(pg.graph, q, BccParams{}, nullptr, &ws);   // warm-up
  Community alt = LpBcc(pg.graph, q2, BccParams{}, nullptr, &ws);    // different shape
  const std::uint64_t warm = ws.Stats().bulk_inits;
  ASSERT_GT(warm, 0u);

  for (int i = 0; i < 5; ++i) {
    Community again = LpBcc(pg.graph, q, BccParams{}, nullptr, &ws);
    EXPECT_EQ(again.vertices, first.vertices);
    Community again2 = LpBcc(pg.graph, q2, BccParams{}, nullptr, &ws);
    EXPECT_EQ(again2.vertices, alt.vertices);
  }
  // Zero O(n)-sized allocations/fills after warm-up: the tentpole contract.
  EXPECT_EQ(ws.Stats().bulk_inits, warm);
}

TEST(WorkspaceSearchTest, SteadyStateOnlineAndMbccPerformNoBulkInits) {
  PlantedConfig cfg;
  cfg.num_communities = 4;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.seed = 21;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[0];
  ASSERT_GE(comm.groups.size(), 3u);
  MbccQuery mq{{comm.groups[0][0], comm.groups[1][0], comm.groups[2][0]}};
  BccQuery q{comm.groups[0][0], comm.groups[1][0]};

  QueryWorkspace ws;
  Community online = OnlineBcc(pg.graph, q, BccParams{}, nullptr, &ws);
  Community mbcc = MbccSearch(pg.graph, mq, MbccParams{}, LpBccOptions(), nullptr, nullptr, &ws);
  const std::uint64_t warm = ws.Stats().bulk_inits;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(OnlineBcc(pg.graph, q, BccParams{}, nullptr, &ws).vertices, online.vertices);
    EXPECT_EQ(
        MbccSearch(pg.graph, mq, MbccParams{}, LpBccOptions(), nullptr, nullptr, &ws).vertices,
        mbcc.vertices);
  }
  EXPECT_EQ(ws.Stats().bulk_inits, warm);
}

TEST(WorkspaceSearchTest, SteadyStateL2pPerformsNoBulkInits) {
  PlantedConfig cfg;
  cfg.num_communities = 6;
  cfg.min_group_size = 10;
  cfg.max_group_size = 16;
  cfg.seed = 33;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[1];
  BccQuery q{comm.groups[0][0], comm.groups[1][0]};
  BcIndex index(pg.graph);

  QueryWorkspace ws;
  Community legacy = L2pBcc(pg.graph, index, q, BccParams{});
  Community first = L2pBcc(pg.graph, index, q, BccParams{}, {}, nullptr, &ws);
  EXPECT_EQ(first.vertices, legacy.vertices);
  const std::uint64_t warm = ws.Stats().bulk_inits;
  for (int i = 0; i < 3; ++i) {
    Community again = L2pBcc(pg.graph, index, q, BccParams{}, {}, nullptr, &ws);
    EXPECT_EQ(again.vertices, first.vertices);
  }
  EXPECT_EQ(ws.Stats().bulk_inits, warm);
}

TEST(WorkspaceSearchTest, L2pColdEqualsWarmAcrossSeeds) {
  // A small eta makes the expansion retry (doubling eta) before the
  // candidate holds a BCC; the default one finds it on the first attempt.
  // One warm workspace serves every query of a graph, as a worker's does.
  PlantedConfig cfg;
  cfg.num_communities = 5;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.mixed_group_counts = true;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    cfg.seed = seed + 700;
    PlantedGraph pg = GeneratePlanted(cfg);
    BcIndex index(pg.graph);
    QueryWorkspace ws;
    std::size_t nonempty = 0;
    for (std::size_t eta : {std::size_t{4}, std::size_t{1024}}) {
      L2pOptions opts;
      opts.eta = eta;
      for (const PlantedCommunity& comm : pg.communities) {
        const std::string note = "seed=" + std::to_string(seed) + " eta=" +
                                 std::to_string(eta) + " groups=" +
                                 std::to_string(comm.groups.size());
        BccQuery q{comm.groups[0][0], comm.groups[1][0]};
        SearchStats cold_stats, warm_stats;
        Community cold = L2pBcc(pg.graph, index, q, BccParams{}, opts, &cold_stats);
        Community warm = L2pBcc(pg.graph, index, q, BccParams{}, opts, &warm_stats, &ws);
        EXPECT_EQ(cold.vertices, warm.vertices) << note;
        ExpectSameCounters(cold_stats, warm_stats, "L2pBcc " + note);
        nonempty += !cold.Empty();
        if (comm.groups.size() < 3) continue;

        MbccQuery mq{{comm.groups[0][0], comm.groups[1][0], comm.groups[2][0]}};
        SearchStats mcold_stats, mwarm_stats;
        Community mcold = L2pMbcc(pg.graph, index, mq, MbccParams{}, opts, &mcold_stats);
        Community mwarm =
            L2pMbcc(pg.graph, index, mq, MbccParams{}, opts, &mwarm_stats, &ws);
        EXPECT_EQ(mcold.vertices, mwarm.vertices) << note;
        ExpectSameCounters(mcold_stats, mwarm_stats, "L2pMbcc " + note);
        nonempty += !mcold.Empty();
      }
    }
    EXPECT_GT(nonempty, 0u) << "seed " << seed;
  }
}

TEST(WorkspaceSearchTest, MbccWorkspaceEqualsLegacy) {
  PlantedConfig cfg;
  cfg.num_communities = 4;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.mixed_group_counts = true;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    cfg.seed = seed + 50;
    PlantedGraph pg = GeneratePlanted(cfg);
    const PlantedCommunity* comm3 = nullptr;
    for (const auto& c : pg.communities) {
      if (c.groups.size() >= 3) {
        comm3 = &c;
        break;
      }
    }
    ASSERT_NE(comm3, nullptr);
    MbccQuery mq{{comm3->groups[0][0], comm3->groups[1][0], comm3->groups[2][0]}};
    QueryWorkspace ws;
    for (const SearchOptions& opts : {OnlineBccOptions(), LpBccOptions()}) {
      SearchStats legacy_stats, warm_stats;
      Community legacy = MbccSearch(pg.graph, mq, MbccParams{}, opts, &legacy_stats);
      Community warm =
          MbccSearch(pg.graph, mq, MbccParams{}, opts, &warm_stats, nullptr, &ws);
      EXPECT_EQ(legacy.vertices, warm.vertices) << "seed " << seed;
      ExpectSameCounters(legacy_stats, warm_stats, "seed " + std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace bccs
