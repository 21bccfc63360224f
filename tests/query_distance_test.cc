#include "bcc/query_distance.h"

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "graph/paper_graphs.h"
#include "test_util.h"

namespace bccs {
namespace {

using testing::MakePath;
using testing::MakeRandomGraph;

TEST(BfsDistancesTest, Path) {
  LabeledGraph g = MakePath(5);
  std::vector<char> alive(5, 1);
  std::vector<std::uint32_t> dist;
  BfsDistances(g, alive, 0, &dist);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsDistancesTest, DeadSource) {
  LabeledGraph g = MakePath(3);
  std::vector<char> alive = {0, 1, 1};
  std::vector<std::uint32_t> dist;
  BfsDistances(g, alive, 0, &dist);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(dist[v], kInfDistance);
}

TEST(BfsDistancesTest, MaskBlocksPaths) {
  LabeledGraph g = MakePath(5);
  std::vector<char> alive = {1, 1, 0, 1, 1};  // cut at vertex 2
  std::vector<std::uint32_t> dist;
  BfsDistances(g, alive, 0, &dist);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kInfDistance);
  EXPECT_EQ(dist[3], kInfDistance);
  EXPECT_EQ(dist[4], kInfDistance);
}

class DistanceMapBfsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistanceMapBfsTest, MatchesVectorBfsAndLevelCounts) {
  // Random graphs with a random dead set in the mask (sometimes the source
  // itself): the level-counting BFS must give the std::vector BFS's
  // distances, count every reached vertex on its level and nothing past the
  // farthest, and leave no mark.
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed * 31 + 7);
  LabeledGraph g = MakeRandomGraph(80, 0.04 + 0.01 * static_cast<double>(seed % 5), 1, seed);
  const auto n = static_cast<VertexId>(g.NumVertices());
  DistanceMap dm;
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<char> alive(n, 1);
    for (VertexId v = 0; v < n; ++v) alive[v] = rng() % 5 != 0;
    const VertexId source = static_cast<VertexId>(rng() % n);
    std::vector<std::uint32_t> want;
    BfsDistances(g, alive, source, &want);
    BfsDistances(g, alive, source, &dm);
    std::vector<std::uint32_t> histogram;
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(dm.Get(v), want[v]) << "seed " << seed << " vertex " << v;
      ASSERT_EQ(dm.GetMark(v), DistanceMap::Mark::kNone) << "seed " << seed << " vertex " << v;
      if (want[v] == kInfDistance) continue;
      if (want[v] >= histogram.size()) histogram.resize(want[v] + 1, 0);
      ++histogram[want[v]];
    }
    ASSERT_EQ(dm.NumLevels(), histogram.size()) << "seed " << seed;
    for (std::uint32_t d = 0; d < histogram.size(); ++d) {
      ASSERT_EQ(dm.LevelCount(d), histogram[d]) << "seed " << seed << " level " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceMapBfsTest, ::testing::Range<std::uint64_t>(0, 10));

TEST(FastQueryDistanceTest, PaperTable2) {
  Figure3Graph f = MakeFigure3Graph();
  const LabeledGraph& g = f.graph;
  std::vector<char> alive(g.NumVertices(), 1);
  std::vector<std::uint32_t> dl, dr;
  BfsDistances(g, alive, f.ql, &dl);
  BfsDistances(g, alive, f.qr, &dr);

  // Table 2, rows "q_l" and "q_r" before the deletion.
  for (VertexId v : {f.v1, f.v2, f.v3}) EXPECT_EQ(dl[v], 1u);
  for (VertexId v : {f.u2, f.u3, f.u5, f.u6}) EXPECT_EQ(dl[v], 2u);
  for (VertexId v : {f.qr, f.u1, f.u4, f.u7}) EXPECT_EQ(dl[v], 3u);
  EXPECT_EQ(dl[f.u9], 4u);

  for (VertexId v : {f.u1, f.u2, f.u3, f.u9}) EXPECT_EQ(dr[v], 1u);
  for (VertexId v : {f.v1, f.v3, f.u4, f.u5, f.u7}) EXPECT_EQ(dr[v], 2u);
  for (VertexId v : {f.ql, f.v2, f.u6}) EXPECT_EQ(dr[v], 3u);

  // Delete u9 (the unique farthest vertex) and repair with Algorithm 5.
  alive[f.u9] = 0;
  const VertexId removed[] = {f.u9};
  UpdateDistancesAfterDeletion(g, alive, removed, &dl);
  UpdateDistancesAfterDeletion(g, alive, removed, &dr);

  // "after the deletion of u9": q_l row unchanged, q_r row has u4 and u7
  // moving from distance 2 to 3 (the bold entries of Table 2).
  for (VertexId v : {f.v1, f.v2, f.v3}) EXPECT_EQ(dl[v], 1u);
  for (VertexId v : {f.u2, f.u3, f.u5, f.u6}) EXPECT_EQ(dl[v], 2u);
  for (VertexId v : {f.qr, f.u1, f.u4, f.u7}) EXPECT_EQ(dl[v], 3u);
  EXPECT_EQ(dl[f.u9], kInfDistance);

  for (VertexId v : {f.u1, f.u2, f.u3}) EXPECT_EQ(dr[v], 1u);
  for (VertexId v : {f.v1, f.v3, f.u5}) EXPECT_EQ(dr[v], 2u);
  for (VertexId v : {f.ql, f.v2, f.u6, f.u4, f.u7}) EXPECT_EQ(dr[v], 3u);
  EXPECT_EQ(dr[f.u9], kInfDistance);

  // The level-counted DistanceMap repair gives the same rows and reports
  // exactly the moved vertices: u4 and u7 for q_r, none for q_l.
  const std::vector<char> all_alive(g.NumVertices(), 1);
  DistanceMap ml, mr;
  BfsDistances(g, all_alive, f.ql, &ml);
  BfsDistances(g, all_alive, f.qr, &mr);
  std::vector<VertexId> changed_l, changed_r;
  UpdateDistancesAfterDeletion(g, alive, removed, &ml, &changed_l);
  UpdateDistancesAfterDeletion(g, alive, removed, &mr, &changed_r);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(ml.Get(v), dl[v]) << "q_l row, vertex " << v;
    EXPECT_EQ(mr.Get(v), dr[v]) << "q_r row, vertex " << v;
  }
  EXPECT_TRUE(changed_l.empty());
  std::vector<VertexId> expected_r = {f.u4, f.u7};
  std::sort(expected_r.begin(), expected_r.end());
  std::sort(changed_r.begin(), changed_r.end());
  EXPECT_EQ(changed_r, expected_r);
}

// Source 0; levels 1 = {1, 4}, 2 = {2, 5}, 3 = {3}. Vertex 3 sits alone on
// the farthest level with 2 as its only parent, as a query vertex can sit
// alone on the other query's farthest level when the peel deletes around it.
LabeledGraph MakeLoneFarthestGraph() {
  return LabeledGraph::FromEdges(6, {{0, 1}, {0, 4}, {1, 2}, {4, 5}, {2, 3}},
                                 std::vector<Label>(6, 0));
}

TEST(DistanceMapRepairTest, LoneFarthestVertexLosingItsOnlyParentIsOrphaned) {
  const LabeledGraph g = MakeLoneFarthestGraph();
  std::vector<char> alive(6, 1);
  DistanceMap dm;
  BfsDistances(g, alive, 0, &dm);
  ASSERT_EQ(dm.Get(3), 3u);
  ASSERT_EQ(dm.LevelCount(3), 1u);

  alive[2] = 0;
  const VertexId removed[] = {2};
  std::vector<VertexId> changed;
  UpdateDistancesAfterDeletion(g, alive, removed, &dm, &changed);
  EXPECT_EQ(changed, std::vector<VertexId>{3});
  EXPECT_EQ(dm.Get(3), kInfDistance);
  EXPECT_EQ(dm.GetMark(3), DistanceMap::Mark::kNone);
  EXPECT_EQ(dm.LevelCount(2), 1u);  // 5 stays
  EXPECT_EQ(dm.LevelCount(3), 0u);
  for (VertexId v : {0u, 1u, 4u, 5u}) EXPECT_NE(dm.Get(v), kInfDistance) << v;
}

TEST(DistanceMapRepairTest, DeletingTheOutermostLevelReadsNoAdjacency) {
  // Nothing lies one level beyond the deleted vertices, so no vertex can
  // lose a parent: the repair reads no adjacency list and moves nothing.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const LabeledGraph g = MakeRandomGraph(80, 0.05, 1, seed);
    std::vector<char> alive(g.NumVertices(), 1);
    DistanceMap dm;
    BfsDistances(g, alive, 0, &dm);
    const auto outermost = static_cast<std::uint32_t>(dm.NumLevels() - 1);
    ASSERT_GT(outermost, 0u) << "seed " << seed;
    std::vector<VertexId> removed;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (dm.Get(v) == outermost) removed.push_back(v);
    }
    for (VertexId v : removed) alive[v] = 0;
    std::vector<VertexId> changed;
    EXPECT_EQ(UpdateDistancesAfterDeletion(g, alive, removed, &dm, &changed), 0u)
        << "seed " << seed;
    EXPECT_TRUE(changed.empty()) << "seed " << seed;
    EXPECT_EQ(dm.LevelCount(outermost), 0u) << "seed " << seed;
    std::vector<std::uint32_t> fresh;
    BfsDistances(g, alive, 0, &fresh);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ASSERT_EQ(dm.Get(v), fresh[v]) << "seed " << seed << " vertex " << v;
    }
  }
}

TEST(DistanceMapAuditDeathTest, CorruptLevelCountOrLeftoverMarkAborts) {
#if BCCS_DCHECK_IS_ON
  const LabeledGraph g = MakeLoneFarthestGraph();
  const std::vector<char> alive(6, 1);
  DistanceMap dm;
  BfsDistances(g, alive, 0, &dm);
  AuditDistanceMap(g, alive, 0, dm);  // a fresh map passes

  DistanceMap extra_count = dm;
  extra_count.AddToLevel(2);
  EXPECT_DEATH(AuditDistanceMap(g, alive, 0, extra_count), "level audit");
  DistanceMap extra_level = dm;
  extra_level.AddToLevel(5);
  EXPECT_DEATH(AuditDistanceMap(g, alive, 0, extra_level), "level audit");
  DistanceMap leftover_mark = dm;
  leftover_mark.Set(3, 3, DistanceMap::Mark::kOrphan);
  EXPECT_DEATH(AuditDistanceMap(g, alive, 0, leftover_mark), "mark audit");
#else
  GTEST_SKIP() << "AuditDistanceMap is compiled out without DCHECKs";
#endif
}

class FastQueryDistancePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastQueryDistancePropertyTest, MatchesFullRecomputation) {
  LabeledGraph g = MakeRandomGraph(60, 0.08, 1, GetParam());
  std::mt19937_64 rng(GetParam() + 1);
  VertexId source = static_cast<VertexId>(rng() % g.NumVertices());

  std::vector<char> alive(g.NumVertices(), 1);
  std::vector<std::uint32_t> incremental;
  BfsDistances(g, alive, source, &incremental);

  // Random deletion batches, never deleting the source.
  std::vector<VertexId> pool;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (v != source) pool.push_back(v);
  }
  std::shuffle(pool.begin(), pool.end(), rng);

  std::size_t cursor = 0;
  while (cursor < pool.size()) {
    std::size_t batch_size = 1 + rng() % 4;
    std::vector<VertexId> batch;
    for (std::size_t i = 0; i < batch_size && cursor < pool.size(); ++i) {
      batch.push_back(pool[cursor++]);
    }
    for (VertexId v : batch) alive[v] = 0;
    UpdateDistancesAfterDeletion(g, alive, batch, &incremental);

    std::vector<std::uint32_t> fresh;
    BfsDistances(g, alive, source, &fresh);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ASSERT_EQ(incremental[v], fresh[v])
          << "vertex " << v << " after " << cursor << " deletions, seed " << GetParam();
    }
  }
}

TEST_P(FastQueryDistancePropertyTest, DistancesNeverDecrease) {
  LabeledGraph g = MakeRandomGraph(40, 0.12, 1, GetParam() + 333);
  std::mt19937_64 rng(GetParam());
  VertexId source = 0;
  std::vector<char> alive(g.NumVertices(), 1);
  std::vector<std::uint32_t> dist;
  BfsDistances(g, alive, source, &dist);
  for (int step = 0; step < 10; ++step) {
    VertexId victim = static_cast<VertexId>(1 + rng() % (g.NumVertices() - 1));
    if (!alive[victim]) continue;
    auto before = dist;
    alive[victim] = 0;
    const VertexId removed[] = {victim};
    UpdateDistancesAfterDeletion(g, alive, removed, &dist);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (!alive[v]) continue;
      if (before[v] == kInfDistance) {
        EXPECT_EQ(dist[v], kInfDistance);
      } else {
        EXPECT_GE(dist[v], before[v]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastQueryDistancePropertyTest,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace bccs
