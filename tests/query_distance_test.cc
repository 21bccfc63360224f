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

  // The support-counted DistanceMap repair gives the same rows and reports
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
