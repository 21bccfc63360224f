#include "bcc/candidate.h"

#include <gtest/gtest.h>

#include "core/core_decomposition.h"
#include "graph/paper_graphs.h"
#include "test_util.h"

namespace bccs {
namespace {

using testing::MakeCandidate;
using testing::MakeRandomGraph;

// Two labeled triangles with one cross edge.
LabeledGraph TwoTriangles() {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {0, 3}};
  return LabeledGraph::FromEdges(6, std::move(edges), {0, 0, 0, 1, 1, 1});
}

TEST(GroupedCandidateTest, ConstructionDegrees) {
  LabeledGraph g = TwoTriangles();
  auto cg = MakeCandidate(g, {{0, 1, 2}, {3, 4, 5}});  // local ids = graph ids
  QueryWorkspace ws;
  GroupedCandidate cand(*cg, {2, 2}, ws);
  EXPECT_EQ(cand.NumAlive(), 6u);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_TRUE(cand.IsAlive(v));
    // Same-group degree counts only homogeneous neighbors: the cross edge
    // (0,3) must not contribute.
    EXPECT_EQ(cand.GroupDegree(v), 2u);
  }
  EXPECT_EQ(cand.GroupOf(0), 0u);
  EXPECT_EQ(cand.GroupOf(4), 1u);
}

TEST(GroupedCandidateTest, CascadeWithinGroup) {
  LabeledGraph g = TwoTriangles();
  auto cg = MakeCandidate(g, {{0, 1, 2}, {3, 4, 5}});  // local ids = graph ids
  QueryWorkspace ws;
  GroupedCandidate cand(*cg, {2, 2}, ws);
  // Removing one triangle vertex breaks the 2-core of that whole group, but
  // the other group must be untouched.
  const VertexId batch[] = {1};
  auto removed = cand.RemoveAndMaintain(batch);
  EXPECT_EQ(removed.size(), 3u);
  EXPECT_FALSE(cand.IsAlive(0));
  EXPECT_FALSE(cand.IsAlive(2));
  EXPECT_TRUE(cand.IsAlive(3));
  EXPECT_TRUE(cand.IsAlive(4));
  EXPECT_EQ(cand.NumAlive(), 3u);
}

TEST(GroupedCandidateTest, OnRemoveSeesConsistentState) {
  LabeledGraph g = TwoTriangles();
  auto cg = MakeCandidate(g, {{0, 1, 2}, {3, 4, 5}});  // local ids = graph ids
  QueryWorkspace ws;
  GroupedCandidate cand(*cg, {2, 2}, ws);
  std::vector<VertexId> order;
  const VertexId batch[] = {1};
  cand.RemoveAndMaintain(batch, [&](VertexId v) {
    // The vertex being removed is still alive at callback time; the ones
    // removed earlier are already dead.
    EXPECT_TRUE(cand.IsAlive(v));
    for (VertexId prior : order) EXPECT_FALSE(cand.IsAlive(prior));
    order.push_back(v);
  });
  EXPECT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
}

TEST(GroupedCandidateTest, RemovingDeadVertexIsNoop) {
  LabeledGraph g = TwoTriangles();
  auto cg = MakeCandidate(g, {{0, 1, 2}, {3, 4, 5}});  // local ids = graph ids
  QueryWorkspace ws;
  GroupedCandidate cand(*cg, {2, 2}, ws);
  const VertexId batch[] = {1};
  cand.RemoveAndMaintain(batch);
  auto removed = cand.RemoveAndMaintain(batch);
  EXPECT_TRUE(removed.empty());
}

TEST(GroupedCandidateTest, DuplicateBatchEntriesHandled) {
  LabeledGraph g = TwoTriangles();
  auto cg = MakeCandidate(g, {{0, 1, 2}, {3, 4, 5}});
  QueryWorkspace ws;
  GroupedCandidate cand(*cg, {0, 0}, ws);  // k = 0: no cascade
  const VertexId batch[] = {1, 1, 1};
  auto removed = cand.RemoveAndMaintain(batch);
  EXPECT_EQ(removed.size(), 1u);
  EXPECT_EQ(cand.NumAlive(), 5u);
}

class CandidatePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CandidatePropertyTest, MaintenanceMatchesRecomputation) {
  // Random two-labeled graph; candidate = per-label 2-cores; removals must
  // keep each side identical to a from-scratch k-core of the survivors.
  LabeledGraph g = MakeRandomGraph(40, 0.18, 2, GetParam());
  const std::uint32_t k = 2;
  std::vector<VertexId> left_all(g.VerticesWithLabel(0).begin(), g.VerticesWithLabel(0).end());
  std::vector<VertexId> right_all(g.VerticesWithLabel(1).begin(),
                                  g.VerticesWithLabel(1).end());
  auto left = KCoreOfSubset(g, left_all, k);
  auto right = KCoreOfSubset(g, right_all, k);
  auto cg = MakeCandidate(g, {left, right});
  QueryWorkspace ws;
  GroupedCandidate cand(*cg, {k, k}, ws);
  // The candidate's alive vertices as sorted graph ids.
  auto alive_global = [&] {
    std::vector<VertexId> out;
    for (VertexId v : cand.AliveVertices()) out.push_back(cg->ToGlobal(v));
    std::sort(out.begin(), out.end());
    return out;
  };

  std::mt19937_64 rng(GetParam() + 5);
  while (cand.NumAlive() > 0) {
    auto alive = alive_global();
    const VertexId batch[] = {alive[rng() % alive.size()]};
    const VertexId local_batch[] = {cg->ToLocal(batch[0])};
    cand.RemoveAndMaintain(local_batch);

    std::vector<VertexId> left_members, right_members;
    for (VertexId v : alive) {
      if (v == batch[0]) continue;
      (g.LabelOf(v) == 0 ? left_members : right_members).push_back(v);
    }
    auto expect_left = KCoreOfSubset(g, left_members, k);
    auto expect_right = KCoreOfSubset(g, right_members, k);
    std::vector<VertexId> expected = expect_left;
    expected.insert(expected.end(), expect_right.begin(), expect_right.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(alive_global(), expected) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidatePropertyTest, ::testing::Range<std::uint64_t>(0, 5));

}  // namespace
}  // namespace bccs
