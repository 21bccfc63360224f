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

// Plain reference for RemoveAndMaintain: a FIFO cascade over a separate
// queued mask and degree array, the kernel's semantics spelled out.
struct ReferenceCascade {
  const CandidateGraph* cg;
  std::vector<std::uint32_t> ks;
  std::vector<char> alive, queued;
  std::vector<std::uint32_t> deg;

  ReferenceCascade(const CandidateGraph& g, std::vector<std::uint32_t> k)
      : cg(&g), ks(std::move(k)), alive(g.NumVertices(), 1), queued(g.NumVertices(), 0),
        deg(g.NumVertices(), 0) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      deg[v] = static_cast<std::uint32_t>(g.NeighborsIn(v, g.GroupOf(v)).size());
    }
  }

  std::vector<VertexId> Remove(const std::vector<VertexId>& batch) {
    std::vector<VertexId> queue;
    for (VertexId v : batch) {
      if (alive[v] && !queued[v]) {
        queued[v] = 1;
        queue.push_back(v);
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const VertexId v = queue[head];
      const std::uint32_t gi = cg->GroupOf(v);
      alive[v] = 0;
      for (VertexId w : cg->NeighborsIn(v, gi)) {
        if (!alive[w] || queued[w]) continue;
        if (--deg[w] < ks[gi]) {
          queued[w] = 1;
          queue.push_back(w);
        }
      }
    }
    return queue;
  }
};

class CascadeReferenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CascadeReferenceTest, MatchesReferenceOverRounds) {
  // Three labels as three groups; each group's core parameter is drawn at
  // random, so some candidates are not cores to begin with (a vertex below
  // k only leaves once a neighbour does, as in the kernel).
  const std::uint64_t seed = GetParam();
  LabeledGraph g = MakeRandomGraph(90, 0.12, 3, seed);
  std::vector<std::vector<VertexId>> groups(3);
  for (Label l = 0; l < 3; ++l) {
    groups[l].assign(g.VerticesWithLabel(l).begin(), g.VerticesWithLabel(l).end());
  }
  auto cg = MakeCandidate(g, groups);
  std::mt19937_64 rng(seed * 7 + 1);
  std::vector<std::uint32_t> ks(3);
  for (auto& k : ks) k = static_cast<std::uint32_t>(rng() % 4);
  QueryWorkspace ws;
  GroupedCandidate cand(*cg, ks, ws);
  ReferenceCascade ref(*cg, ks);
  const std::size_t n = cg->NumVertices();
  for (int round = 0; round < 40 && cand.NumAlive() > 0; ++round) {
    // A batch of random ids: alive or dead, with duplicates.
    std::vector<VertexId> batch;
    const std::size_t size = 1 + rng() % 4;
    for (std::size_t i = 0; i < size; ++i) batch.push_back(static_cast<VertexId>(rng() % n));
    if (rng() % 2 == 0) batch.push_back(batch.front());
    const std::vector<VertexId> removed = cand.RemoveAndMaintain(batch);
    ASSERT_EQ(removed, ref.Remove(batch)) << "seed " << seed << " round " << round;
    std::size_t alive = 0;
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(cand.IsAlive(v), ref.alive[v] != 0) << "vertex " << v;
      ASSERT_EQ(cand.alive()[v], ref.alive[v]);
      if (!ref.alive[v]) continue;
      ++alive;
      ASSERT_EQ(cand.GroupDegree(v), ref.deg[v]) << "vertex " << v << " round " << round;
    }
    ASSERT_EQ(cand.NumAlive(), alive);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CascadeReferenceTest, ::testing::Range<std::uint64_t>(0, 8));

TEST(GroupedCandidateTest, ExpiredDeadlineLeavesConsistentState) {
  // One group, a cycle at k = 2: removing one vertex collapses the whole
  // cycle. An already-expired deadline stops the cascade at its first poll
  // (after 2047 steps), with both frontier ends still queued.
  const std::size_t n = 6000;
  LabeledGraph g = testing::MakeCycle(n);
  auto cg = MakeCandidate(g, {testing::AllVertices(g)});
  QueryWorkspace ws;
  GroupedCandidate cand(*cg, {2}, ws);
  const Deadline expired_deadline = Deadline::After(-1.0);
  bool expired = false;
  const VertexId batch[] = {0};
  const std::vector<VertexId> removed =
      cand.RemoveAndMaintain(batch, [](VertexId) {}, &expired_deadline, &expired);
  ASSERT_TRUE(expired);
  ASSERT_FALSE(removed.empty());
  ASSERT_LT(removed.size(), n);
  // Exactly the returned vertices are dead; every other vertex is alive
  // with its degree among alive vertices.
  std::vector<char> dead(n, 0);
  for (VertexId v : removed) dead[v] = 1;
  EXPECT_EQ(cand.NumAlive(), n - removed.size());
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_EQ(cand.IsAlive(v), dead[v] == 0) << "vertex " << v;
    if (dead[v]) continue;
    std::uint32_t deg = 0;
    for (VertexId w : cg->NeighborsIn(v, 0)) deg += dead[w] == 0;
    EXPECT_EQ(cand.GroupDegree(v), deg) << "vertex " << v;
  }
  // The vertices queued but not processed can still be removed.
  std::vector<VertexId> rest;
  for (VertexId v = 0; v < n; ++v) {
    if (cand.IsAlive(v)) rest.push_back(v);
  }
  EXPECT_EQ(cand.RemoveAndMaintain(rest).size(), rest.size());
  EXPECT_EQ(cand.NumAlive(), 0u);
}

}  // namespace
}  // namespace bccs
