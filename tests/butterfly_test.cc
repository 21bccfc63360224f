#include "butterfly/butterfly_counting.h"

#include <gtest/gtest.h>

#include "bcc/workspace.h"
#include "butterfly/butterfly_update.h"
#include "graph/generators.h"
#include "graph/paper_graphs.h"
#include "test_util.h"

namespace bccs {
namespace {

using testing::MakeRandomGraph;
using testing::MaskOf;
using testing::NaiveButterflies;

// Complete bipartite K_{a,b}: a left vertex sits in (a-1) * C(b,2)
// butterflies; total = C(a,2) * C(b,2).
TEST(ButterflyCountingTest, CompleteBipartite) {
  for (std::size_t a : {2u, 3u, 5u}) {
    for (std::size_t b : {2u, 4u}) {
      LabeledGraph g = GenerateRandomBipartite(a, b, 1.0, 1);
      std::vector<VertexId> left, right;
      for (VertexId v = 0; v < a; ++v) left.push_back(v);
      for (VertexId v = 0; v < b; ++v) right.push_back(static_cast<VertexId>(a + v));
      auto counts = CountButterflies(g, left, right, MaskOf(g, left), MaskOf(g, right));
      auto choose2 = [](std::size_t n) { return n * (n - 1) / 2; };
      for (VertexId v : left) {
        EXPECT_EQ(counts.chi[v], (a - 1) * choose2(b)) << "a=" << a << " b=" << b;
      }
      for (VertexId v : right) {
        EXPECT_EQ(counts.chi[v], (b - 1) * choose2(a)) << "a=" << a << " b=" << b;
      }
      EXPECT_EQ(counts.total, choose2(a) * choose2(b));
    }
  }
}

TEST(ButterflyCountingTest, SingleButterfly) {
  LabeledGraph g = GenerateRandomBipartite(2, 2, 1.0, 1);
  std::vector<VertexId> left = {0, 1}, right = {2, 3};
  auto counts = CountButterflies(g, left, right, MaskOf(g, left), MaskOf(g, right));
  EXPECT_EQ(counts.total, 1u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(counts.chi[v], 1u);
  EXPECT_EQ(counts.max_left, 1u);
  EXPECT_EQ(counts.max_right, 1u);
}

TEST(ButterflyCountingTest, NoButterflyInTree) {
  // A star from one left vertex has no 2x2 biclique.
  std::vector<Edge> edges = {{0, 2}, {0, 3}, {1, 2}};
  LabeledGraph g = LabeledGraph::FromEdges(4, std::move(edges), {0, 0, 1, 1});
  std::vector<VertexId> left = {0, 1}, right = {2, 3};
  auto counts = CountButterflies(g, left, right, MaskOf(g, left), MaskOf(g, right));
  EXPECT_EQ(counts.total, 0u);
  EXPECT_EQ(counts.max_left, 0u);
}

TEST(ButterflyCountingTest, MasksExcludeDeadVertices) {
  LabeledGraph g = GenerateRandomBipartite(3, 3, 1.0, 1);  // K_{3,3}
  std::vector<VertexId> left = {0, 1, 2}, right = {3, 4, 5};
  auto in_left = MaskOf(g, left);
  auto in_right = MaskOf(g, right);
  in_left[2] = 0;  // kill one left vertex -> K_{2,3}
  auto counts = CountButterflies(g, left, right, in_left, in_right);
  EXPECT_EQ(counts.total, 3u);  // C(2,2)*C(3,2)
  EXPECT_EQ(counts.chi[2], 0u);
}

TEST(ButterflyCountingTest, PaperFigure3Degrees) {
  Figure3Graph f = MakeFigure3Graph();
  std::vector<VertexId> left = {f.ql, f.v1, f.v2, f.v3};
  std::vector<VertexId> right = {f.qr, f.u1, f.u2, f.u3, f.u4, f.u5, f.u6, f.u7, f.u9};
  auto counts =
      CountButterflies(f.graph, left, right, MaskOf(f.graph, left), MaskOf(f.graph, right));
  // Example 5: "the non-zero butterfly degrees are chi(v1) = chi(v3) = 6 and
  // chi(u2) = chi(u3) = chi(u5) = chi(u6) = 3".
  EXPECT_EQ(counts.chi[f.v1], 6u);
  EXPECT_EQ(counts.chi[f.v3], 6u);
  EXPECT_EQ(counts.chi[f.u2], 3u);
  EXPECT_EQ(counts.chi[f.u3], 3u);
  EXPECT_EQ(counts.chi[f.u5], 3u);
  EXPECT_EQ(counts.chi[f.u6], 3u);
  EXPECT_EQ(counts.chi[f.ql], 0u);
  EXPECT_EQ(counts.chi[f.v2], 0u);
  EXPECT_EQ(counts.chi[f.qr], 0u);
  EXPECT_EQ(counts.chi[f.u1], 0u);
  EXPECT_EQ(counts.chi[f.u9], 0u);
  EXPECT_EQ(counts.max_left, 6u);
  EXPECT_EQ(counts.max_right, 3u);
}

class ButterflyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ButterflyPropertyTest, MatchesBruteForceEnumeration) {
  LabeledGraph g = GenerateRandomBipartite(12, 10, 0.35, GetParam());
  std::vector<VertexId> left, right;
  for (VertexId v = 0; v < 12; ++v) left.push_back(v);
  for (VertexId v = 12; v < 22; ++v) right.push_back(v);
  auto counts = CountButterflies(g, left, right, MaskOf(g, left), MaskOf(g, right));
  auto naive = NaiveButterflies(g, left, right);
  std::uint64_t naive_total = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(counts.chi[v], naive[v]) << "vertex " << v;
    naive_total += naive[v];
  }
  EXPECT_EQ(counts.total, naive_total / 4);

  auto brute = CountButterfliesBruteForce(g, left, right, MaskOf(g, left), MaskOf(g, right));
  for (VertexId v = 0; v < g.NumVertices(); ++v) EXPECT_EQ(brute.chi[v], naive[v]);
  EXPECT_EQ(brute.total, counts.total);
}

TEST_P(ButterflyPropertyTest, LeaderUpdateMatchesRecount) {
  LabeledGraph g = GenerateRandomBipartite(10, 10, 0.4, GetParam() + 900);
  std::vector<VertexId> left, right;
  for (VertexId v = 0; v < 10; ++v) left.push_back(v);
  for (VertexId v = 10; v < 20; ++v) right.push_back(v);
  auto in_left = MaskOf(g, left);
  auto in_right = MaskOf(g, right);
  // Groups 0..9 and 10..19 keep their ids as candidate-local ids.
  auto cg = testing::MakeCandidate(g, {left, right});
  std::vector<char> alive(20, 1);

  QueryWorkspace ws;
  LeaderButterflyUpdater updater(*cg, ws.LeaderStamp(cg->NumVertices()),
                                 ws.LeaderStampCounter());
  std::mt19937_64 rng(GetParam());
  // Track one leader per side through a random deletion sequence.
  VertexId leader_l = left[rng() % left.size()];
  VertexId leader_r = right[rng() % right.size()];
  auto counts = CountButterflies(g, left, right, in_left, in_right);
  std::uint64_t chi_l = counts.chi[leader_l];
  std::uint64_t chi_r = counts.chi[leader_r];

  std::vector<VertexId> order;
  for (VertexId v = 0; v < 20; ++v) {
    if (v != leader_l && v != leader_r) order.push_back(v);
  }
  std::shuffle(order.begin(), order.end(), rng);

  for (VertexId victim : order) {
    chi_l -= updater.LossOnDeletion(alive, 0, 1, leader_l, victim);
    chi_r -= updater.LossOnDeletion(alive, 0, 1, leader_r, victim);
    (victim < 10 ? in_left : in_right)[victim] = 0;
    alive[victim] = 0;
    auto fresh = CountButterflies(g, left, right, in_left, in_right);
    ASSERT_EQ(chi_l, fresh.chi[leader_l]) << "victim " << victim;
    ASSERT_EQ(chi_r, fresh.chi[leader_r]) << "victim " << victim;
  }
}

TEST_P(ButterflyPropertyTest, CachedLeaderMarksMatchRecountAcrossThreePairs) {
  // mBCC's call pattern on one updater: three label groups, one leader per
  // side of each pair (0,1), (0,2), (1,2), updated in the peel engine's order for
  // every removal. Two leaders stamp each label group, and group 0's leader
  // serves both of its pairs, so cached markings evict one another.
  LabeledGraph g = MakeRandomGraph(36, 0.35, 3, GetParam() + 1300);
  std::vector<std::vector<VertexId>> groups(3);
  for (VertexId v = 0; v < g.NumVertices(); ++v) groups[g.LabelOf(v)].push_back(v);
  std::vector<std::vector<char>> masks;
  for (const auto& grp : groups) masks.push_back(MaskOf(g, grp));

  struct Pair {
    std::size_t i, j;
    VertexId leader[2];
    std::uint64_t chi[2];
  };
  std::mt19937_64 rng(GetParam() + 77);
  auto pick = [&](std::size_t grp) { return groups[grp][rng() % groups[grp].size()]; };
  const VertexId shared = pick(0);
  std::vector<Pair> pairs = {{0, 1, {shared, pick(1)}, {}},
                             {0, 2, {shared, pick(2)}, {}},
                             {1, 2, {pick(1), pick(2)}, {}}};
  auto counts_of = [&](const Pair& ps) {
    return CountButterflies(g, groups[ps.i], groups[ps.j], masks[ps.i], masks[ps.j]);
  };
  for (Pair& ps : pairs) {
    ButterflyCounts c = counts_of(ps);
    for (int s = 0; s < 2; ++s) ps.chi[s] = c.chi[ps.leader[s]];
  }

  // The updater runs on candidate-local ids; group i is label i.
  auto cg = testing::MakeCandidate(g, groups);
  std::vector<char> alive(g.NumVertices(), 1);
  QueryWorkspace ws;
  LeaderButterflyUpdater updater(*cg, ws.LeaderStamp(cg->NumVertices()),
                                 ws.LeaderStampCounter());
  std::vector<VertexId> order = testing::AllVertices(g);
  std::shuffle(order.begin(), order.end(), rng);
  for (VertexId victim : order) {
    const Label gv = g.LabelOf(victim);
    for (Pair& ps : pairs) {
      if (ps.i != gv && ps.j != gv) continue;
      for (int s = 0; s < 2; ++s) {
        const VertexId leader = ps.leader[s];
        if (leader == victim || !masks[g.LabelOf(leader)][leader]) continue;
        ps.chi[s] -= updater.LossOnDeletion(alive, static_cast<std::uint32_t>(ps.i),
                                            static_cast<std::uint32_t>(ps.j),
                                            cg->ToLocal(leader), cg->ToLocal(victim));
      }
    }
    masks[gv][victim] = 0;
    alive[cg->ToLocal(victim)] = 0;
    for (const Pair& ps : pairs) {
      ButterflyCounts fresh = counts_of(ps);
      for (int s = 0; s < 2; ++s) {
        const VertexId leader = ps.leader[s];
        if (!masks[g.LabelOf(leader)][leader]) continue;
        ASSERT_EQ(ps.chi[s], fresh.chi[leader])
            << "pair (" << ps.i << "," << ps.j << ") leader " << leader << " after victim "
            << victim;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ButterflyPropertyTest, ::testing::Range<std::uint64_t>(0, 8));

TEST(ButterflyUpdateTest, PaperExample6) {
  Figure3Graph f = MakeFigure3Graph();
  std::vector<VertexId> left = {f.ql, f.v1, f.v2, f.v3};
  std::vector<VertexId> right = {f.qr, f.u1, f.u2, f.u3, f.u4, f.u5, f.u6, f.u7, f.u9};
  auto cg = testing::MakeCandidate(f.graph, {left, right});
  auto local = [&](VertexId v) { return cg->ToLocal(v); };
  std::vector<char> alive(cg->NumVertices(), 1);
  QueryWorkspace ws;
  LeaderButterflyUpdater updater(*cg, ws.LeaderStamp(cg->NumVertices()),
                                 ws.LeaderStampCounter());

  // Deleting u9 has no influence on butterfly degrees.
  EXPECT_EQ(updater.LossOnDeletion(alive, 0, 1, local(f.u2), local(f.u9)), 0u);
  EXPECT_EQ(updater.LossOnDeletion(alive, 0, 1, local(f.v1), local(f.u9)), 0u);
  alive[local(f.u9)] = 0;

  // Deleting u6: same-side update for u2 loses C(2,2) = 1 (common neighbors
  // {v1, v3}); cross-side update for v1 loses 3.
  EXPECT_EQ(updater.LossOnDeletion(alive, 0, 1, local(f.u2), local(f.u6)), 1u);
  EXPECT_EQ(updater.LossOnDeletion(alive, 0, 1, local(f.v1), local(f.u6)), 3u);
}

TEST(ButterflyUpdateTest, NoEdgeNoLoss) {
  // leader and removed on different sides without an edge: loss must be 0.
  std::vector<Edge> edges = {{0, 2}, {1, 2}, {1, 3}};
  LabeledGraph g = LabeledGraph::FromEdges(4, std::move(edges), {0, 0, 1, 1});
  auto cg = testing::MakeCandidate(g, {{0, 1}, {2, 3}});  // local ids = graph ids
  std::vector<char> alive(4, 1);
  QueryWorkspace ws;
  LeaderButterflyUpdater updater(*cg, ws.LeaderStamp(cg->NumVertices()),
                                 ws.LeaderStampCounter());
  EXPECT_EQ(updater.LossOnDeletion(alive, 0, 1, 0, 3), 0u);
  EXPECT_EQ(updater.LossOnDeletion(alive, 0, 1, 0, 0), 0u);  // self
}

}  // namespace
}  // namespace bccs
