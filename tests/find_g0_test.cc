#include "bcc/find_g0.h"

#include <gtest/gtest.h>

#include "core/core_decomposition.h"
#include "graph/paper_graphs.h"
#include "test_util.h"

namespace bccs {
namespace {

TEST(FindG0Test, PaperFigure1) {
  Figure1Graph f = MakeFigure1Graph();
  BccQuery q{f.ql, f.qr};
  BccParams p{4, 3, 1};
  SearchStats stats;
  G0Result g0 = FindG0(f.graph, q, p, &stats);
  ASSERT_TRUE(g0.found);
  // L = {ql, v1..v5}, R = {qr, u1..u3} (the paper's Figure 2).
  EXPECT_EQ(g0.left, (std::vector<VertexId>{f.ql, f.v1, f.v2, f.v3, f.v4, f.v5}));
  EXPECT_EQ(g0.right, (std::vector<VertexId>{f.qr, f.u1, f.u2, f.u3}));
  // Example 1/2: B is the single butterfly {ql, v5} x {qr, u3}. chi is
  // indexed by the candidate graph's local ids.
  auto chi = [&](VertexId v) { return g0.counts.chi[g0.graph->ToLocal(v)]; };
  EXPECT_EQ(g0.counts.total, 1u);
  EXPECT_EQ(chi(f.ql), 1u);
  EXPECT_EQ(chi(f.v5), 1u);
  EXPECT_EQ(chi(f.qr), 1u);
  EXPECT_EQ(chi(f.u3), 1u);
  EXPECT_EQ(chi(f.v1), 0u);
  EXPECT_EQ(stats.butterfly_counting_calls, 1u);
}

TEST(FindG0Test, AutoParametersUseQueryCoreness) {
  Figure1Graph f = MakeFigure1Graph();
  BccQuery q{f.ql, f.qr};
  BccParams p;  // k1 = k2 = 0 (auto), b = 1
  G0Result g0 = FindG0(f.graph, q, p, nullptr);
  ASSERT_TRUE(g0.found);
  EXPECT_EQ(g0.k1, 4u);
  EXPECT_EQ(g0.k2, 3u);
}

TEST(FindG0Test, ButterflyThresholdTooHigh) {
  Figure1Graph f = MakeFigure1Graph();
  BccQuery q{f.ql, f.qr};
  BccParams p{4, 3, 2};  // only one butterfly exists
  G0Result g0 = FindG0(f.graph, q, p, nullptr);
  EXPECT_FALSE(g0.found);
}

TEST(FindG0Test, CoreTooHigh) {
  Figure1Graph f = MakeFigure1Graph();
  BccQuery q{f.ql, f.qr};
  BccParams p{5, 3, 1};  // the SE side has no 5-core
  EXPECT_FALSE(FindG0(f.graph, q, p, nullptr).found);
}

TEST(FindG0Test, SameLabelQueriesRejected) {
  Figure1Graph f = MakeFigure1Graph();
  BccQuery q{f.ql, f.v1};
  EXPECT_FALSE(FindG0(f.graph, q, BccParams{}, nullptr).found);
}

TEST(FindG0Test, JuniorBiasedQueriesFindSameCommunity) {
  // Section 3.3: whether queries are leaders or juniors, the underlying
  // community is identical.
  Figure1Graph f = MakeFigure1Graph();
  BccParams p{4, 3, 1};
  G0Result leader = FindG0(f.graph, BccQuery{f.ql, f.qr}, p, nullptr);
  G0Result junior = FindG0(f.graph, BccQuery{f.v1, f.u1}, p, nullptr);
  ASSERT_TRUE(leader.found);
  ASSERT_TRUE(junior.found);
  EXPECT_EQ(leader.left, junior.left);
  EXPECT_EQ(leader.right, junior.right);
}

TEST(FindG0Test, RestrictionMaskLimitsSearch) {
  Figure1Graph f = MakeFigure1Graph();
  BccQuery q{f.ql, f.qr};
  BccParams p{4, 3, 1};
  // Restrict away v5: the left 4-core collapses (K6 minus a matching minus a
  // vertex is 3-regular at best), so no BCC exists in the restriction.
  std::vector<char> restrict_to(f.graph.NumVertices(), 1);
  restrict_to[f.v5] = 0;
  EXPECT_FALSE(FindG0Restricted(f.graph, q, p, &restrict_to, nullptr).found);
  // Full restriction mask reproduces the unrestricted result.
  restrict_to[f.v5] = 1;
  G0Result g0 = FindG0Restricted(f.graph, q, p, &restrict_to, nullptr);
  ASSERT_TRUE(g0.found);
  EXPECT_EQ(g0.left.size(), 6u);
}

TEST(FindG0Test, ComponentRestriction) {
  // Two parallel butterfly-core communities with the same labels but no
  // connection between them: G0 must contain only the query's component.
  std::vector<Edge> edges;
  std::vector<Label> labels(12);
  // Community A: left triangle {0,1,2}, right triangle {3,4,5}, butterfly.
  // Community B: identical on {6..11}.
  for (VertexId base : {0u, 6u}) {
    edges.push_back({base + 0, base + 1});
    edges.push_back({base + 1, base + 2});
    edges.push_back({base + 0, base + 2});
    edges.push_back({base + 3, base + 4});
    edges.push_back({base + 4, base + 5});
    edges.push_back({base + 3, base + 5});
    edges.push_back({base + 0, base + 3});
    edges.push_back({base + 0, base + 4});
    edges.push_back({base + 1, base + 3});
    edges.push_back({base + 1, base + 4});
    for (int i = 0; i < 3; ++i) {
      labels[base + i] = 0;
      labels[base + 3 + i] = 1;
    }
  }
  LabeledGraph g = LabeledGraph::FromEdges(12, std::move(edges), std::move(labels));
  G0Result g0 = FindG0(g, BccQuery{0, 3}, BccParams{2, 2, 1}, nullptr);
  ASSERT_TRUE(g0.found);
  EXPECT_EQ(g0.left, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(g0.right, (std::vector<VertexId>{3, 4, 5}));
}

TEST(FindG0Test, QueryNotInCore) {
  // Pendant left vertex (degree 1 inside its label group) cannot be in a
  // 2-core, so the search must fail.
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 1}, {0, 4}, {4, 5}, {5, 0}};
  LabeledGraph g = LabeledGraph::FromEdges(6, std::move(edges), {0, 0, 0, 0, 1, 1});
  EXPECT_FALSE(FindG0(g, BccQuery{0, 4}, BccParams{2, 1, 1}, nullptr).found);
}

}  // namespace
}  // namespace bccs
