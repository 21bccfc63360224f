// End-to-end checks against every worked example in the paper, on the
// reconstructed Figure 1/2 and Figure 3 instances.

#include <gtest/gtest.h>

#include "bcc/online_search.h"
#include "bcc/query_distance.h"
#include "bcc/verify.h"
#include "butterfly/butterfly_counting.h"
#include "core/core_decomposition.h"
#include "graph/paper_graphs.h"
#include "test_util.h"

namespace bccs {
namespace {

using testing::MaskOf;

TEST(PaperExamplesTest, Example1ButterflyDegreeOfQr) {
  // "There exists a unique butterfly B containing the vertex qr. Thus, the
  // butterfly degree of qr is chi(qr) = 1."
  Figure1Graph f = MakeFigure1Graph();
  G0Result g0 = FindG0(f.graph, BccQuery{f.ql, f.qr}, BccParams{4, 3, 1}, nullptr);
  ASSERT_TRUE(g0.found);
  EXPECT_EQ(g0.counts.chi[g0.graph->ToLocal(f.qr)], 1u);  // chi is candidate-local
}

TEST(PaperExamplesTest, Example2FourThreeOneBcc) {
  // "Figure 2 shows a (4, 3, 1)-BCC ... chi(ql) = chi(qr) = 1."
  Figure1Graph f = MakeFigure1Graph();
  Community c{f.expected_bcc};
  EXPECT_EQ(VerifyBcc(f.graph, c, BccQuery{f.ql, f.qr}, BccParams{4, 3, 1}),
            BccViolation::kNone);
}

TEST(PaperExamplesTest, Example3SearchAnswer) {
  // "Assume that the inputs Q = {ql, qr}, k1 = 4, k2 = 3, and b = 1. The
  // answer is the (4, 3, 1)-butterfly-core community ... shown in Figure 2."
  Figure1Graph f = MakeFigure1Graph();
  EXPECT_EQ(OnlineBcc(f.graph, BccQuery{f.ql, f.qr}, BccParams{4, 3, 1}).vertices,
            f.expected_bcc);
}

TEST(PaperExamplesTest, Example4FastDistanceUpdateSets) {
  // Example 4 walks Algorithm 5 after deleting u9: for ql, S_u is empty; for
  // qr, d_min = 1, S_s = {u1, u2, u3} and S_u = {ql, v1, v2, v3, u4, u5,
  // u6, u7}.
  Figure3Graph f = MakeFigure3Graph();
  const LabeledGraph& g = f.graph;
  std::vector<char> alive(g.NumVertices(), 1);
  std::vector<std::uint32_t> dl, dr;
  BfsDistances(g, alive, f.ql, &dl);
  BfsDistances(g, alive, f.qr, &dr);

  // u9 is the unique farthest vertex from Q (dist 4 from ql).
  std::uint32_t max_qd = 0;
  VertexId farthest = kInvalidVertex;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::uint32_t qd = std::max(dl[v], dr[v]);
    if (qd > max_qd) {
      max_qd = qd;
      farthest = v;
    }
  }
  EXPECT_EQ(farthest, f.u9);
  EXPECT_EQ(max_qd, 4u);

  // For ql: d_min = dist(u9, ql) = 4 is the maximum, so no vertex has a
  // larger distance (S_u = empty set).
  std::uint32_t count_beyond = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (v != f.u9 && dl[v] > 4) ++count_beyond;
  }
  EXPECT_EQ(count_beyond, 0u);

  // For qr: d_min = 1 and S_u has exactly 8 members.
  EXPECT_EQ(dr[f.u9], 1u);
  std::vector<VertexId> su;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (v != f.u9 && dr[v] > 1) su.push_back(v);
  }
  std::vector<VertexId> expected_su = {f.ql, f.v1, f.v2, f.v3, f.u4, f.u5, f.u6, f.u7};
  std::sort(expected_su.begin(), expected_su.end());
  EXPECT_EQ(su, expected_su);
}

TEST(PaperExamplesTest, Example5LeaderPairIsV1U2) {
  // Covered in detail by leader_pair_test; assert the headline here: the
  // leader pair of Figure 3 is {v1, u2}.
  Figure3Graph f = MakeFigure3Graph();
  std::vector<VertexId> left = {f.ql, f.v1, f.v2, f.v3};
  std::vector<VertexId> right = {f.qr, f.u1, f.u2, f.u3, f.u4, f.u5, f.u6, f.u7, f.u9};
  auto counts =
      CountButterflies(f.graph, left, right, MaskOf(f.graph, left), MaskOf(f.graph, right));
  EXPECT_EQ(counts.max_left, 6u);
  EXPECT_EQ(counts.max_right, 3u);
  EXPECT_TRUE(counts.argmax_left == f.v1 || counts.argmax_left == f.v3);
  EXPECT_TRUE(counts.argmax_right == f.u2 || counts.argmax_right == f.u3 ||
              counts.argmax_right == f.u5 || counts.argmax_right == f.u6);
}

TEST(PaperExamplesTest, Example6UpdatedDegrees) {
  // "the updated butterfly degree is chi(u2) = 3 - 1 = 2 ... chi(v1) =
  // 6 - 3 = 3": verified by recounting after actually deleting u6.
  Figure3Graph f = MakeFigure3Graph();
  std::vector<VertexId> left = {f.ql, f.v1, f.v2, f.v3};
  std::vector<VertexId> right = {f.qr, f.u1, f.u2, f.u3, f.u4, f.u5, f.u6, f.u7, f.u9};
  auto in_left = MaskOf(f.graph, left);
  auto in_right = MaskOf(f.graph, right);
  in_right[f.u9] = 0;  // Example 6 happens after u9 was deleted
  in_right[f.u6] = 0;  // delete u6
  auto counts = CountButterflies(f.graph, left, right, in_left, in_right);
  EXPECT_EQ(counts.chi[f.u2], 2u);
  EXPECT_EQ(counts.chi[f.v1], 3u);
}

TEST(PaperExamplesTest, Figure1WholeGraphMinDegreeThree) {
  // "Each vertex on G has a degree of at least 3" (Section 1).
  Figure1Graph f = MakeFigure1Graph();
  for (VertexId v = 0; v < f.graph.NumVertices(); ++v) {
    EXPECT_GE(f.graph.Degree(v), 3u) << "vertex " << v;
  }
}

TEST(PaperExamplesTest, Figure1CoreValues) {
  // "the maximum core value of ql, qr are 4 and 3 respectively" — within
  // their label groups (the coreness the BCC model uses).
  Figure1Graph f = MakeFigure1Graph();
  auto core = LabelCoreness(f.graph);
  EXPECT_EQ(core[f.ql], 4u);
  EXPECT_EQ(core[f.qr], 3u);
}

TEST(PaperExamplesTest, Figure2SidesAreCores) {
  // "L is a 4-core ... R is the 3-core" — inside the answer, every left
  // vertex has >= 4 same-label neighbors and every right vertex >= 3.
  Figure1Graph f = MakeFigure1Graph();
  auto mask = MaskOf(f.graph, f.expected_bcc);
  for (VertexId v : f.expected_bcc) {
    std::uint32_t same = 0;
    for (VertexId w : f.graph.Neighbors(v)) {
      if (mask[w] && f.graph.LabelOf(w) == f.graph.LabelOf(v)) ++same;
    }
    if (f.graph.LabelOf(v) == f.se) {
      EXPECT_GE(same, 4u);
    } else {
      EXPECT_GE(same, 3u);
    }
  }
}

}  // namespace
}  // namespace bccs
