#include "bcc/leader_pair.h"

#include <gtest/gtest.h>

#include "butterfly/butterfly_counting.h"
#include "graph/paper_graphs.h"
#include "test_util.h"

namespace bccs {
namespace {

// Algorithm 6 runs on a candidate graph: the fixtures build G[left ∪ right],
// count its butterflies, and translate queries and leaders to graph ids.
struct CandidateSetup {
  std::unique_ptr<CandidateGraph> cg;
  std::vector<char> alive;
  ButterflyCounts counts;  // candidate-local ids

  CandidateSetup(const LabeledGraph& g, const std::vector<VertexId>& left,
                 const std::vector<VertexId>& right)
      : cg(testing::MakeCandidate(g, {left, right})), alive(cg->NumVertices(), 1) {
    CountButterfliesInto(*cg, 0, 1, nullptr, nullptr, &counts);
  }

  /// Leader of graph vertex `q`'s side, reported as a graph id.
  LeaderState Leader(VertexId q, std::uint32_t rho) const {
    const VertexId lq = cg->ToLocal(q);
    const bool left = cg->GroupOf(lq) == 0;
    LeaderState l = IdentifyLeader(*cg, alive, lq, rho, 1, counts,
                                   left ? counts.max_left : counts.max_right,
                                   left ? counts.argmax_left : counts.argmax_right);
    l.leader = cg->ToGlobal(l.leader);
    return l;
  }
};

struct Figure3Setup : CandidateSetup {
  Figure3Graph f;

  explicit Figure3Setup(Figure3Graph fig = MakeFigure3Graph())
      : CandidateSetup(fig.graph, {fig.ql, fig.v1, fig.v2, fig.v3},
                       {fig.qr, fig.u1, fig.u2, fig.u3, fig.u4, fig.u5, fig.u6, fig.u7, fig.u9}),
        f(std::move(fig)) {}
};

TEST(LeaderPairTest, PaperExample5) {
  Figure3Setup s;
  // Left side: bmax = 6, bp = 3, chi(ql) = 0 -> search 1-hop neighbors
  // {v1, v2, v3}; v1 with chi = 6 >= 3 is the leader.
  LeaderState ll = s.Leader(s.f.ql, 3);
  EXPECT_EQ(ll.leader, s.f.v1);
  EXPECT_EQ(ll.chi, 6u);
  // Right side: bmax = 3, chi(qr) = 0 -> 1-hop {u1, u2, u3, u9}; u2 with
  // chi = 3 is the leader ({v1, u2} is the paper's leader pair).
  LeaderState lr = s.Leader(s.f.qr, 3);
  EXPECT_EQ(lr.leader, s.f.u2);
  EXPECT_EQ(lr.chi, 3u);
}

TEST(LeaderPairTest, LeaderBiasedQueryReturnsItself) {
  Figure3Setup s;
  // v1 itself as query: chi(v1) = 6 > bmax/2 = 3, so it is its own leader.
  LeaderState l = s.Leader(s.f.v1, 3);
  EXPECT_EQ(l.leader, s.f.v1);
  EXPECT_EQ(l.chi, 6u);
}

TEST(LeaderPairTest, RhoLimitsSearchRadius) {
  Figure3Setup s;
  // From u9, the butterfly-rich vertices u2/u3 are 1 hop away via qr... u9's
  // neighbors within the right side are {qr, u4, u7} (chi = 0each); at rho=1
  // no vertex with chi >= bp is reachable, so the fallback argmax fires.
  LeaderState l1 = s.Leader(s.f.u9, 1);
  EXPECT_GE(l1.chi, 1u);  // fallback guarantees a valid leader
  // With rho = 2, u2 (distance 2 via qr) is found by the threshold scan.
  LeaderState l2 = s.Leader(s.f.u9, 2);
  EXPECT_EQ(l2.chi, 3u);
}

TEST(LeaderPairTest, FallbackToArgmax) {
  // One butterfly between {0,1} x {2,3}, query 4 is an isolated-ish left
  // vertex connected only to the right vertex 3: no neighbor reaches the
  // threshold within rho, so the argmax fallback must return a valid leader.
  std::vector<Edge> edges = {{0, 2}, {0, 3}, {1, 2}, {1, 3}, {4, 3}};
  LabeledGraph g = LabeledGraph::FromEdges(5, std::move(edges), {0, 0, 1, 1, 0});
  CandidateSetup s(g, {0, 1, 4}, {2, 3});
  // The left side graph has no homogeneous edges, so a BFS from 4 inside the
  // side finds nothing; fallback must pick the argmax vertex (chi = 1).
  LeaderState l = s.Leader(4, 2);
  EXPECT_EQ(l.chi, 1u);
  EXPECT_TRUE(l.leader == 0 || l.leader == 1);
}

}  // namespace
}  // namespace bccs
