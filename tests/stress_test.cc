// Randomized cross-module stress tests: on arbitrary random labeled graphs
// (not planted, no guarantees), every search must either return a valid
// community or empty, the accelerated variants must agree with the plain
// ones, and no combination of inputs may crash.

#include <random>
#include <string>

#include <gtest/gtest.h>

#include "baselines/ctc.h"
#include "baselines/psa.h"
#include "bcc/exact_search.h"
#include "bcc/local_search.h"
#include "bcc/mbcc.h"
#include "bcc/online_search.h"
#include "bcc/verify.h"
#include "test_util.h"

namespace bccs {
namespace {

using testing::MakeRandomGraph;

class StressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressTest, RandomGraphsRandomQueries) {
  std::mt19937_64 rng(GetParam());
  LabeledGraph g = MakeRandomGraph(30 + rng() % 40, 0.05 + 0.002 * (rng() % 100),
                                   2 + rng() % 3, GetParam() * 7 + 3);
  BcIndex index(g);

  for (int trial = 0; trial < 6; ++trial) {
    VertexId ql = static_cast<VertexId>(rng() % g.NumVertices());
    VertexId qr = static_cast<VertexId>(rng() % g.NumVertices());
    BccQuery q{ql, qr};
    BccParams p{static_cast<std::uint32_t>(rng() % 4), static_cast<std::uint32_t>(rng() % 4),
                1 + rng() % 3};

    Community online = OnlineBcc(g, q, p);
    Community lp = LpBcc(g, q, p);
    EXPECT_EQ(online.vertices, lp.vertices) << "LP must equal Online";

    SearchStats stats;
    G0Result g0 = FindG0(g, q, p, &stats);
    if (!online.Empty()) {
      ASSERT_TRUE(g0.found);
      BccParams resolved = p;
      resolved.k1 = g0.k1;
      resolved.k2 = g0.k2;
      EXPECT_EQ(VerifyBcc(g, online, q, resolved), BccViolation::kNone)
          << "ql=" << ql << " qr=" << qr << " k1=" << p.k1 << " k2=" << p.k2
          << " b=" << p.b << " seed=" << GetParam();
    } else {
      // Online search starting from a found G0 always yields an answer (G0
      // itself is a valid snapshot), so empty implies no G0.
      EXPECT_FALSE(g0.found);
    }

    // The local search never crashes and verifies whenever non-empty.
    Community local = L2pBcc(g, index, q, p);
    if (!local.Empty()) {
      EXPECT_EQ(VerifyBcc(g, local, q, BccParams{1, 1, p.b}), BccViolation::kNone);
    }
  }
}

TEST_P(StressTest, BaselinesNeverCrashAndContainQueries) {
  std::mt19937_64 rng(GetParam() + 500);
  LabeledGraph g = MakeRandomGraph(25 + rng() % 30, 0.05 + 0.004 * (rng() % 60),
                                   2, GetParam() * 31 + 11);
  CtcSearcher ctc(g);
  PsaSearcher psa(g);
  for (int trial = 0; trial < 5; ++trial) {
    VertexId a = static_cast<VertexId>(rng() % g.NumVertices());
    VertexId b = static_cast<VertexId>(rng() % g.NumVertices());
    const VertexId queries[] = {a, b};
    Community c1 = ctc.Search(queries);
    if (!c1.Empty()) {
      EXPECT_TRUE(c1.Contains(a));
      EXPECT_TRUE(c1.Contains(b));
    }
    Community c2 = psa.Search(queries);
    if (!c2.Empty()) {
      EXPECT_TRUE(c2.Contains(a));
      EXPECT_TRUE(c2.Contains(b));
    }
  }
}

TEST_P(StressTest, MbccRandomQueries) {
  std::mt19937_64 rng(GetParam() + 900);
  LabeledGraph g = MakeRandomGraph(40, 0.12, 4, GetParam() * 13 + 29);
  for (int trial = 0; trial < 4; ++trial) {
    MbccQuery q;
    std::size_t m = 2 + rng() % 3;
    for (std::size_t i = 0; i < m; ++i) {
      q.vertices.push_back(static_cast<VertexId>(rng() % g.NumVertices()));
    }
    MbccParams p;
    p.k.assign(m, static_cast<std::uint32_t>(1 + rng() % 3));
    p.b = 1;
    Community online = MbccSearch(g, q, p, OnlineBccOptions());
    Community lp = MbccSearch(g, q, p, LpBccOptions());
    EXPECT_EQ(online.vertices, lp.vertices);
    if (!online.Empty()) {
      EXPECT_EQ(VerifyMbcc(g, online, q.vertices, p.k, p.b), MbccViolation::kNone);
    }
  }
}

// Differential check of the greedy peels against exhaustive search: Online
// and LP, each with bulk and single-vertex deletion, find a BCC exactly when
// one exists, and within twice the minimum diameter (Theorem 3). The whole
// 14-vertex graph fits the exact search's universe, so "no exact answer"
// means "no BCC".
TEST_P(StressTest, GreedyVsExactTwoApproximation) {
  std::mt19937_64 rng(GetParam() + 1300);
  LabeledGraph g = MakeRandomGraph(14, 0.4, 2, GetParam() * 3 + 41);
  for (int trial = 0; trial < 4; ++trial) {
    VertexId ql = static_cast<VertexId>(rng() % g.NumVertices());
    VertexId qr = static_cast<VertexId>(rng() % g.NumVertices());
    BccQuery q{ql, qr};
    BccParams p{2, 2, 1};
    auto exact = ExactMinDiameterBcc(g, q, p, 14);
    for (SearchOptions opts : {OnlineBccOptions(), LpBccOptions()}) {
      for (bool bulk : {true, false}) {
        opts.bulk_delete = bulk;
        SCOPED_TRACE("seed " + std::to_string(GetParam()) + " trial " + std::to_string(trial) +
                     " leader=" + std::to_string(opts.use_leader_pair) +
                     " bulk=" + std::to_string(bulk));
        Community greedy = BccSearch(g, q, p, opts, nullptr);
        ASSERT_EQ(greedy.Empty(), !exact.has_value());
        if (exact.has_value()) {
          EXPECT_LE(CommunityDiameter(g, greedy), 2 * exact->diameter)
              << "2-approximation violated";
        }
      }
    }
  }
}

TEST_P(StressTest, DegenerateInputs) {
  std::mt19937_64 rng(GetParam());
  LabeledGraph g = MakeRandomGraph(20, 0.2, 2, GetParam() + 7);
  VertexId v = static_cast<VertexId>(rng() % g.NumVertices());
  // Same vertex twice (identical labels): rejected.
  EXPECT_TRUE(OnlineBcc(g, BccQuery{v, v}, BccParams{}).Empty());
  // b = 0 is accepted trivially (no butterfly requirement).
  Community c = OnlineBcc(g, BccQuery{0, 1}, BccParams{1, 1, 0});
  if (!c.Empty() && g.LabelOf(0) != g.LabelOf(1)) {
    EXPECT_EQ(VerifyBcc(g, c, BccQuery{0, 1}, BccParams{1, 1, 0}), BccViolation::kNone);
  }
  // Empty query list for mBCC.
  EXPECT_TRUE(MbccSearch(g, MbccQuery{}, MbccParams{}, LpBccOptions()).Empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest, ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace bccs
