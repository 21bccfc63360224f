#include "eval/serve_engine.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "bcc/find_g0.h"
#include "bcc/verify.h"
#include "eval/query_gen.h"
#include "graph/generators.h"

namespace bccs {
namespace {

PlantedGraph MakeGraph(std::size_t communities = 5, std::uint64_t seed = 77) {
  PlantedConfig cfg;
  cfg.num_communities = communities;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.intra_edge_prob = 0.5;
  cfg.seed = seed;
  return GeneratePlanted(cfg);
}

std::vector<BccQuery> SampleQueries(const PlantedGraph& pg, std::size_t count) {
  QueryGenConfig qcfg;
  std::vector<GroundTruthQuery> gt = SampleGroundTruthQueries(pg, count, qcfg);
  std::vector<BccQuery> out;
  for (const auto& g : gt) out.push_back(g.query);
  return out;
}

// Resolves auto core parameters the way the search does, then verifies.
BccViolation VerifyResolved(const LabeledGraph& g, const Community& c, const BccQuery& q,
                            BccParams p) {
  SearchStats tmp;
  G0Result g0 = FindG0(g, q, p, &tmp);
  p.k1 = g0.k1;
  p.k2 = g0.k2;
  return VerifyBcc(g, c, q, p);
}

// --------------------------------------------------------------------------
// ServeEngine: interactive ahead of bulk under a saturated pool.
// --------------------------------------------------------------------------

TEST(ServeEngineTest, InteractiveCompletesBeforeBulkOnSaturatedPool) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 8);
  ASSERT_GE(queries.size(), 4u);

  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kLpBcc;
    // Interleaved arrival: odd indices interactive, even bulk.
    requests[i].lane = (i % 2 == 1) ? Lane::kInteractive : Lane::kBulk;
  }

  BatchRunner runner(1);  // saturated: one worker serializes the claims
  ServeOptions opts;
  opts.aging_period = 0;  // strict priority for this test
  ServeEngine engine(runner, pg.graph, nullptr, opts);
  BatchResult result = engine.Serve(requests);

  ASSERT_EQ(result.sojourn_seconds.size(), requests.size());
  double max_interactive = 0, min_bulk = 1e300;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].lane == Lane::kInteractive) {
      max_interactive = std::max(max_interactive, result.sojourn_seconds[i]);
    } else {
      min_bulk = std::min(min_bulk, result.sojourn_seconds[i]);
    }
  }
  // Completion timestamps are monotone in claim order, so with strict
  // priority every interactive query finishes before any bulk one starts.
  EXPECT_LE(max_interactive, min_bulk);

  ASSERT_EQ(result.lanes.size(), 2u);
  EXPECT_EQ(result.lanes[0].lane, Lane::kInteractive);
  EXPECT_EQ(result.lanes[1].lane, Lane::kBulk);
  EXPECT_EQ(result.lanes[0].queries + result.lanes[1].queries, requests.size());
  EXPECT_LE(result.lanes[0].latency.p99_seconds, result.lanes[1].latency.p99_seconds);

  // The planner dispatched onto the real algorithm: answers match the
  // sequential reference.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Community c = LpBcc(pg.graph, queries[i], {});
    EXPECT_EQ(result.communities[i].vertices, c.vertices) << i;
  }
}

TEST(ServeEngineTest, AgingPreventsBulkStarvation) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 8);
  ASSERT_EQ(queries.size(), 8u);

  // 7 interactive + 1 bulk at the back; aging_period = 1 claims the bulk
  // query in the second slot even though interactive queries remain.
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kLpBcc;
    requests[i].lane = i + 1 == queries.size() ? Lane::kBulk : Lane::kInteractive;
  }

  BatchRunner runner(1);
  ServeOptions opts;
  opts.aging_period = 1;
  ServeEngine engine(runner, pg.graph, nullptr, opts);
  BatchResult result = engine.Serve(requests);

  // The bulk query completed ahead of the interactive tail: its sojourn is
  // below the interactive maximum (it ran second of eight).
  const double bulk_sojourn = result.sojourn_seconds.back();
  double max_interactive = 0;
  for (std::size_t i = 0; i + 1 < requests.size(); ++i) {
    max_interactive = std::max(max_interactive, result.sojourn_seconds[i]);
  }
  EXPECT_LT(bulk_sojourn, max_interactive);
}

// --------------------------------------------------------------------------
// Deadlines: expiry flags timed_out and never yields an invalid community.
// --------------------------------------------------------------------------

TEST(ServeEngineTest, ExpiredDeadlineReturnsValidOrEmptyForEveryMethod) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 4);
  ASSERT_FALSE(queries.empty());
  BcIndex index(pg.graph);

  BatchRunner runner(2);
  ServeEngine engine(runner, pg.graph, &index);

  for (QueryMethod m : {QueryMethod::kOnlineBcc, QueryMethod::kLpBcc, QueryMethod::kL2pBcc}) {
    std::vector<QueryRequest> requests(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      requests[i].query = queries[i];
      requests[i].method = m;
      requests[i].deadline_seconds = 1e-9;  // expired by the first round check
    }
    BatchResult result = engine.Serve(requests);
    EXPECT_EQ(result.timed_out, queries.size()) << Name(m);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(result.stats[i].timed_out) << Name(m) << " " << i;
      if (!result.communities[i].Empty()) {
        EXPECT_EQ(VerifyResolved(pg.graph, result.communities[i], queries[i], {}),
                  BccViolation::kNone)
            << Name(m) << " " << i;
      }
    }
  }
}

TEST(ServeEngineTest, MidSearchDeadlinesNeverYieldInvalidCommunities) {
  PlantedGraph pg = MakeGraph(6, 19);
  std::vector<BccQuery> queries = SampleQueries(pg, 6);
  ASSERT_FALSE(queries.empty());

  BatchRunner runner(1);
  ServeEngine engine(runner, pg.graph);
  // Sweep deadlines from "instantly expired" to "comfortably enough";
  // whatever mix of timed-out and completed queries results, every
  // non-empty answer must be a valid BCC.
  for (double deadline : {1e-9, 1e-7, 1e-6, 5e-6, 2e-5, 1e-3}) {
    std::vector<QueryRequest> requests(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      requests[i].query = queries[i];
      requests[i].method = QueryMethod::kOnlineBcc;
      requests[i].deadline_seconds = deadline;
    }
    BatchResult result = engine.Serve(requests);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (result.communities[i].Empty()) continue;
      EXPECT_EQ(VerifyResolved(pg.graph, result.communities[i], queries[i], {}),
                BccViolation::kNone)
          << "deadline " << deadline << " query " << i;
    }
  }
}

TEST(ServeEngineTest, GenerousDeadlineMatchesNoDeadline) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 4);
  BatchRunner runner(2);
  ServeEngine engine(runner, pg.graph);

  std::vector<QueryRequest> plain(queries.size()), bounded(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    plain[i].query = queries[i];
    plain[i].method = QueryMethod::kLpBcc;
    bounded[i] = plain[i];
    bounded[i].deadline_seconds = 60.0;
  }
  BatchResult a = engine.Serve(plain);
  BatchResult b = engine.Serve(bounded);
  EXPECT_EQ(b.timed_out, 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(a.communities[i].vertices, b.communities[i].vertices) << i;
    EXPECT_FALSE(b.stats[i].timed_out) << i;
  }
}

TEST(ServeEngineTest, MbccDeadlineExpiryIsFlaggedAndValid) {
  PlantedConfig cfg;
  cfg.num_communities = 4;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.seed = 5;
  PlantedGraph pg = GeneratePlanted(cfg);
  std::vector<MbccGroundTruthQuery> gt = SampleMbccGroundTruthQueries(pg, 3, 4, 3);
  ASSERT_FALSE(gt.empty());

  BatchRunner runner(1);
  ServeEngine engine(runner, pg.graph);
  std::vector<QueryRequest> requests(gt.size());
  for (std::size_t i = 0; i < gt.size(); ++i) {
    requests[i].query = gt[i].query;
    requests[i].method = QueryMethod::kMbcc;
    requests[i].deadline_seconds = 1e-9;
  }
  BatchResult result = engine.Serve(requests);
  EXPECT_EQ(result.timed_out, gt.size());
  for (std::size_t i = 0; i < gt.size(); ++i) {
    EXPECT_TRUE(result.stats[i].timed_out) << i;
    EXPECT_TRUE(result.communities[i].Empty()) << i;
  }
}

// --------------------------------------------------------------------------
// Planning edge cases and shims.
// --------------------------------------------------------------------------

TEST(ServeEngineTest, VariantMethodMismatchYieldsEmptyAnswer) {
  PlantedGraph pg = MakeGraph();
  BatchRunner runner(1);
  ServeEngine engine(runner, pg.graph);
  std::vector<QueryRequest> requests(2);
  requests[0].query = MbccQuery{{0, 1}};  // mBCC payload on a two-label method
  requests[0].method = QueryMethod::kLpBcc;
  requests[1].query = BccQuery{0, 1};  // two-label payload on the mBCC method
  requests[1].method = QueryMethod::kMbcc;
  BatchResult result = engine.Serve(requests);
  EXPECT_TRUE(result.communities[0].Empty());
  EXPECT_TRUE(result.communities[1].Empty());
}

TEST(ServeEngineTest, L2pWithoutIndexDegradesToLp) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 4);
  BatchRunner runner(1);
  ServeEngine engine(runner, pg.graph, nullptr);  // no index
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kL2pBcc;
  }
  BatchResult result = engine.Serve(requests);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Community c = LpBcc(pg.graph, queries[i], {});
    EXPECT_EQ(result.communities[i].vertices, c.vertices) << i;
  }
}

TEST(ServeEngineTest, ShimsRouteThroughTheEngine) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 5);
  BcIndex index(pg.graph);
  BatchRunner runner(2);

  BatchResult shim = runner.RunL2pBatch(pg.graph, index, queries, {});
  ServeEngine engine(runner, pg.graph, &index);
  std::vector<QueryRequest> requests(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    requests[i].query = queries[i];
    requests[i].method = QueryMethod::kL2pBcc;
  }
  BatchResult direct = engine.Serve(requests);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(shim.communities[i].vertices, direct.communities[i].vertices) << i;
  }
}

TEST(SummarizeLatencyTest, ZeroWallClockFallsBackToSummedSeconds) {
  std::vector<double> seconds = {0.01, 0.01, 0.02};
  BatchLatency lat = SummarizeLatency(seconds, 0.0);
  // qps falls back to count / sum(seconds) instead of silently reporting 0.
  EXPECT_NEAR(lat.qps, 3.0 / 0.04, 1e-9);
  EXPECT_NEAR(lat.avg_seconds, 0.04 / 3.0, 1e-12);
}

}  // namespace
}  // namespace bccs
