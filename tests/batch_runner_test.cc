#include "eval/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.h"
#include "graph/generators.h"

namespace bccs {
namespace {

using bench::AllMethods;
using bench::Method;
using bench::MethodAggregate;
using bench::Prepare;
using bench::PreparedDataset;

TEST(BatchRunnerTest, JobsRunOnceOnEveryWorker) {
  BatchRunner runner(4);
  EXPECT_EQ(runner.NumThreads(), 4u);

  // Start returns while the job still runs: every worker blocks on the gate
  // until the test opens it, after Start has returned.
  std::atomic<bool> gate{false};
  std::atomic<int> entered{0};
  runner.Start([&](QueryWorkspace&) {
    entered.fetch_add(1);
    while (!gate.load()) std::this_thread::yield();
  });
  while (entered.load() < 4) std::this_thread::yield();
  gate.store(true);
  runner.Wait();

  // Back-to-back jobs reuse the same pool; each runs once per worker, on
  // that worker's own workspace.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    std::vector<QueryWorkspace*> seen(4, nullptr);
    std::atomic<std::size_t> slot{0};
    runner.Start([&](QueryWorkspace& ws) {
      count.fetch_add(1);
      seen[slot.fetch_add(1)] = &ws;
    });
    runner.Wait();
    ASSERT_EQ(count.load(), 4) << round;
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end()) << round;
  }

  // RunCustomBatch claims every index exactly once.
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  BatchResult r = runner.RunCustomBatch(
      hits.size(), [&](std::size_t i, QueryWorkspace&, Community*, SearchStats*) {
        hits[i].fetch_add(1);
      });
  EXPECT_EQ(r.seconds.size(), hits.size());
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(BatchRunnerTest, BatchEqualsSequentialForAllMethods) {
  DatasetSpec spec;
  spec.name = "batch-test";
  spec.config.num_communities = 5;
  spec.config.min_group_size = 8;
  spec.config.max_group_size = 14;
  spec.config.intra_edge_prob = 0.5;
  spec.config.seed = 77;
  PreparedDataset ds = Prepare(spec, 12, {});
  ASSERT_FALSE(ds.queries.empty());

  BccParams params;  // auto k, b = 1
  BatchRunner runner(3);
  for (Method m : AllMethods()) {
    MethodAggregate seq = bench::RunMethod(ds, m, params);
    BatchResult batch;
    MethodAggregate par = bench::RunMethodBatch(ds, m, params, runner, &batch);

    // Identical communities (and hence identical aggregate quality).
    ASSERT_EQ(batch.communities.size(), ds.queries.size());
    EXPECT_NEAR(par.avg_f1, seq.avg_f1, 1e-12) << bench::Name(m);
    EXPECT_EQ(par.empty_results, seq.empty_results) << bench::Name(m);

    // Re-run sequentially and compare each community verbatim.
    for (std::size_t i = 0; i < ds.queries.size(); ++i) {
      Community c;
      SearchStats stats;
      const BccQuery& q = ds.queries[i].query;
      switch (m) {
        case Method::kPsa: c = ds.psa->Search(q, &stats); break;
        case Method::kCtc: c = ds.ctc->Search(q, &stats); break;
        case Method::kOnlineBcc: c = OnlineBcc(ds.planted.graph, q, params, &stats); break;
        case Method::kLpBcc: c = LpBcc(ds.planted.graph, q, params, &stats); break;
        case Method::kL2pBcc:
          c = L2pBcc(ds.planted.graph, *ds.index, q, params, {}, &stats);
          break;
      }
      EXPECT_EQ(batch.communities[i].vertices, c.vertices)
          << bench::Name(m) << " query " << i;
    }
  }
}

TEST(BatchRunnerTest, MbccBatchEqualsSequential) {
  PlantedConfig cfg;
  cfg.num_communities = 4;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.seed = 5;
  PlantedGraph pg = GeneratePlanted(cfg);
  std::vector<MbccGroundTruthQuery> gt = SampleMbccGroundTruthQueries(pg, 3, 8, 3);
  ASSERT_FALSE(gt.empty());
  std::vector<MbccQuery> queries;
  for (const auto& g : gt) queries.push_back(g.query);

  BatchRunner runner(3);
  BatchResult batch = runner.RunMbccBatch(pg.graph, queries, MbccParams{});
  ASSERT_EQ(batch.communities.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Community c = MbccSearch(pg.graph, queries[i], MbccParams{}, LpBccOptions());
    EXPECT_EQ(batch.communities[i].vertices, c.vertices) << "query " << i;
  }
}

TEST(BatchRunnerTest, SteadyStateBatchesStayAllocationFree) {
  DatasetSpec spec;
  spec.name = "steady";
  spec.config.num_communities = 4;
  spec.config.min_group_size = 8;
  spec.config.max_group_size = 12;
  spec.config.seed = 123;
  PreparedDataset ds = Prepare(spec, 8, {});
  ASSERT_FALSE(ds.queries.empty());

  std::vector<BccQuery> raw;
  for (const auto& gq : ds.queries) raw.push_back(gq.query);
  // One worker makes the claim distribution (and hence the per-workspace
  // warm-up) deterministic; per-thread behavior is identical by symmetry.
  BatchRunner runner(1);
  runner.RunBccBatch(ds.planted.graph, raw, {}, QueryMethod::kLpBcc);  // warm-up
  const std::uint64_t warm = runner.AggregateWorkspaceStats().bulk_inits;
  BatchResult again = runner.RunBccBatch(ds.planted.graph, raw, {}, QueryMethod::kLpBcc);
  EXPECT_EQ(again.workspace_stats.bulk_inits, warm);
  EXPECT_EQ(runner.AggregateWorkspaceStats().bulk_inits, warm);
}

TEST(BatchRunnerTest, LatencySummaryPercentiles) {
  std::vector<double> seconds = {0.05, 0.01, 0.02, 0.04, 0.03};
  BatchLatency lat = SummarizeLatency(seconds, 0.1);
  EXPECT_NEAR(lat.qps, 50.0, 1e-9);
  EXPECT_NEAR(lat.avg_seconds, 0.03, 1e-12);
  EXPECT_NEAR(lat.p50_seconds, 0.03, 1e-12);
  EXPECT_NEAR(lat.p99_seconds, 0.05, 1e-12);
}

}  // namespace
}  // namespace bccs
