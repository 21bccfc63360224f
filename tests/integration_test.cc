// Cross-module pipeline tests: the Figure-4/5 experiment machinery on a
// small planted dataset, asserting the paper's qualitative findings.

#include <gtest/gtest.h>

#include "baselines/ctc.h"
#include "baselines/psa.h"
#include "bcc/local_search.h"
#include "bcc/mbcc.h"
#include "bcc/online_search.h"
#include "bcc/verify.h"
#include "eval/metrics.h"
#include "eval/query_gen.h"
#include "graph/generators.h"

namespace bccs {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PlantedConfig cfg;
    cfg.num_communities = 12;
    cfg.min_group_size = 10;
    cfg.max_group_size = 18;
    cfg.intra_edge_prob = 0.4;
    cfg.background_vertices = 150;
    cfg.seed = 314;
    pg_ = new PlantedGraph(GeneratePlanted(cfg));
    QueryGenConfig qcfg;
    qcfg.seed = 27;
    queries_ = new std::vector<GroundTruthQuery>(SampleGroundTruthQueries(*pg_, 10, qcfg));
  }

  static void TearDownTestSuite() {
    delete queries_;
    delete pg_;
    queries_ = nullptr;
    pg_ = nullptr;
  }

  static PlantedGraph* pg_;
  static std::vector<GroundTruthQuery>* queries_;
};

PlantedGraph* PipelineTest::pg_ = nullptr;
std::vector<GroundTruthQuery>* PipelineTest::queries_ = nullptr;

TEST_F(PipelineTest, BccMethodsAgreeAndAreValid) {
  ASSERT_FALSE(queries_->empty());
  BcIndex index(pg_->graph);
  for (const auto& gq : *queries_) {
    Community online = OnlineBcc(pg_->graph, gq.query, BccParams{});
    Community lp = LpBcc(pg_->graph, gq.query, BccParams{});
    EXPECT_EQ(online.vertices, lp.vertices);
    Community local = L2pBcc(pg_->graph, index, gq.query, BccParams{});
    if (!online.Empty()) {
      EXPECT_FALSE(local.Empty());
    }
  }
}

TEST_F(PipelineTest, BccBeatsBaselinesOnF1) {
  // The paper's Figure 4 finding: the BCC methods dominate CTC and PSA on
  // labeled ground-truth communities.
  ASSERT_FALSE(queries_->empty());
  CtcSearcher ctc(pg_->graph);
  PsaSearcher psa(pg_->graph);
  BcIndex index(pg_->graph);

  double f1_lp = 0, f1_l2p = 0, f1_ctc = 0, f1_psa = 0;
  for (const auto& gq : *queries_) {
    auto truth = pg_->communities[gq.community_index].AllVertices();
    f1_lp += F1Score(LpBcc(pg_->graph, gq.query, BccParams{}).vertices, truth).f1;
    f1_l2p += F1Score(L2pBcc(pg_->graph, index, gq.query, BccParams{}).vertices, truth).f1;
    f1_ctc += F1Score(ctc.Search(gq.query).vertices, truth).f1;
    f1_psa += F1Score(psa.Search(gq.query).vertices, truth).f1;
  }
  const auto n = static_cast<double>(queries_->size());
  f1_lp /= n;
  f1_l2p /= n;
  f1_ctc /= n;
  f1_psa /= n;

  EXPECT_GT(f1_lp, 0.5) << "BCC quality unexpectedly low";
  EXPECT_GT(f1_lp, f1_ctc) << "paper shape violated: CTC must lose to BCC";
  EXPECT_GT(f1_lp, f1_psa) << "paper shape violated: PSA must lose to BCC";
  EXPECT_GT(f1_l2p, f1_ctc);
}

TEST_F(PipelineTest, LeaderPairStrategySavesButterflyCounting) {
  // The paper's Table 4 finding: LP-BCC calls Algorithm 3 far less often.
  // k = 2 gives a large G0 and a long peeling phase, where Online-BCC must
  // recount butterflies every round.
  std::size_t online_calls = 0, lp_calls = 0, online_rounds = 0;
  const BccParams params{2, 2, 1};
  for (const auto& gq : *queries_) {
    SearchStats so, sl;
    OnlineBcc(pg_->graph, gq.query, params, &so);
    LpBcc(pg_->graph, gq.query, params, &sl);
    online_calls += so.butterfly_counting_calls;
    lp_calls += sl.butterfly_counting_calls;
    online_rounds += so.rounds;
  }
  ASSERT_GT(online_rounds, 2 * queries_->size()) << "peeling unexpectedly short";
  EXPECT_LT(lp_calls, online_calls);
}

TEST_F(PipelineTest, MbccPipelineOnMultiLabelGraph) {
  PlantedConfig cfg;
  cfg.num_communities = 6;
  cfg.groups_per_community = 4;
  cfg.num_labels = 6;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.intra_edge_prob = 0.5;
  cfg.cross_pair_prob = 0.15;
  cfg.seed = 2718;
  PlantedGraph pg = GeneratePlanted(cfg);
  auto queries = SampleMbccGroundTruthQueries(pg, 3, 5, 8);
  ASSERT_FALSE(queries.empty());
  for (const auto& gq : queries) {
    MbccParams p;
    p.k.assign(3, 2);
    Community c = MbccSearch(pg.graph, gq.query, p, LpBccOptions());
    if (c.Empty()) continue;
    EXPECT_EQ(VerifyMbcc(pg.graph, c, gq.query.vertices, p.k, p.b), MbccViolation::kNone);
    auto truth = pg.communities[gq.community_index].AllVertices();
    // The discovered mBCC overlaps its ground-truth community.
    EXPECT_GT(F1Score(c.vertices, truth).f1, 0.2);
  }
}

}  // namespace
}  // namespace bccs
