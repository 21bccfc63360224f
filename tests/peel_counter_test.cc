// PeelButterflyCounter: delta-chi maintenance must be indistinguishable from
// recounting. The unit tests drive the counter directly against a reference
// recount after every single removal; the search-level tests assert the
// bit-identity contract — same communities with the flag on or off, across
// methods, thread counts and deadlines (DESIGN.md, contract 8).

#include "butterfly/peel_counter.h"

#include <gtest/gtest.h>

#include <random>

#include "bcc/local_search.h"
#include "bcc/mbcc.h"
#include "bcc/online_search.h"
#include "bcc/workspace.h"
#include "eval/batch_runner.h"
#include "eval/serve_engine.h"
#include "graph/generators.h"
#include "test_util.h"

namespace bccs {
namespace {

using testing::MakeRandomGraph;
using testing::MaskOf;

/// Members of `g` carrying `label`, in id order (the span order the real
/// callers use: FindG0 builds its side lists sorted).
std::vector<VertexId> LabelMembers(const LabeledGraph& g, Label label) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.LabelOf(v) == label) out.push_back(v);
  }
  return out;
}

void ExpectMatchesRecount(const LabeledGraph& g, PeelButterflyCounter& pc,
                          const std::vector<VertexId>& left, const std::vector<VertexId>& right,
                          const std::vector<char>& lmask, const std::vector<char>& rmask) {
  ButterflyCounts fresh = CountButterflies(g, left, right, lmask, rmask);
  const ButterflyCounts& maintained = pc.RefreshMaxes();
  for (VertexId v : left) {
    ASSERT_EQ(maintained.chi[v], fresh.chi[v]) << "left vertex " << v;
  }
  for (VertexId v : right) {
    ASSERT_EQ(maintained.chi[v], fresh.chi[v]) << "right vertex " << v;
  }
  ASSERT_EQ(maintained.total, fresh.total);
  ASSERT_EQ(maintained.max_left, fresh.max_left);
  ASSERT_EQ(maintained.max_right, fresh.max_right);
  ASSERT_EQ(maintained.argmax_left, fresh.argmax_left);
  ASSERT_EQ(maintained.argmax_right, fresh.argmax_right);
}

class PeelCounterTraceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeelCounterTraceTest, RandomPeelTraceMatchesRecountAfterEveryRemoval) {
  LabeledGraph g = MakeRandomGraph(40, 0.3, 2, GetParam());
  std::vector<VertexId> left = LabelMembers(g, 0);
  std::vector<VertexId> right = LabelMembers(g, 1);
  std::vector<char> lmask = MaskOf(g, left);
  std::vector<char> rmask = MaskOf(g, right);

  QueryWorkspace ws;
  PeelButterflyCounter* pc = ws.AcquirePeelCounter();
  pc->Init(g, left, right, lmask, rmask, &ws);
  pc->SeedFrom(CountButterflies(g, left, right, lmask, rmask));

  // Remove every vertex in a seeded shuffled order, one per round, checking
  // the maintained view against a from-scratch recount after each removal.
  std::vector<VertexId> order = testing::AllVertices(g);
  std::mt19937_64 rng(GetParam() * 977 + 5);
  std::shuffle(order.begin(), order.end(), rng);
  for (VertexId v : order) {
    pc->OnRemove(v);
    (g.LabelOf(v) == 0 ? lmask : rmask)[v] = 0;  // mask clears AFTER the callback
    ExpectMatchesRecount(g, *pc, left, right, lmask, rmask);
  }
  const ButterflyCounts& empty = pc->RefreshMaxes();
  EXPECT_EQ(empty.total, 0u);
  EXPECT_EQ(empty.max_left, 0u);
  EXPECT_EQ(empty.argmax_left, kInvalidVertex);
  ws.ReleasePeelCounter(pc);
}

TEST_P(PeelCounterTraceTest, BatchedRoundsMatchRecount) {
  // Same trace but several removals per round, mask bits clearing between
  // callbacks exactly like GroupedCandidate::RemoveAndMaintain does — the
  // debit-exactly-once ordering under test.
  LabeledGraph g = MakeRandomGraph(36, 0.35, 2, GetParam() + 17);
  std::vector<VertexId> left = LabelMembers(g, 0);
  std::vector<VertexId> right = LabelMembers(g, 1);
  std::vector<char> lmask = MaskOf(g, left);
  std::vector<char> rmask = MaskOf(g, right);

  QueryWorkspace ws;
  PeelButterflyCounter* pc = ws.AcquirePeelCounter();
  pc->Init(g, left, right, lmask, rmask, &ws);

  // Seed from an externally computed count: the FindG0 hand-off path.
  pc->SeedFrom(CountButterflies(g, left, right, lmask, rmask));

  std::vector<VertexId> order = testing::AllVertices(g);
  std::mt19937_64 rng(GetParam() * 131 + 7);
  std::shuffle(order.begin(), order.end(), rng);
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t batch = std::min<std::size_t>(1 + rng() % 5, order.size() - i);
    for (std::size_t k = 0; k < batch; ++k) {
      VertexId v = order[i + k];
      pc->OnRemove(v);
      (g.LabelOf(v) == 0 ? lmask : rmask)[v] = 0;
    }
    i += batch;
    ExpectMatchesRecount(g, *pc, left, right, lmask, rmask);
  }
  ws.ReleasePeelCounter(pc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeelCounterTraceTest, ::testing::Values(1, 2, 3, 7, 42));

TEST(PeelCounterTest, WorkspacePoolingReusesCounters) {
  QueryWorkspace ws;
  PeelButterflyCounter* a = ws.AcquirePeelCounter();
  ws.ReleasePeelCounter(a);
  PeelButterflyCounter* b = ws.AcquirePeelCounter();
  EXPECT_EQ(a, b);  // parked counter is handed back out
  ws.ReleasePeelCounter(b);
}

// --- Search-level bit-identity: flag on == flag off, everywhere. ---

SearchOptions WithFlag(SearchOptions o, bool incremental) {
  o.incremental_butterflies = incremental;
  return o;
}

class PeelCounterSearchTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeelCounterSearchTest, FlagOnOffBitIdenticalAcrossOptionMatrix) {
  PlantedConfig cfg;
  cfg.num_communities = 6;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.intra_edge_prob = 0.5;
  cfg.noise_cross_fraction = 0.2;
  cfg.seed = GetParam();
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[GetParam() % pg.communities.size()];
  BccQuery q{comm.groups[0][0], comm.groups[1][0]};
  BccParams p{2, 2, 1};

  for (bool bulk : {true, false}) {
    for (bool leader : {true, false}) {
      SearchOptions opts;
      opts.bulk_delete = bulk;
      opts.use_leader_pair = leader;
      SearchStats son, soff;
      Community on = BccSearch(pg.graph, q, p, WithFlag(opts, true), &son);
      Community off = BccSearch(pg.graph, q, p, WithFlag(opts, false), &soff);
      EXPECT_EQ(on.vertices, off.vertices) << "bulk=" << bulk << " leader=" << leader;
      // Identical deletion sequence, not just identical answers.
      EXPECT_EQ(son.rounds, soff.rounds);
      EXPECT_EQ(son.vertices_removed, soff.vertices_removed);
      EXPECT_EQ(soff.delta_rounds, 0u);  // the flag-off run never uses the counter
      // Leader-pair peels validate with the leaders alone: no counter even
      // with the flag on.
      if (leader) {
        EXPECT_EQ(son.delta_rounds, 0u) << "bulk=" << bulk;
      }
    }
  }
}

TEST_P(PeelCounterSearchTest, DeltaRoundsReplaceRecountsInOnlineMode) {
  PlantedConfig cfg;
  cfg.num_communities = 6;
  cfg.min_group_size = 10;
  cfg.max_group_size = 16;
  cfg.intra_edge_prob = 0.5;
  cfg.seed = GetParam() + 11;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[0];
  BccQuery q{comm.groups[0][0], comm.groups[1][0]};
  BccParams p{2, 2, 1};

  SearchStats son, soff;
  BccSearch(pg.graph, q, p, WithFlag(OnlineBccOptions(), true), &son);
  BccSearch(pg.graph, q, p, WithFlag(OnlineBccOptions(), false), &soff);
  if (soff.rounds > 2) {
    EXPECT_GT(son.delta_rounds, 0u);
    EXPECT_LT(son.butterfly_counting_calls, soff.butterfly_counting_calls);
  }
}

TEST_P(PeelCounterSearchTest, MbccFlagOnOffBitIdentical) {
  PlantedConfig cfg;
  cfg.num_communities = 5;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.intra_edge_prob = 0.5;
  cfg.cross_pair_prob = 0.2;
  cfg.seed = GetParam() + 300;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[0];
  MbccQuery q{{comm.groups[0][0], comm.groups[1][0], comm.groups[2][0]}};
  MbccParams p;
  p.b = 1;

  for (bool leader : {true, false}) {
    SearchOptions opts;
    opts.use_leader_pair = leader;
    opts.fast_query_distance = leader;
    SearchStats son, soff;
    Community on = MbccSearch(pg.graph, q, p, WithFlag(opts, true), &son);
    Community off = MbccSearch(pg.graph, q, p, WithFlag(opts, false), &soff);
    EXPECT_EQ(on.vertices, off.vertices) << "leader=" << leader;
    EXPECT_EQ(son.rounds, soff.rounds);
    EXPECT_EQ(soff.delta_rounds, 0u);
    if (leader) {
      EXPECT_EQ(son.delta_rounds, 0u);
    }
  }
}

TEST_P(PeelCounterSearchTest, ExpiredDeadlineBitIdentical) {
  // An already-expired deadline trips the very first check in both runs, so
  // even the partial answers must agree.
  PlantedConfig cfg;
  cfg.num_communities = 5;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.intra_edge_prob = 0.5;
  cfg.seed = GetParam() + 500;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[0];
  BccQuery q{comm.groups[0][0], comm.groups[1][0]};
  BccParams p{2, 2, 1};

  QueryWorkspace ws;
  ws.SetDeadline(Deadline::After(0));
  SearchStats son, soff;
  Community on = BccSearch(pg.graph, q, p, WithFlag(OnlineBccOptions(), true), &son, &ws);
  Community off = BccSearch(pg.graph, q, p, WithFlag(OnlineBccOptions(), false), &soff, &ws);
  EXPECT_EQ(on.vertices, off.vertices);
  EXPECT_EQ(son.timed_out, soff.timed_out);
  ws.SetDeadline(Deadline());
}

TEST(PeelCounterServeTest, OneVsFourThreadsIdenticalWithCounterOn) {
  PlantedConfig cfg;
  cfg.num_communities = 8;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.intra_edge_prob = 0.45;
  cfg.seed = 1234;
  PlantedGraph pg = GeneratePlanted(cfg);

  std::vector<QueryRequest> requests;
  for (const auto& comm : pg.communities) {
    QueryRequest r;
    r.query = BccQuery{comm.groups[0][0], comm.groups[1][0]};
    r.method = QueryMethod::kLpBcc;
    r.params = BccParams{2, 2, 1};
    requests.push_back(r);
  }

  BatchRunner one(1);
  ServeEngine engine_one(one, pg.graph, nullptr);
  BatchResult r1 = engine_one.Serve(requests);

  BatchRunner four(4);
  ServeEngine engine_four(four, pg.graph, nullptr);
  BatchResult r4 = engine_four.Serve(requests);

  ASSERT_EQ(r1.communities.size(), r4.communities.size());
  for (std::size_t i = 0; i < r1.communities.size(); ++i) {
    EXPECT_EQ(r1.communities[i].vertices, r4.communities[i].vertices) << "query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeelCounterSearchTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace bccs
