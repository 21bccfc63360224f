// Dynamic-graph layer tests: delta validation and application, incremental
// BcIndex repair vs full rebuild (bit-identical), epoch semantics in the
// serving engine. (Changelog replay of updates onto a snapshot is covered
// in changelog_test.)

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bcc/bc_index.h"
#include "bcc/find_g0.h"
#include "eval/serve_engine.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "test_util.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_maintenance.h"

namespace bccs {
namespace {

using testing::ExpectIndexMatchesFreshBuild;
using testing::MakeRandomGraph;
using testing::RandomDelta;

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

std::vector<EdgeUpdate> MakeInsert(std::initializer_list<Edge> edges) {
  std::vector<EdgeUpdate> out;
  for (const Edge& e : edges) out.push_back({EdgeUpdateKind::kInsert, e});
  return out;
}

std::vector<EdgeUpdate> MakeDelete(std::initializer_list<Edge> edges) {
  std::vector<EdgeUpdate> out;
  for (const Edge& e : edges) out.push_back({EdgeUpdateKind::kDelete, e});
  return out;
}

void ExpectSameGraph(const LabeledGraph& a, const LabeledGraph& b, const char* note) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices()) << note;
  ASSERT_EQ(a.NumEdges(), b.NumEdges()) << note;
  ASSERT_EQ(a.NumLabels(), b.NumLabels()) << note;
  EXPECT_EQ(a.MaxDegree(), b.MaxDegree()) << note;
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    EXPECT_EQ(a.LabelOf(v), b.LabelOf(v)) << note << " vertex " << v;
    const auto na = a.Neighbors(v);
    const auto nb = b.Neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << note << " vertex " << v;
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin())) << note << " vertex " << v;
  }
  for (Label l = 0; l < a.NumLabels(); ++l) {
    const auto ga = a.VerticesWithLabel(l);
    const auto gb = b.VerticesWithLabel(l);
    ASSERT_EQ(ga.size(), gb.size()) << note << " label " << l;
    EXPECT_TRUE(std::equal(ga.begin(), ga.end(), gb.begin())) << note << " label " << l;
  }
}

PlantedGraph SmallPlanted(std::uint64_t seed, std::size_t labels = 3) {
  PlantedConfig cfg;
  cfg.num_communities = 4;
  cfg.groups_per_community = labels;
  cfg.num_labels = labels;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.seed = seed;
  return GeneratePlanted(cfg);
}

// ---------------------------------------------------------------------------
// BuildGraphDelta validation and normalization.
// ---------------------------------------------------------------------------

TEST(GraphDeltaTest, ValidatesAgainstGraph) {
  // Path 0-1-2-3 with labels 0/1 alternating.
  LabeledGraph g = LabeledGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}}, {0, 1, 0, 1});
  std::string error;

  EXPECT_FALSE(BuildGraphDelta(g, MakeInsert({{0, 4}}), &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;

  EXPECT_FALSE(BuildGraphDelta(g, MakeInsert({{2, 2}}), &error));
  EXPECT_NE(error.find("self loop"), std::string::npos) << error;

  EXPECT_FALSE(BuildGraphDelta(g, MakeInsert({{1, 0}}), &error));
  EXPECT_NE(error.find("insert of existing edge"), std::string::npos) << error;

  EXPECT_FALSE(BuildGraphDelta(g, MakeDelete({{0, 2}}), &error));
  EXPECT_NE(error.find("delete of absent edge"), std::string::npos) << error;

  // Sequential semantics: the second insert of the same edge is a dup.
  EXPECT_FALSE(BuildGraphDelta(g, MakeInsert({{0, 3}, {3, 0}}), &error));
  EXPECT_NE(error.find("update #1"), std::string::npos) << error;
}

TEST(GraphDeltaTest, NormalizesToNetToggles) {
  LabeledGraph g = LabeledGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}}, {0, 1, 0, 1});

  // Insert then delete the same edge: nets to nothing.
  std::vector<EdgeUpdate> updates = MakeInsert({{0, 3}});
  updates.push_back({EdgeUpdateKind::kDelete, {0, 3}});
  auto delta = BuildGraphDelta(g, updates);
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(delta->Empty());

  // Delete then re-insert an existing edge: also nothing.
  updates = MakeDelete({{1, 2}});
  updates.push_back({EdgeUpdateKind::kInsert, {1, 2}});
  delta = BuildGraphDelta(g, updates);
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(delta->Empty());

  // Mixed batch: canonical, sorted, disjoint.
  updates = MakeInsert({{3, 0}});
  updates.push_back({EdgeUpdateKind::kDelete, {2, 1}});
  delta = BuildGraphDelta(g, updates);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->inserts.size(), 1u);
  ASSERT_EQ(delta->deletes.size(), 1u);
  EXPECT_EQ(delta->inserts[0], (Edge{0, 3}));
  EXPECT_EQ(delta->deletes[0], (Edge{1, 2}));
}

TEST(GraphDeltaTest, ApplyMatchesFromEdgesRebuild) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    LabeledGraph g = MakeRandomGraph(30, 0.15, 3, 100 + trial);
    const std::vector<EdgeUpdate> updates = RandomDelta(g, rng, 4, 4);
    auto delta = BuildGraphDelta(g, updates);
    ASSERT_TRUE(delta.has_value());
    const LabeledGraph updated = ApplyGraphDelta(g, *delta);

    // Reference: edit the edge list and rebuild from scratch.
    std::vector<Edge> edges = g.AllEdges();
    for (const Edge& e : delta->deletes) {
      edges.erase(std::find(edges.begin(), edges.end(), e));
    }
    for (const Edge& e : delta->inserts) edges.push_back(e);
    std::vector<Label> labels(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) labels[v] = g.LabelOf(v);
    const LabeledGraph want =
        LabeledGraph::FromEdges(g.NumVertices(), std::move(edges), std::move(labels));
    ExpectSameGraph(updated, want, "trial");
  }
}

TEST(GraphDeltaTest, EmptyDeltaSharesBaseArrays) {
  LabeledGraph g = MakeRandomGraph(20, 0.2, 2, 5);
  auto delta = BuildGraphDelta(g, {});
  ASSERT_TRUE(delta.has_value());
  const LabeledGraph same = ApplyGraphDelta(g, *delta);
  ExpectSameGraph(same, g, "empty delta");
  // Zero-copy: the adjacency storage is literally shared.
  EXPECT_EQ(same.Neighbors(0).data(), g.Neighbors(0).data());
}

// ---------------------------------------------------------------------------
// Updates-file IO.
// ---------------------------------------------------------------------------

TEST(GraphDeltaTest, ReadEdgeUpdatesParsesAndRejects) {
  std::istringstream good("# comment\r\n+ 1 2\n\n- 3 4\r\n  # indented comment\n+ 5 6\n");
  std::string error;
  auto updates = ReadEdgeUpdates(good, &error);
  ASSERT_TRUE(updates.has_value()) << error;
  ASSERT_EQ(updates->size(), 3u);
  EXPECT_EQ((*updates)[0].kind, EdgeUpdateKind::kInsert);
  EXPECT_EQ((*updates)[1].kind, EdgeUpdateKind::kDelete);
  EXPECT_EQ((*updates)[1].edge, (Edge{3, 4}));

  std::istringstream bad_op("* 1 2\n");
  EXPECT_FALSE(ReadEdgeUpdates(bad_op, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;

  std::istringstream trailing("+ 1 2 9\n");
  EXPECT_FALSE(ReadEdgeUpdates(trailing, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;

  std::istringstream missing("- 7\n");
  EXPECT_FALSE(ReadEdgeUpdates(missing, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Incremental index repair == full rebuild.
// ---------------------------------------------------------------------------

/// Runs one repair-vs-rebuild comparison and returns the stats.
UpdateRepairStats RepairAndCheck(const LabeledGraph& g, const std::vector<EdgeUpdate>& updates,
                                 const UpdateRepairOptions& opts, const char* note) {
  BcIndex index(g);
  index.MaterializeAllPairs();
  for (Label l = 0; l < g.NumLabels(); ++l) index.LabelForest(l);
  auto delta = BuildGraphDelta(g, updates);
  EXPECT_TRUE(delta.has_value());
  const LabeledGraph updated = ApplyGraphDelta(g, *delta);
  UpdateRepairStats stats;
  const auto repaired = index.ApplyUpdates(updated, *delta, opts, &stats);
  // Forests: shared by pointer for every label the delta leaves without an
  // intra-label edge, dropped (and rebuilt on first use) for the others.
  std::set<Label> intra_labels;
  for (const auto* edges : {&delta->inserts, &delta->deletes}) {
    for (const Edge& e : *edges) {
      if (g.LabelOf(e.u) == g.LabelOf(e.v)) intra_labels.insert(g.LabelOf(e.u));
    }
  }
  EXPECT_EQ(repaired->ForestCount(), g.NumLabels() - intra_labels.size()) << note;
  for (Label l = 0; l < g.NumLabels(); ++l) {
    const bool shared = &repaired->LabelForest(l) == &index.LabelForest(l);
    EXPECT_EQ(shared, intra_labels.count(l) == 0) << note << " forest of label " << l;
  }
  EXPECT_EQ(repaired->CachedPairCount(), index.CachedPairCount()) << note;
  ExpectIndexMatchesFreshBuild(*repaired, updated, note);
  // Copy-on-write: the base index still answers for the base graph, the
  // repaired index shares every block the delta does not touch, and owns a
  // fresh block for every pair it does.
  ExpectIndexMatchesFreshBuild(index, g, note);
  std::set<std::pair<Label, Label>> touched;
  for (const auto* edges : {&delta->inserts, &delta->deletes}) {
    for (const Edge& e : *edges) {
      const Label a = g.LabelOf(e.u), b = g.LabelOf(e.v);
      if (a != b) touched.insert(std::minmax(a, b));
    }
  }
  index.ForEachCachedPair([&](Label a, Label b, const ButterflyCounts& base) {
    const bool shared = &repaired->PairButterflies(a, b) == &base;
    EXPECT_EQ(shared, touched.count({a, b}) == 0) << note << " pair " << a << "," << b;
  });
  return stats;
}

TEST(DynamicIndexTest, InsertOnlyBatchesMatchRebuild) {
  std::mt19937_64 rng(21);
  for (int trial = 0; trial < 8; ++trial) {
    LabeledGraph g = MakeRandomGraph(40, 0.12, 3, 200 + trial);
    const std::vector<EdgeUpdate> updates = RandomDelta(g, rng, 1 + trial % 5, 0);
    RepairAndCheck(g, updates, {}, "insert-only");
  }
}

TEST(DynamicIndexTest, DeleteOnlyBatchesMatchRebuild) {
  std::mt19937_64 rng(22);
  for (int trial = 0; trial < 8; ++trial) {
    LabeledGraph g = MakeRandomGraph(40, 0.12, 3, 300 + trial);
    const std::vector<EdgeUpdate> updates = RandomDelta(g, rng, 0, 1 + trial % 5);
    RepairAndCheck(g, updates, {}, "delete-only");
  }
}

TEST(DynamicIndexTest, MixedBatchesMatchRebuild) {
  std::mt19937_64 rng(23);
  for (int trial = 0; trial < 8; ++trial) {
    LabeledGraph g = MakeRandomGraph(40, 0.12, 3, 400 + trial);
    const std::vector<EdgeUpdate> updates = RandomDelta(g, rng, 2 + trial % 4, 2);
    RepairAndCheck(g, updates, {}, "mixed");
  }
}

TEST(DynamicIndexTest, PlantedGraphRepairMatchesRebuild) {
  std::mt19937_64 rng(24);
  PlantedGraph pg = SmallPlanted(9);
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<EdgeUpdate> updates = RandomDelta(pg.graph, rng, 3, 3);
    RepairAndCheck(pg.graph, updates, {}, "planted");
  }
}

TEST(DynamicIndexTest, FallbackThresholdCrossing) {
  std::mt19937_64 rng(25);
  LabeledGraph g = MakeRandomGraph(40, 0.15, 2, 500);
  const std::vector<EdgeUpdate> updates = RandomDelta(g, rng, 3, 3);

  // Cap 0 forces every touched label/pair onto the scoped-rebuild path.
  UpdateRepairOptions scoped;
  scoped.label_incremental_cap = 0;
  scoped.pair_incremental_cap = 0;
  const UpdateRepairStats s1 = RepairAndCheck(g, updates, scoped, "cap 0");
  EXPECT_EQ(s1.labels_incremental, 0u);
  EXPECT_EQ(s1.pairs_incremental, 0u);
  EXPECT_EQ(s1.labels_rebuilt + s1.pairs_recounted, s1.labels_touched + s1.pairs_touched);

  // A huge cap keeps single-direction labels and all pairs incremental.
  UpdateRepairOptions generous;
  generous.label_incremental_cap = 1000;
  generous.pair_incremental_cap = 1000;
  const UpdateRepairStats s2 = RepairAndCheck(g, updates, generous, "cap 1000");
  EXPECT_GT(s2.pairs_incremental + s2.labels_incremental + s2.labels_rebuilt, 0u);
  EXPECT_EQ(s2.pairs_recounted, 0u);
}

TEST(DynamicIndexTest, UncachedPairsFaultInAgainstUpdatedGraph) {
  std::mt19937_64 rng(26);
  LabeledGraph g = MakeRandomGraph(36, 0.15, 3, 600);
  BcIndex index(g);  // nothing materialized
  const std::vector<EdgeUpdate> updates = RandomDelta(g, rng, 3, 3);
  auto delta = BuildGraphDelta(g, updates);
  ASSERT_TRUE(delta.has_value());
  const LabeledGraph updated = ApplyGraphDelta(g, *delta);
  const auto repaired = index.ApplyUpdates(updated, *delta);
  EXPECT_EQ(repaired->CachedPairCount(), 0u);
  // First use computes against the updated graph.
  BcIndex fresh(updated);
  for (Label a = 0; a < 3; ++a) {
    for (Label b = a + 1; b < 3; ++b) {
      EXPECT_EQ(repaired->PairButterflies(a, b).total, fresh.PairButterflies(a, b).total);
    }
  }
}

// Each epoch's adjacency and coreness live in their own page mappings, so
// releasing an epoch unmaps them. After a chain of updates, releasing every
// older graph and index (the base included) must leave the newest epoch
// whole: equal to a graph rebuilt from the surviving edges, and to a fresh
// index over it. A read of a released epoch's arrays would fault on an
// unmapped page, or trip ASan (the test carries the `sanitize` label).
TEST(DynamicIndexTest, NewestEpochOutlivesReleasedAncestors) {
  std::mt19937_64 rng(28);
  struct Epoch {
    std::unique_ptr<LabeledGraph> graph;
    std::unique_ptr<BcIndex> index;
  };
  std::vector<Epoch> chain;
  chain.push_back({std::make_unique<LabeledGraph>(SmallPlanted(17).graph), nullptr});
  const LabeledGraph& base = *chain.back().graph;
  chain.back().index = std::make_unique<BcIndex>(base);
  chain.back().index->MaterializeAllPairs();
  std::vector<Label> labels;
  for (VertexId v = 0; v < base.NumVertices(); ++v) labels.push_back(base.LabelOf(v));
  std::set<std::pair<VertexId, VertexId>> edges;
  for (const Edge& e : base.AllEdges()) edges.insert({e.u, e.v});

  for (std::size_t step = 0; step < 6; ++step) {
    const Epoch& prev = chain.back();
    const std::vector<EdgeUpdate> updates =
        RandomDelta(*prev.graph, rng, 1 + step % 3, 1 + step % 2);
    const auto delta = BuildGraphDelta(*prev.graph, updates);
    ASSERT_TRUE(delta.has_value());
    for (const Edge& e : delta->inserts) edges.insert({e.u, e.v});
    for (const Edge& e : delta->deletes) edges.erase({e.u, e.v});
    Epoch next;
    next.graph = std::make_unique<LabeledGraph>(ApplyGraphDelta(*prev.graph, *delta));
    next.index = prev.index->ApplyUpdates(*next.graph, *delta);
    chain.push_back(std::move(next));
    if (step % 2 == 1) chain.erase(chain.begin(), chain.end() - 1);  // oldest first
  }
  chain.erase(chain.begin(), chain.end() - 1);
  ASSERT_EQ(chain.size(), 1u);

  std::vector<Edge> want_edges;
  for (const auto& [u, v] : edges) want_edges.push_back({u, v});
  const LabeledGraph want =
      LabeledGraph::FromEdges(labels.size(), std::move(want_edges), labels);
  ExpectSameGraph(*chain.back().graph, want, "newest epoch");
  ExpectIndexMatchesFreshBuild(*chain.back().index, *chain.back().graph, "newest epoch");
  EXPECT_GT(chain.back().index->CachedPairCount(), 0u);
}

// An intra-label update drops that label's forest from the new epoch, which
// rebuilds it on first use while the old epoch keeps answering from its own
// forest. Both run at once here, one thread per epoch, and every
// index-resolved query group must equal a fresh index's over that epoch's
// graph (ResolveQueryGroup, with its DCHECK audit in dev builds).
TEST(DynamicIndexTest, NewEpochRebuildsForestWhileOldEpochServes) {
  std::mt19937_64 rng(29);
  const PlantedGraph pg = SmallPlanted(19, 2);
  const LabeledGraph& g = pg.graph;
  BcIndex base(g);
  for (Label l = 0; l < g.NumLabels(); ++l) base.LabelForest(l);
  std::vector<EdgeUpdate> updates;
  for (const EdgeUpdate& u : RandomDelta(g, rng, 20, 20)) {
    if (g.LabelOf(u.edge.u) == 0 && g.LabelOf(u.edge.v) == 0) updates.push_back(u);
  }
  ASSERT_FALSE(updates.empty());
  const auto delta = BuildGraphDelta(g, updates);
  ASSERT_TRUE(delta.has_value());
  const LabeledGraph updated = ApplyGraphDelta(g, *delta);
  const auto repaired = base.ApplyUpdates(updated, *delta);
  EXPECT_EQ(repaired->ForestCount(), g.NumLabels() - 1) << "label 0's forest is dropped";

  // Reference answers per epoch: (k, side) for every vertex at auto k.
  using Answers = std::vector<std::pair<std::uint32_t, std::vector<VertexId>>>;
  auto resolve_all = [](const LabeledGraph& graph, const BcIndex& index) {
    QueryWorkspace ws;
    Answers out(graph.NumVertices());
    for (VertexId q = 0; q < graph.NumVertices(); ++q) {
      out[q].first = ResolveQueryGroup(graph, q, 0, nullptr, &index, ws, &out[q].second);
    }
    return out;
  };
  const Answers want_old = resolve_all(g, BcIndex(g));
  const Answers want_new = resolve_all(updated, BcIndex(updated));
  Answers got_old, got_new;
  std::thread old_epoch([&] {
    for (int round = 0; round < 3; ++round) got_old = resolve_all(g, base);
  });
  std::thread new_epoch([&] { got_new = resolve_all(updated, *repaired); });
  old_epoch.join();
  new_epoch.join();
  EXPECT_EQ(got_old, want_old);
  EXPECT_EQ(got_new, want_new);
  EXPECT_NE(&repaired->LabelForest(0), &base.LabelForest(0));
  EXPECT_EQ(&repaired->LabelForest(1), &base.LabelForest(1));
}

// ---------------------------------------------------------------------------
// Query answers after ApplyUpdates are bit-identical to a fresh build.
// ---------------------------------------------------------------------------

TEST(DynamicIndexTest, QueriesBitIdenticalToFreshIndex) {
  std::mt19937_64 rng(27);
  PlantedGraph pg = SmallPlanted(13);
  const LabeledGraph& g = pg.graph;
  const std::vector<EdgeUpdate> updates = RandomDelta(g, rng, 6, 6);
  auto delta = BuildGraphDelta(g, updates);
  ASSERT_TRUE(delta.has_value());
  const LabeledGraph updated = ApplyGraphDelta(g, *delta);

  BcIndex base(g);
  base.MaterializeAllPairs();
  const auto repaired = base.ApplyUpdates(updated, *delta);
  BcIndex fresh(updated);
  fresh.MaterializeAllPairs();

  std::vector<BccQuery> queries;
  for (const PlantedCommunity& c : pg.communities) {
    queries.push_back({c.groups[0][0], c.groups[1][0]});
  }
  BatchRunner runner(2);
  const BccParams params;
  const BatchResult from_repaired = runner.RunL2pBatch(updated, *repaired, queries, params);
  const BatchResult from_fresh = runner.RunL2pBatch(updated, fresh, queries, params);
  ASSERT_EQ(from_repaired.communities.size(), from_fresh.communities.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(from_repaired.communities[i].vertices, from_fresh.communities[i].vertices)
        << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// ServeEngine epoch semantics.
// ---------------------------------------------------------------------------

TEST(ServeUpdateTest, QueriesObserveTheirEpoch) {
  PlantedGraph pg = SmallPlanted(31, 2);
  const LabeledGraph& g = pg.graph;
  const BccQuery q{pg.communities[0].groups[0][0], pg.communities[0].groups[1][0]};

  // Pre-update answer (separate engine, same planning options).
  BatchRunner runner(2);
  QueryRequest query;
  query.query = q;
  query.method = QueryMethod::kLpBcc;
  ServeEngine pre_engine(runner, g);
  const Community pre = pre_engine.Serve(std::vector<QueryRequest>{query}).communities[0];
  ASSERT_FALSE(pre.Empty());

  // Isolate ql entirely: afterwards no connected subgraph contains both
  // query vertices, so the post-update answer must be empty.
  UpdateRequest update;
  for (VertexId w : g.Neighbors(q.ql)) {
    update.updates.push_back({EdgeUpdateKind::kDelete, {q.ql, w}});
  }
  ASSERT_FALSE(update.updates.empty());

  ServeEngine engine(runner, g);
  std::vector<ServeItem> items;
  items.emplace_back(query);
  items.emplace_back(update);
  items.emplace_back(query);
  const BatchResult result = engine.RunStream(items);

  ASSERT_EQ(result.updates.size(), 1u);
  EXPECT_TRUE(result.updates[0].applied) << result.updates[0].error;
  EXPECT_EQ(result.updates[0].epoch, 2u);
  ASSERT_EQ(result.epoch_of.size(), 3u);
  EXPECT_EQ(result.epoch_of[0], 1u);
  EXPECT_EQ(result.epoch_of[1], 2u);
  EXPECT_EQ(result.epoch_of[2], 2u);

  // The pre-update query matches the pre-update engine; the post-update
  // query observes the changed graph.
  EXPECT_EQ(result.communities[0].vertices, pre.vertices);
  EXPECT_TRUE(result.communities[2].Empty());
  EXPECT_EQ(engine.epoch(), 2u);
  EXPECT_LT(engine.graph().NumEdges(), g.NumEdges());
}

TEST(ServeUpdateTest, RejectedUpdateLeavesEpochUntouched) {
  LabeledGraph g = LabeledGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}}, {0, 1, 0, 1});
  BatchRunner runner(1);
  ServeEngine engine(runner, g);

  QueryRequest query;
  query.query = BccQuery{0, 1};
  query.method = QueryMethod::kOnlineBcc;
  UpdateRequest bad;
  bad.updates = MakeInsert({{0, 1}});  // already present: rejected

  std::vector<ServeItem> items;
  items.emplace_back(bad);
  items.emplace_back(query);
  const BatchResult result = engine.RunStream(items);
  ASSERT_EQ(result.updates.size(), 1u);
  EXPECT_FALSE(result.updates[0].applied);
  EXPECT_NE(result.updates[0].error.find("insert of existing edge"), std::string::npos)
      << result.updates[0].error;
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(result.epoch_of[1], 1u);
  EXPECT_EQ(&engine.graph(), &g);  // still serving the original graph
}

TEST(ServeUpdateTest, UpdateOnlyStreamHasNoQueryLatency) {
  // The latency/qps summary describes query serving; an update's apply
  // time must not masquerade as a served query.
  LabeledGraph g = LabeledGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}}, {0, 1, 0, 1});
  BatchRunner runner(1);
  ServeEngine engine(runner, g);
  UpdateRequest update;
  update.updates = MakeInsert({{0, 3}});
  std::vector<ServeItem> items;
  items.emplace_back(update);
  const BatchResult result = engine.RunStream(items);
  ASSERT_EQ(result.updates.size(), 1u);
  EXPECT_TRUE(result.updates[0].applied) << result.updates[0].error;
  EXPECT_EQ(result.latency.qps, 0);
  EXPECT_EQ(result.latency.avg_seconds, 0);
  EXPECT_TRUE(result.lanes.empty());
  EXPECT_GE(result.seconds[0], 0);  // the slot still records the apply time
}

TEST(ServeUpdateTest, L2pServesRepairedIndexAcrossEpochs) {
  PlantedGraph pg = SmallPlanted(37, 2);
  const LabeledGraph& g = pg.graph;
  std::mt19937_64 rng(41);
  const std::vector<EdgeUpdate> updates = RandomDelta(g, rng, 4, 4);

  auto base_graph = std::make_shared<const LabeledGraph>(g);
  auto base_index = std::make_shared<BcIndex>(*base_graph);
  base_index->MaterializeAllPairs();

  BatchRunner runner(2);
  ServeEngine engine(runner, base_graph, base_index);

  UpdateRequest update;
  update.updates = updates;
  std::vector<ServeItem> items;
  items.emplace_back(update);
  QueryRequest query;
  query.method = QueryMethod::kL2pBcc;
  for (const PlantedCommunity& c : pg.communities) {
    query.query = BccQuery{c.groups[0][0], c.groups[1][0]};
    items.emplace_back(query);
  }
  const BatchResult served = engine.RunStream(items);
  ASSERT_TRUE(served.updates[0].applied) << served.updates[0].error;

  // Reference: fresh index on the updated graph, same request ids.
  auto delta = BuildGraphDelta(g, updates);
  ASSERT_TRUE(delta.has_value());
  const LabeledGraph updated = ApplyGraphDelta(g, *delta);
  BcIndex fresh(updated);
  fresh.MaterializeAllPairs();
  ServeEngine reference(runner, updated, &fresh);
  std::vector<QueryRequest> ref_queries;
  for (std::size_t i = 1; i < items.size(); ++i) {
    QueryRequest r = std::get<QueryRequest>(items[i]);
    r.request_id = 1 + i;  // match the ids the mixed stream assigned
    ref_queries.push_back(r);
  }
  const BatchResult want = reference.Serve(ref_queries);
  for (std::size_t i = 0; i < ref_queries.size(); ++i) {
    EXPECT_EQ(served.communities[1 + i].vertices, want.communities[i].vertices)
        << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Truss maintenance under edge updates (the CTC substrate on dynamic
// graphs): RemoveEdge must leave exactly the k-truss of the remaining
// edges.
// ---------------------------------------------------------------------------

TEST(TrussRemoveEdgeTest, MatchesRebuiltDecomposition) {
  // K5 {0..4} plus a pendant triangle {4, 5, 6}.
  std::vector<Edge> edges;
  for (VertexId i = 0; i < 5; ++i) {
    for (VertexId j = i + 1; j < 5; ++j) edges.push_back({i, j});
  }
  edges.push_back({4, 5});
  edges.push_back({4, 6});
  edges.push_back({5, 6});
  LabeledGraph g = LabeledGraph::FromEdges(7, edges, std::vector<Label>(7, 0));

  const std::uint32_t k = 4;
  TrussDecomposition td = TrussDecomposition::Compute(g);
  const auto all = testing::AllVertices(g);
  KTrussMaintainer maintainer(g, td, all, k);

  auto alive_edges = [&] {
    std::vector<Edge> out;
    for (std::uint32_t e = 0; e < td.edges().size(); ++e) {
      if (maintainer.EdgeAlive(e)) out.push_back(td.edges()[e]);
    }
    return out;
  };
  auto expect_matches_rebuild = [&](const std::vector<Edge>& removed) {
    std::vector<Edge> remaining;
    for (const Edge& e : g.AllEdges()) {
      if (std::find(removed.begin(), removed.end(), e) == removed.end()) {
        remaining.push_back(e);
      }
    }
    LabeledGraph rebuilt =
        LabeledGraph::FromEdges(7, remaining, std::vector<Label>(7, 0));
    TrussDecomposition td2 = TrussDecomposition::Compute(rebuilt);
    std::vector<Edge> want;
    for (std::uint32_t e = 0; e < td2.edges().size(); ++e) {
      if (td2.trussness()[e] >= k) want.push_back(td2.edges()[e]);
    }
    EXPECT_EQ(alive_edges(), want);
  };

  // Removing one K5 edge keeps the rest of the clique 4-trussy.
  EXPECT_TRUE(maintainer.RemoveEdge(0, 1).empty());
  expect_matches_rebuild({{0, 1}});

  // A second incident removal cascades vertex 0 out entirely.
  const std::vector<VertexId> died = maintainer.RemoveEdge(0, 2);
  EXPECT_EQ(died, std::vector<VertexId>{0});
  expect_matches_rebuild({{0, 1}, {0, 2}});

  // Removing an edge that is already dead is a no-op.
  EXPECT_TRUE(maintainer.RemoveEdge(0, 3).empty());
  // Absent edges are a no-op too.
  EXPECT_TRUE(maintainer.RemoveEdge(1, 6).empty());
}

}  // namespace
}  // namespace bccs
