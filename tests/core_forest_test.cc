#include "core/core_forest.h"

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bcc/bc_index.h"
#include "core/core_decomposition.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "graph/snapshot.h"
#include "test_util.h"

namespace bccs {
namespace {

using testing::MakeRandomGraph;
using testing::RandomDelta;

/// Every forest component of `index` against the paper's routines: for each
/// label, each member q and each k in 1..coreness(q)+1, the forest's answer
/// must equal ComponentContaining(KCoreOfSubset(group, k), q) (empty past
/// q's coreness).
void ExpectForestsMatchReference(const BcIndex& index, const LabeledGraph& g,
                                 const std::string& note) {
  std::vector<VertexId> got;
  for (Label l = 0; l < g.NumLabels(); ++l) {
    const auto group = g.VerticesWithLabel(l);
    if (group.empty()) continue;
    const CoreForest& forest = index.LabelForest(l);
    const std::vector<std::uint32_t> coreness = SubsetCoreness(g, group);
    std::uint32_t kmax = 0;
    for (VertexId v : group) kmax = std::max(kmax, coreness[v]);
    for (std::uint32_t k = 1; k <= kmax + 1; ++k) {
      const std::vector<VertexId> core = KCoreOfSubset(g, group, k);
      for (VertexId q : group) {
        ASSERT_EQ(index.Coreness(q), coreness[q]) << note << " vertex " << q;
        forest.Component(group, q, k, &got);
        ASSERT_EQ(got, ComponentContaining(g, core, q))
            << note << " label " << l << " vertex " << q << " k=" << k;
      }
    }
  }
}

PlantedGraph MakePlanted(std::uint64_t seed, std::size_t labels) {
  PlantedConfig cfg;
  cfg.num_communities = 6;
  cfg.groups_per_community = std::min<std::size_t>(labels, 3);
  cfg.num_labels = labels;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.background_vertices = 40;
  cfg.seed = seed;
  return GeneratePlanted(cfg);
}

TEST(CoreForestTest, TwoCliquesOnAPath) {
  // Two 4-cliques (3-cores) joined through vertex 8 (coreness 2), a pendant
  // 11 on vertex 0 (coreness 1), a separate edge 9-10 and an isolated 12.
  std::vector<Edge> edges;
  for (VertexId base : {0u, 4u}) {
    for (VertexId i = 0; i < 4; ++i) {
      for (VertexId j = i + 1; j < 4; ++j) edges.push_back({base + i, base + j});
    }
  }
  edges.push_back({3, 8});
  edges.push_back({8, 4});
  edges.push_back({0, 11});
  edges.push_back({9, 10});
  LabeledGraph g = LabeledGraph::FromEdges(13, std::move(edges), std::vector<Label>(13, 0));
  BcIndex index(g);
  const CoreForest& forest = index.LabelForest(0);
  // Level 3: the two cliques; level 2: both plus 8; level 1: that plus 11,
  // and {9, 10}. Vertex 12 (coreness 0) is in no node.
  EXPECT_EQ(forest.NumNodes(), 5u);
  const auto group = g.VerticesWithLabel(0);
  std::vector<VertexId> out;
  forest.Component(group, 0, 3, &out);
  EXPECT_EQ(out, (std::vector<VertexId>{0, 1, 2, 3}));
  forest.Component(group, 5, 3, &out);
  EXPECT_EQ(out, (std::vector<VertexId>{4, 5, 6, 7}));
  forest.Component(group, 5, 2, &out);
  EXPECT_EQ(out, (std::vector<VertexId>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  forest.Component(group, 8, 3, &out);
  EXPECT_TRUE(out.empty());
  forest.Component(group, 8, 1, &out);
  EXPECT_EQ(out, (std::vector<VertexId>{0, 1, 2, 3, 4, 5, 6, 7, 8, 11}));
  forest.Component(group, 10, 1, &out);
  EXPECT_EQ(out, (std::vector<VertexId>{9, 10}));
  forest.Component(group, 12, 1, &out);
  EXPECT_TRUE(out.empty());
  ExpectForestsMatchReference(index, g, "two cliques");
}

class CoreForestPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoreForestPropertyTest, FreshIndexMatchesReference) {
  const std::uint64_t seed = GetParam();
  const PlantedGraph pg = MakePlanted(seed, 2 + seed % 3);
  ExpectForestsMatchReference(BcIndex(pg.graph), pg.graph, "planted");
  const LabeledGraph g = MakeRandomGraph(120, 0.06 + 0.02 * static_cast<double>(seed % 4),
                                         1 + seed % 4, seed);
  ExpectForestsMatchReference(BcIndex(g), g, "random");
}

TEST_P(CoreForestPropertyTest, RepairedIndexMatchesReference) {
  // Intra-label deletes and inserts drop the touched labels' forests; the
  // repaired index rebuilds them over its repaired coreness, and shares the
  // rest.
  const std::uint64_t seed = GetParam();
  const PlantedGraph pg = MakePlanted(seed + 100, 3);
  const LabeledGraph& g = pg.graph;
  BcIndex index(g);
  for (Label l = 0; l < g.NumLabels(); ++l) index.LabelForest(l);
  std::mt19937_64 rng(seed);
  std::vector<EdgeUpdate> updates;
  for (const EdgeUpdate& u : RandomDelta(g, rng, 40, 40)) {
    if (g.LabelOf(u.edge.u) == g.LabelOf(u.edge.v)) updates.push_back(u);
  }
  ASSERT_FALSE(updates.empty());
  const auto delta = BuildGraphDelta(g, updates);
  ASSERT_TRUE(delta.has_value());
  const LabeledGraph updated = ApplyGraphDelta(g, *delta);
  const auto repaired = index.ApplyUpdates(updated, *delta);
  ExpectForestsMatchReference(*repaired, updated, "repaired");
  testing::ExpectIndexMatchesFreshBuild(*repaired, updated, "repaired");
  // The base index still answers for the base graph from its own forests.
  ExpectForestsMatchReference(index, g, "base after repair");
}

TEST_P(CoreForestPropertyTest, SnapshotLoadedIndexMatchesReference) {
  const std::uint64_t seed = GetParam();
  const PlantedGraph pg = MakePlanted(seed + 200, 3);
  BcIndex built(pg.graph);
  const std::string path =
      ::testing::TempDir() + "/core_forest_" + std::to_string(seed) + ".snap";
  std::string error;
  ASSERT_TRUE(SaveSnapshot(built, path, &error)) << error;
  auto loaded = LoadSnapshot(path, &error);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->index->ForestCount(), 0u) << "forests are not part of the snapshot";
  ExpectForestsMatchReference(*loaded->index, *loaded->graph, "snapshot");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreForestPropertyTest, ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace bccs
