#include "bcc/bc_index.h"

#include <gtest/gtest.h>

#include "bcc/local_search.h"
#include "bcc/verify.h"
#include "core/core_decomposition.h"
#include "graph/generators.h"
#include "graph/paper_graphs.h"
#include "test_util.h"

namespace bccs {
namespace {

using testing::MaskOf;

TEST(BcIndexTest, CorenessMatchesLabelCoreness) {
  Figure1Graph f = MakeFigure1Graph();
  BcIndex index(f.graph);
  auto expected = LabelCoreness(f.graph);
  for (VertexId v = 0; v < f.graph.NumVertices(); ++v) {
    EXPECT_EQ(index.Coreness(v), expected[v]);
  }
  EXPECT_EQ(index.MaxCoreness(f.se), 4u);
  EXPECT_EQ(index.MaxCoreness(f.ui), 3u);
}

TEST(BcIndexTest, PairButterfliesMatchDirectCount) {
  Figure1Graph f = MakeFigure1Graph();
  BcIndex index(f.graph);
  const ButterflyCounts& pair = index.PairButterflies(f.se, f.ui);
  auto se = f.graph.VerticesWithLabel(f.se);
  auto ui = f.graph.VerticesWithLabel(f.ui);
  std::vector<VertexId> left(se.begin(), se.end()), right(ui.begin(), ui.end());
  auto direct = CountButterflies(f.graph, left, right, MaskOf(f.graph, left),
                                 MaskOf(f.graph, right));
  for (VertexId v = 0; v < f.graph.NumVertices(); ++v) {
    EXPECT_EQ(pair.chi[v], direct.chi[v]);
  }
  EXPECT_EQ(pair.total, direct.total);
}

TEST(BcIndexTest, PairOrderInsensitiveAndCached) {
  Figure1Graph f = MakeFigure1Graph();
  BcIndex index(f.graph);
  const ButterflyCounts& a = index.PairButterflies(f.se, f.ui);
  const ButterflyCounts& b = index.PairButterflies(f.ui, f.se);
  EXPECT_EQ(&a, &b) << "the pair table must canonicalize the label pair";
}

TEST(BcIndexTest, MultiLabelPairsIndependent) {
  PlantedConfig cfg;
  cfg.groups_per_community = 3;
  cfg.num_labels = 4;
  cfg.num_communities = 4;
  cfg.seed = 9;
  PlantedGraph pg = GeneratePlanted(cfg);
  BcIndex index(pg.graph);
  // Different label pairs produce different count objects; totals are
  // non-negative and consistent with a direct recount.
  const ButterflyCounts& p01 = index.PairButterflies(0, 1);
  const ButterflyCounts& p02 = index.PairButterflies(0, 2);
  EXPECT_NE(&p01, &p02);
}

TEST(L2pMbccTest, MatchesGlobalMbccOnChain) {
  // The chain fixture from mbcc_test: the local variant must find the same
  // (unique) community.
  std::vector<Edge> edges;
  std::vector<Label> labels(12);
  for (VertexId base : {0u, 4u, 8u}) {
    for (VertexId i = 0; i < 4; ++i) {
      for (VertexId j = i + 1; j < 4; ++j) edges.push_back({base + i, base + j});
      labels[base + i] = base / 4;
    }
  }
  for (VertexId a : {0u, 1u}) {
    for (VertexId b : {4u, 5u}) edges.push_back({a, b});
  }
  for (VertexId a : {6u, 7u}) {
    for (VertexId b : {8u, 9u}) edges.push_back({a, b});
  }
  LabeledGraph g = LabeledGraph::FromEdges(12, std::move(edges), std::move(labels));
  BcIndex index(g);
  MbccQuery q{{0, 4, 8}};
  MbccParams p;
  p.k = {3, 3, 3};
  p.b = 1;
  Community global = MbccSearch(g, q, p, LpBccOptions());
  Community local = L2pMbcc(g, index, q, p);
  EXPECT_EQ(global.vertices, local.vertices);
}

TEST(L2pMbccTest, TinyEtaRecoversViaRetries) {
  PlantedConfig cfg;
  cfg.num_communities = 5;
  cfg.groups_per_community = 3;
  cfg.num_labels = 5;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.intra_edge_prob = 0.5;
  cfg.cross_pair_prob = 0.15;
  cfg.seed = 77;
  PlantedGraph pg = GeneratePlanted(cfg);
  BcIndex index(pg.graph);
  const auto& comm = pg.communities[0];
  MbccQuery q{{comm.groups[0][0], comm.groups[1][0], comm.groups[2][0]}};
  MbccParams p;
  p.k.assign(3, 2);
  Community global = MbccSearch(pg.graph, q, p, LpBccOptions());
  if (global.Empty()) GTEST_SKIP() << "no mBCC for this seed";

  L2pOptions opts;
  opts.eta = 4;
  Community local = L2pMbcc(pg.graph, index, q, p, opts);
  ASSERT_FALSE(local.Empty());
  EXPECT_EQ(VerifyMbcc(pg.graph, local, q.vertices, p.k, p.b), MbccViolation::kNone);
}

TEST(L2pMbccTest, RejectsBadQueries) {
  Figure1Graph f = MakeFigure1Graph();
  BcIndex index(f.graph);
  MbccParams p;
  EXPECT_TRUE(L2pMbcc(f.graph, index, MbccQuery{{f.ql}}, p).Empty());
  EXPECT_TRUE(L2pMbcc(f.graph, index, MbccQuery{{f.ql, f.v1}}, p).Empty());
}

}  // namespace
}  // namespace bccs
