#include "bcc/mbcc.h"

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bcc/find_g0.h"
#include "bcc/online_search.h"
#include "bcc/verify.h"
#include "graph/generators.h"
#include "graph/paper_graphs.h"
#include "test_util.h"

namespace bccs {
namespace {

// Definition 8 with m = 2 coincides with Definition 4: the two-label search
// and the 2-vertex mBCC search must agree on the answer and on every peel
// counter, for every option combination.
std::vector<SearchOptions> AllOptionCombinations() {
  std::vector<SearchOptions> all;
  for (int bits = 0; bits < 8; ++bits) {
    SearchOptions o;
    o.bulk_delete = (bits & 1) != 0;
    o.fast_query_distance = (bits & 2) != 0;
    o.use_leader_pair = (bits & 4) != 0;
    all.push_back(o);
  }
  return all;
}

std::string Describe(const SearchOptions& o) {
  return "bulk=" + std::to_string(o.bulk_delete) + " fast_qd=" +
         std::to_string(o.fast_query_distance) + " leader=" + std::to_string(o.use_leader_pair);
}

void ExpectSameSearch(const Community& bcc, const SearchStats& sb, const Community& mbcc,
                      const SearchStats& sm) {
  EXPECT_EQ(bcc.vertices, mbcc.vertices);
  EXPECT_EQ(sb.rounds, sm.rounds);
  EXPECT_EQ(sb.vertices_removed, sm.vertices_removed);
  EXPECT_EQ(sb.butterfly_counting_calls, sm.butterfly_counting_calls);
  EXPECT_EQ(sb.leader_rebuilds, sm.leader_rebuilds);
  EXPECT_EQ(sb.g0_size, sm.g0_size);
}

PlantedGraph TwoLabelPlanted(std::uint64_t seed) {
  PlantedConfig cfg;
  cfg.num_communities = 6;
  cfg.min_group_size = 10;
  cfg.max_group_size = 18;
  cfg.seed = seed + 300;
  return GeneratePlanted(cfg);
}

TEST(MbccTest, TwoLabelsEquivalentToBcc) {
  Figure1Graph f = MakeFigure1Graph();
  Community fig_mbcc = MbccSearch(f.graph, MbccQuery{{f.ql, f.qr}}, MbccParams{{4, 3}, 1},
                                  LpBccOptions());
  EXPECT_EQ(fig_mbcc.vertices, LpBcc(f.graph, BccQuery{f.ql, f.qr}, BccParams{4, 3, 1}).vertices);

  std::size_t non_empty = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    PlantedGraph pg = TwoLabelPlanted(seed);
    const auto& comm = pg.communities[seed % pg.communities.size()];
    const BccQuery q{comm.groups[0][0], comm.groups[1][0]};
    for (std::uint32_t k : {0u, 2u}) {
      for (std::uint64_t b : {1u, 2u}) {
        for (const SearchOptions& opts : AllOptionCombinations()) {
          SCOPED_TRACE("seed=" + std::to_string(seed) + " k=" + std::to_string(k) +
                       " b=" + std::to_string(b) + " " + Describe(opts));
          const BccParams bp{k, k, b};
          SearchStats sb, sm;
          Community bcc = BccSearch(pg.graph, q, bp, opts, &sb);
          Community mbcc =
              MbccSearch(pg.graph, MbccQuery{{q.ql, q.qr}}, MbccParams{{k, k}, b}, opts, &sm);
          // Resolved (non-auto) core parameters, for the verifier.
          G0Result g0 = FindG0(pg.graph, q, bp, nullptr);
          ExpectSameSearch(bcc, sb, mbcc, sm);
          if (bcc.Empty()) continue;
          ++non_empty;
          EXPECT_EQ(VerifyBcc(pg.graph, bcc, q, BccParams{g0.k1, g0.k2, b}),
                    BccViolation::kNone);
        }
      }
    }
  }
  EXPECT_GT(non_empty, 0u);
}

// The L2P local extension peels a G0 found inside a restriction:
// FindG0Restricted + PeelToBcc must match MbccSearch over the same mask.
TEST(MbccTest, RestrictedTwoLabelsEquivalentToBcc) {
  std::size_t non_empty = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    PlantedGraph pg = TwoLabelPlanted(seed);
    const auto& comm = pg.communities[seed % pg.communities.size()];
    const BccQuery q{comm.groups[0][0], comm.groups[1][0]};
    std::mt19937_64 rng(seed);
    std::vector<char> restrict_to(pg.graph.NumVertices(), 0);
    for (auto& in : restrict_to) in = (rng() % 100) < 85 ? 1 : 0;
    restrict_to[q.ql] = restrict_to[q.qr] = 1;
    const BccParams bp{0, 0, 1};
    for (const SearchOptions& opts : AllOptionCombinations()) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " " + Describe(opts));
      SearchStats sb, sm;
      G0Result g0 = FindG0Restricted(pg.graph, q, bp, &restrict_to, &sb);
      Community bcc = g0.found ? PeelToBcc(pg.graph, g0, q, opts, bp.b, &sb) : Community{};
      Community mbcc =
          MbccSearch(pg.graph, MbccQuery{{q.ql, q.qr}}, MbccParams{}, opts, &sm, &restrict_to);
      ExpectSameSearch(bcc, sb, mbcc, sm);
      if (bcc.Empty()) continue;
      ++non_empty;
      EXPECT_EQ(VerifyBcc(pg.graph, bcc, q, BccParams{g0.k1, g0.k2, bp.b}), BccViolation::kNone);
    }
  }
  EXPECT_GT(non_empty, 0u);
}

TEST(MbccTest, RejectsDuplicateLabels) {
  Figure1Graph f = MakeFigure1Graph();
  MbccQuery q{{f.ql, f.v1}};  // both SE
  EXPECT_TRUE(MbccSearch(f.graph, q, MbccParams{}, LpBccOptions()).Empty());
}

TEST(MbccTest, RejectsSingleQuery) {
  Figure1Graph f = MakeFigure1Graph();
  MbccQuery q{{f.ql}};
  EXPECT_TRUE(MbccSearch(f.graph, q, MbccParams{}, LpBccOptions()).Empty());
}

TEST(MbccTest, ResolveCores) {
  Figure1Graph f = MakeFigure1Graph();
  MbccQuery q{{f.ql, f.qr}};
  MbccParams p;  // all auto
  auto ks = ResolveMbccCores(f.graph, q, p);
  EXPECT_EQ(ks, (std::vector<std::uint32_t>{4, 3}));
  p.k = {2, 0};
  ks = ResolveMbccCores(f.graph, q, p);
  EXPECT_EQ(ks, (std::vector<std::uint32_t>{2, 3}));
}

// Builds a 3-label chain community: groups A-B connected by a biclique and
// B-C connected by a biclique, but no A-C cross edges. Cross-group
// connectivity (Definition 7) must hold through the path A-B-C.
LabeledGraph ChainCommunity() {
  std::vector<Edge> edges;
  std::vector<Label> labels(12);
  // Three labeled K4s: {0..3} label 0, {4..7} label 1, {8..11} label 2.
  for (VertexId base : {0u, 4u, 8u}) {
    for (VertexId i = 0; i < 4; ++i) {
      for (VertexId j = i + 1; j < 4; ++j) {
        edges.push_back({base + i, base + j});
      }
      labels[base + i] = base / 4;
    }
  }
  // Biclique {0,1} x {4,5} and biclique {6,7} x {8,9}.
  for (VertexId a : {0u, 1u}) {
    for (VertexId b : {4u, 5u}) edges.push_back({a, b});
  }
  for (VertexId a : {6u, 7u}) {
    for (VertexId b : {8u, 9u}) edges.push_back({a, b});
  }
  return LabeledGraph::FromEdges(12, std::move(edges), std::move(labels));
}

TEST(MbccTest, ChainConnectivityAccepted) {
  LabeledGraph g = ChainCommunity();
  MbccQuery q{{0, 4, 8}};
  MbccParams p;
  p.k = {3, 3, 3};
  p.b = 1;
  Community c = MbccSearch(g, q, p, LpBccOptions());
  ASSERT_FALSE(c.Empty());
  EXPECT_EQ(c.vertices.size(), 12u);
  EXPECT_EQ(VerifyMbcc(g, c, q.vertices, p.k, p.b), MbccViolation::kNone);
}

TEST(MbccTest, BrokenChainRejected) {
  // Remove the B-C biclique: label 2 becomes unreachable in the meta-graph.
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
  // Single edge B-C: connectivity of the plain graph holds but there is no
  // butterfly between labels 1 and 2.
  edges.push_back({7, 8});
  LabeledGraph g = LabeledGraph::FromEdges(12, std::move(edges), std::move(labels));
  MbccQuery q{{0, 4, 8}};
  MbccParams p;
  p.k = {3, 3, 3};
  p.b = 1;
  EXPECT_TRUE(MbccSearch(g, q, p, LpBccOptions()).Empty());
}

class MbccPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MbccPropertyTest, ValidOnPlantedMultiLabelGraphs) {
  PlantedConfig cfg;
  cfg.num_communities = 5;
  cfg.groups_per_community = 4;
  cfg.num_labels = 6;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.intra_edge_prob = 0.5;
  cfg.cross_pair_prob = 0.15;
  cfg.seed = GetParam() + 60;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[GetParam() % pg.communities.size()];

  for (std::size_t m : {2u, 3u, 4u}) {
    MbccQuery q;
    for (std::size_t i = 0; i < m; ++i) q.vertices.push_back(comm.groups[i][0]);
    MbccParams p;
    p.k.assign(m, 2);
    p.b = 1;
    for (bool leader : {false, true}) {
      SearchOptions opts = leader ? LpBccOptions() : OnlineBccOptions();
      Community c = MbccSearch(pg.graph, q, p, opts);
      ASSERT_FALSE(c.Empty()) << "m=" << m << " leader=" << leader;
      EXPECT_EQ(VerifyMbcc(pg.graph, c, q.vertices, p.k, p.b), MbccViolation::kNone)
          << "m=" << m << " leader=" << leader << " seed=" << GetParam();
    }
  }
}

TEST_P(MbccPropertyTest, LeaderStrategyMatchesOnline) {
  PlantedConfig cfg;
  cfg.num_communities = 4;
  cfg.groups_per_community = 3;
  cfg.num_labels = 5;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.intra_edge_prob = 0.5;
  cfg.cross_pair_prob = 0.2;
  cfg.seed = GetParam() + 90;
  PlantedGraph pg = GeneratePlanted(cfg);
  const auto& comm = pg.communities[0];
  MbccQuery q;
  for (std::size_t i = 0; i < 3; ++i) q.vertices.push_back(comm.groups[i][0]);
  MbccParams p;
  p.k.assign(3, 2);
  Community online = MbccSearch(pg.graph, q, p, OnlineBccOptions());
  Community lp = MbccSearch(pg.graph, q, p, LpBccOptions());
  EXPECT_EQ(online.vertices, lp.vertices);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbccPropertyTest, ::testing::Range<std::uint64_t>(0, 5));

}  // namespace
}  // namespace bccs
