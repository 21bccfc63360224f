// CandidateGraph (DESIGN.md contract 11): G[G0] with local ids must be the
// induced subgraph, with correct per-group sub-ranges, a lossless id map
// and no buffer growth once a workspace is warm.

#include "bcc/candidate_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "bcc/workspace.h"
#include "graph/generators.h"
#include "test_util.h"

namespace bccs {
namespace {

// Groups of the planted graph: for every label, its members that appear in
// one of the first `communities` planted communities, plus every fifth
// vertex of the label outside them (which are often isolated in the
// candidate). Returned ascending, as Find-G0 produces them.
std::vector<std::vector<VertexId>> PlantedGroups(const PlantedGraph& pg, std::size_t m,
                                                 std::size_t communities) {
  std::vector<std::set<VertexId>> groups(m);
  for (std::size_t c = 0; c < communities && c < pg.communities.size(); ++c) {
    for (const auto& grp : pg.communities[c].groups) {
      for (VertexId v : grp) {
        if (pg.graph.LabelOf(v) < m) groups[pg.graph.LabelOf(v)].insert(v);
      }
    }
  }
  for (Label l = 0; l < m; ++l) {
    std::size_t i = 0;
    for (VertexId v : pg.graph.VerticesWithLabel(l)) {
      if (i++ % 5 == 0) groups[l].insert(v);
    }
  }
  std::vector<std::vector<VertexId>> out;
  for (const auto& grp : groups) out.emplace_back(grp.begin(), grp.end());
  return out;
}

PlantedGraph MakePlanted(std::size_t m, std::uint64_t seed) {
  PlantedConfig cfg;
  cfg.num_communities = 10;
  cfg.groups_per_community = m;
  cfg.num_labels = m;
  cfg.background_vertices = 60;
  cfg.seed = seed;
  return GeneratePlanted(cfg);
}

// Checks every structural promise of `cg` against the graph and the groups
// it was built from.
void ExpectInducedSubgraph(const LabeledGraph& g, const std::vector<std::vector<VertexId>>& groups,
                           const CandidateGraph& cg) {
  const std::size_t m = groups.size();
  ASSERT_EQ(cg.NumGroups(), m);
  std::vector<char> member(g.NumVertices(), 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < m; ++i) {
    // Group i is the contiguous local range of its members, ascending.
    ASSERT_EQ(cg.GroupEnd(i) - cg.GroupBegin(i), groups[i].size());
    EXPECT_EQ(cg.GroupBegin(i), total);
    for (std::size_t k = 0; k < groups[i].size(); ++k) {
      const VertexId local = cg.GroupBegin(i) + static_cast<VertexId>(k);
      EXPECT_EQ(cg.ToGlobal(local), groups[i][k]);
      EXPECT_EQ(cg.ToLocal(groups[i][k]), local);  // round trip
      EXPECT_EQ(cg.GroupOf(local), i);
      member[groups[i][k]] = 1;
    }
    total += groups[i].size();
  }
  ASSERT_EQ(cg.NumVertices(), total);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (!member[v]) {
      EXPECT_EQ(cg.ToLocal(v), kInvalidVertex) << "non-member " << v;
    }
  }

  const LabeledGraph& view = cg.graph();
  ASSERT_EQ(view.NumVertices(), total);
  ASSERT_EQ(view.NumLabels(), m);
  std::size_t entries = 0;
  for (VertexId v = 0; v < total; ++v) {
    // Whole adjacency: the induced neighbours, ascending by local id.
    std::vector<VertexId> want;
    for (VertexId w : g.Neighbors(cg.ToGlobal(v))) {
      if (member[w]) want.push_back(cg.ToLocal(w));
    }
    std::sort(want.begin(), want.end());
    const auto nbrs = cg.Neighbors(v);
    EXPECT_EQ(std::vector<VertexId>(nbrs.begin(), nbrs.end()), want) << "vertex " << v;
    const auto view_nbrs = view.Neighbors(v);
    EXPECT_TRUE(std::equal(view_nbrs.begin(), view_nbrs.end(), nbrs.begin(), nbrs.end()));
    EXPECT_EQ(view.LabelOf(v), cg.GroupOf(v));
    entries += nbrs.size();
    // Sub-ranges: consecutive slices of the adjacency, one per group.
    const VertexId* at = nbrs.data();
    for (std::size_t i = 0; i < m; ++i) {
      const auto in = cg.NeighborsIn(v, i);
      EXPECT_EQ(in.data(), at) << "vertex " << v << " group " << i;
      for (VertexId w : in) EXPECT_EQ(cg.GroupOf(w), i);
      at += in.size();
    }
    EXPECT_EQ(at, nbrs.data() + nbrs.size());
  }
  EXPECT_EQ(view.NumEdges() * 2, entries);
  for (std::size_t i = 0; i < m; ++i) {
    const auto members = cg.GroupMembers(i);
    const auto labelled = view.VerticesWithLabel(static_cast<Label>(i));
    EXPECT_TRUE(std::equal(members.begin(), members.end(), labelled.begin(), labelled.end()));
  }
}

std::unique_ptr<CandidateGraph> Build(const LabeledGraph& g,
                                      const std::vector<std::vector<VertexId>>& groups,
                                      QueryWorkspace* ws) {
  const std::vector<std::span<const VertexId>> spans(groups.begin(), groups.end());
  std::unique_ptr<CandidateGraph> cg =
      ws != nullptr ? ws->AcquireCandidateGraph() : std::make_unique<CandidateGraph>();
  cg->Build(g, spans, ws);
  return cg;
}

class CandidateGraphTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CandidateGraphTest, InducedSubgraphOfPlantedGroups) {
  const std::size_t m = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const PlantedGraph pg = MakePlanted(m, seed);
    const auto groups = PlantedGroups(pg, m, 4);
    QueryWorkspace ws;
    auto cg = Build(pg.graph, groups, &ws);
    ExpectInducedSubgraph(pg.graph, groups, *cg);
    // The same graph without a workspace.
    ExpectInducedSubgraph(pg.graph, groups, *Build(pg.graph, groups, nullptr));
  }
}

TEST_P(CandidateGraphTest, RebuildOverDifferentGroupsReusesBuffers) {
  // One pooled graph rebuilt over a small, a large (its buffers grow) and
  // the small candidate again must describe each exactly: no entry lost in
  // a growth, none left stale from a larger build.
  const std::size_t m = GetParam();
  const PlantedGraph pg = MakePlanted(m, 7);
  const auto large = PlantedGroups(pg, m, 10);
  const auto small = PlantedGroups(pg, m, 1);
  QueryWorkspace ws;
  auto cg = ws.AcquireCandidateGraph();
  for (const auto* groups : {&small, &large, &small}) {
    const std::vector<std::span<const VertexId>> spans(groups->begin(), groups->end());
    cg->Build(pg.graph, spans, &ws);
    ExpectInducedSubgraph(pg.graph, *groups, *cg);
  }
  ws.ReleaseCandidateGraph(std::move(cg));
}

TEST_P(CandidateGraphTest, BulkInitsFlatAfterWarmUp) {
  const std::size_t m = GetParam();
  const PlantedGraph pg = MakePlanted(m, 3);
  const auto large = PlantedGroups(pg, m, 10);
  const auto small = PlantedGroups(pg, m, 2);
  QueryWorkspace ws;
  auto cycle = [&] {
    for (const auto* groups : {&large, &small}) {
      ws.ReleaseCandidateGraph(Build(pg.graph, *groups, &ws));
    }
  };
  cycle();  // warm-up
  const std::uint64_t warm = ws.Stats().bulk_inits;
  EXPECT_GT(warm, 0u);
  for (int i = 0; i < 3; ++i) cycle();
  EXPECT_EQ(ws.Stats().bulk_inits, warm);
}

INSTANTIATE_TEST_SUITE_P(Groups, CandidateGraphTest, ::testing::Values(2u, 3u));

TEST(CandidateGraphIsolatedTest, IsolatedAndUnsortedMembers) {
  // 0-2 and 1-3 are cross edges, 0-1 a group-0 edge; 4 (group 0) and 5
  // (group 1) have no neighbour in the candidate (5's only edge leads
  // outside it, to 6).
  std::vector<Edge> edges = {{0, 2}, {1, 3}, {0, 1}, {5, 6}};
  const LabeledGraph g = LabeledGraph::FromEdges(7, std::move(edges), {0, 0, 1, 1, 0, 1, 1});
  const std::vector<std::vector<VertexId>> unsorted = {{4, 1, 0}, {5, 3, 2}};
  const std::vector<std::vector<VertexId>> sorted = {{0, 1, 4}, {2, 3, 5}};
  auto cg = Build(g, unsorted, nullptr);
  ExpectInducedSubgraph(g, sorted, *cg);
  EXPECT_TRUE(cg->Neighbors(cg->ToLocal(4)).empty());
  EXPECT_TRUE(cg->Neighbors(cg->ToLocal(5)).empty());
  EXPECT_EQ(cg->ToLocal(6), kInvalidVertex);
  // 0's neighbours: 1 (own group) then 2 (cross).
  const VertexId l0 = cg->ToLocal(0);
  ASSERT_EQ(cg->NeighborsIn(l0, 0).size(), 1u);
  EXPECT_EQ(cg->ToGlobal(cg->NeighborsIn(l0, 0)[0]), 1u);
  ASSERT_EQ(cg->NeighborsIn(l0, 1).size(), 1u);
  EXPECT_EQ(cg->ToGlobal(cg->NeighborsIn(l0, 1)[0]), 2u);
}

TEST(CandidateGraphIsolatedTest, EmptyCandidate) {
  const LabeledGraph g = testing::MakePath(4);
  auto cg = Build(g, {{}, {}}, nullptr);
  EXPECT_EQ(cg->NumVertices(), 0u);
  EXPECT_EQ(cg->NumGroups(), 2u);
  EXPECT_EQ(cg->graph().NumVertices(), 0u);
  EXPECT_EQ(cg->ToLocal(0), kInvalidVertex);
}

}  // namespace
}  // namespace bccs
