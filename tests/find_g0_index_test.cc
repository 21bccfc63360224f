// Differential tests of the index-backed Find-G0 (DESIGN.md contract 10):
// resolving the query groups from the BC-index's stored coreness must give
// exactly what the paper's peels give — G0, the resolved k, the butterfly
// counts and the final community — for a freshly built index, an index
// repaired by ApplyUpdates, an index loaded from a snapshot, and through
// ServeEngine at any worker count.

#include "bcc/find_g0.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bcc/bc_index.h"
#include "bcc/mbcc.h"
#include "bcc/online_search.h"
#include "eval/batch_runner.h"
#include "eval/query_gen.h"
#include "eval/serve_engine.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "graph/snapshot.h"
#include "test_util.h"

namespace bccs {
namespace {

// Three labels, same-label noise bridging communities and a sparse
// background, so label groups hold several coreness levels and the k-core
// components around a query span more than its own community.
PlantedGraph MakeGraph() {
  PlantedConfig cfg;
  cfg.num_communities = 6;
  cfg.groups_per_community = 3;
  cfg.num_labels = 3;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.intra_edge_prob = 0.4;
  cfg.background_vertices = 60;
  cfg.seed = 41;
  return GeneratePlanted(cfg);
}

std::vector<BccQuery> TwoLabelQueries(const PlantedGraph& pg) {
  std::vector<BccQuery> out;
  for (const PlantedCommunity& c : pg.communities) {
    out.push_back({c.groups[0][0], c.groups[1][0]});
    out.push_back({c.groups[1].back(), c.groups[2].back()});
  }
  return out;
}

std::vector<MbccQuery> MbccQueries(const PlantedGraph& pg) {
  std::vector<MbccQuery> out;
  for (const auto& gq : SampleMbccGroundTruthQueries(pg, 3, 12, 9)) out.push_back(gq.query);
  return out;
}

// Explicit-k variants around a query vertex's coreness: at it, above it (the
// query is outside the k-core, so its side is empty) and above the group's
// maximum (the k-core itself is empty).
std::vector<std::uint32_t> KVariants(const BcIndex& index, const LabeledGraph& g, VertexId q) {
  return {0, 1, 2, index.Coreness(q), index.Coreness(q) + 1,
          index.MaxCoreness(g.LabelOf(q)) + 1};
}

void ExpectSameG0(const G0Result& paper, const G0Result& indexed, const std::string& note) {
  EXPECT_EQ(paper.found, indexed.found) << note;
  EXPECT_EQ(paper.left, indexed.left) << note;
  EXPECT_EQ(paper.right, indexed.right) << note;
  EXPECT_EQ(paper.k1, indexed.k1) << note;
  EXPECT_EQ(paper.k2, indexed.k2) << note;
  // chi is indexed by the candidate's local ids (equal left/right give equal
  // numbering); a pooled buffer may run past them, so compare G0's entries.
  const std::size_t g0_size = paper.left.size() + paper.right.size();
  ASSERT_GE(paper.counts.chi.size(), g0_size) << note;
  ASSERT_GE(indexed.counts.chi.size(), g0_size) << note;
  EXPECT_TRUE(std::equal(paper.counts.chi.begin(), paper.counts.chi.begin() + g0_size,
                         indexed.counts.chi.begin()))
      << note;
  EXPECT_EQ(paper.counts.total, indexed.counts.total) << note;
  EXPECT_EQ(paper.counts.argmax_left, indexed.counts.argmax_left) << note;
  EXPECT_EQ(paper.counts.argmax_right, indexed.counts.argmax_right) << note;
}

// Every Find-G0 entry point with and without `index` on `g`. The index path
// runs on one warm workspace (as serving does), the paper path on none.
void ExpectIndexPathMatchesPaper(const LabeledGraph& g, const BcIndex& index,
                                 const std::vector<BccQuery>& queries,
                                 const std::vector<MbccQuery>& mqueries, const char* which) {
  ASSERT_FALSE(queries.empty());
  ASSERT_FALSE(mqueries.empty());
  QueryWorkspace ws;
  std::size_t found = 0;
  for (const BccQuery& q : queries) {
    for (std::uint32_t k1 : KVariants(index, g, q.ql)) {
      for (std::uint32_t k2 : {0u, index.Coreness(q.qr) + 1}) {
        const BccParams p{k1, k2, 1};
        const std::string note = std::string(which) + " q=(" + std::to_string(q.ql) + "," +
                                 std::to_string(q.qr) + ") k=(" + std::to_string(k1) + "," +
                                 std::to_string(k2) + ")";
        const G0Result paper = FindG0(g, q, p, nullptr);
        G0Result indexed = FindG0(g, q, p, nullptr, &ws, &index);
        ExpectSameG0(paper, indexed, note);
        found += paper.found;
        ReleaseG0Counts(&ws, &indexed);
        for (const SearchOptions& opts : {OnlineBccOptions(), LpBccOptions()}) {
          EXPECT_EQ(BccSearch(g, q, p, opts, nullptr).vertices,
                    BccSearch(g, q, p, opts, nullptr, &ws, &index).vertices)
              << note;
        }
      }
    }
  }
  EXPECT_GT(found, 0u) << which;

  std::size_t non_empty = 0;
  for (const MbccQuery& q : mqueries) {
    for (std::uint32_t k0 : KVariants(index, g, q.vertices[0])) {
      const MbccParams p{{k0, 0, 2}, 1};
      const std::string note =
          std::string(which) + " mbcc q0=" + std::to_string(q.vertices[0]) + " k0=" +
          std::to_string(k0);
      EXPECT_EQ(ResolveMbccCores(g, q, p), ResolveMbccCores(g, q, p, &ws, &index)) << note;
      EXPECT_EQ(ResolveMbccCores(g, q, p), ResolveMbccCores(g, q, p, nullptr, &index)) << note;
      const Community paper = MbccSearch(g, q, p, LpBccOptions());
      EXPECT_EQ(paper.vertices,
                MbccSearch(g, q, p, LpBccOptions(), nullptr, nullptr, &ws, &index).vertices)
          << note;
      non_empty += !paper.Empty();
    }
    const MbccParams auto_k;
    EXPECT_EQ(ResolveMbccCores(g, q, auto_k), ResolveMbccCores(g, q, auto_k, &ws, &index));
    EXPECT_EQ(MbccSearch(g, q, auto_k, OnlineBccOptions()).vertices,
              MbccSearch(g, q, auto_k, OnlineBccOptions(), nullptr, nullptr, &ws, &index)
                  .vertices);
  }
  EXPECT_GT(non_empty, 0u) << which;
}

TEST(FindG0IndexTest, FreshIndexMatchesPaperPath) {
  const PlantedGraph pg = MakeGraph();
  const BcIndex index(pg.graph);
  ExpectIndexPathMatchesPaper(pg.graph, index, TwoLabelQueries(pg), MbccQueries(pg), "fresh");
}

TEST(FindG0IndexTest, RepairedIndexMatchesPaperPath) {
  const PlantedGraph pg = MakeGraph();
  std::mt19937_64 rng(5);
  const auto delta = BuildGraphDelta(pg.graph, testing::RandomDelta(pg.graph, rng, 40, 40));
  ASSERT_TRUE(delta.has_value());
  ASSERT_FALSE(delta->inserts.empty());
  ASSERT_FALSE(delta->deletes.empty());
  const LabeledGraph updated = ApplyGraphDelta(pg.graph, *delta);
  const BcIndex base(pg.graph);
  const auto repaired = base.ApplyUpdates(updated, *delta);
  ExpectIndexPathMatchesPaper(updated, *repaired, TwoLabelQueries(pg), MbccQueries(pg),
                              "repaired");
}

TEST(FindG0IndexTest, SnapshotLoadedIndexMatchesPaperPath) {
  const PlantedGraph pg = MakeGraph();
  BcIndex built(pg.graph);
  built.MaterializeAllPairs();
  const std::string path = ::testing::TempDir() + "/find_g0_index.snap";
  std::string error;
  ASSERT_TRUE(SaveSnapshot(built, path, &error)) << error;
  auto loaded = LoadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ExpectIndexPathMatchesPaper(*loaded->graph, *loaded->index, TwoLabelQueries(pg),
                              MbccQueries(pg), "snapshot");
  std::remove(path.c_str());
}

// ServeEngine hands its pinned index to Online, LP and mBCC; the answers must
// equal direct no-index searches at any worker count.
TEST(FindG0IndexTest, ServeEngineWithIndexEqualsDirectSearches) {
  const PlantedGraph pg = MakeGraph();
  const BcIndex index(pg.graph);
  const std::vector<BccQuery> queries = TwoLabelQueries(pg);
  const std::vector<MbccQuery> mqueries = MbccQueries(pg);

  std::vector<QueryRequest> requests;
  std::vector<Community> expected;
  for (const BccQuery& q : queries) {
    for (QueryMethod m : {QueryMethod::kOnlineBcc, QueryMethod::kLpBcc}) {
      QueryRequest r;
      r.query = q;
      r.method = m;
      requests.push_back(r);
      expected.push_back(BccSearch(pg.graph, q, r.params,
                                   m == QueryMethod::kOnlineBcc ? OnlineBccOptions()
                                                                : LpBccOptions(),
                                   nullptr));
    }
  }
  for (const MbccQuery& q : mqueries) {
    QueryRequest r;
    r.query = q;
    r.method = QueryMethod::kMbcc;
    requests.push_back(r);
    expected.push_back(MbccSearch(pg.graph, q, r.mbcc_params, LpBccOptions()));
  }

  for (std::size_t workers : {1u, 4u}) {
    BatchRunner runner(workers);
    ServeEngine engine(runner, pg.graph, &index);
    const BatchResult result = engine.Serve(requests);
    ASSERT_EQ(result.communities.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(result.communities[i].vertices, expected[i].vertices)
          << "workers=" << workers << " request " << i;
    }
  }
}

}  // namespace
}  // namespace bccs
