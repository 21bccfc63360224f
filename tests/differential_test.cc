// Differential check of every search path under vertex renumbering. The peel
// runs on candidate-local ids (DESIGN.md contract 11), so a local/global id
// mix-up shows up as an answer that moves when the graph's ids are
// permuted; under the ASan preset (label `sanitize`) one that indexes a
// |G0|-sized buffer with a global id is caught as it happens.
//
// Seeded small labeled graphs (planted communities and Erdos-Renyi) are
// renumbered by a random permutation. The bulk-delete Online, LP, L2P and
// mBCC answers on the permuted graph, mapped back, must equal the answers
// on the original, and every non-empty answer must verify. Single-vertex
// deletion depends on global id order by design, so its answers on the
// renumbered graphs are pinned instead (SingleVertexDeletionIsPinned).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bcc/bc_index.h"
#include "bcc/find_g0.h"
#include "bcc/local_search.h"
#include "bcc/mbcc.h"
#include "bcc/online_search.h"
#include "bcc/verify.h"
#include "graph/generators.h"

namespace bccs {
namespace {

// `g` with vertex v renamed perm[v].
LabeledGraph Permute(const LabeledGraph& g, const std::vector<VertexId>& perm) {
  std::vector<Edge> edges;
  for (const Edge& e : g.AllEdges()) edges.push_back({perm[e.u], perm[e.v]});
  std::vector<Label> labels(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) labels[perm[v]] = g.LabelOf(v);
  return LabeledGraph::FromEdges(g.NumVertices(), std::move(edges), std::move(labels));
}

// A community of the permuted graph in original ids.
Community MapBack(const Community& c, const std::vector<VertexId>& inverse) {
  Community out;
  for (VertexId v : c.vertices) out.vertices.push_back(inverse[v]);
  std::sort(out.vertices.begin(), out.vertices.end());
  return out;
}

// One labeled graph, its renumbered copy, and their BC-indexes.
struct Instance {
  std::string name;
  LabeledGraph g, pg;
  std::vector<VertexId> perm, inverse;
  std::vector<std::vector<VertexId>> queries;  // query tuples of original ids

  Instance(std::string n, LabeledGraph graph, std::uint64_t seed)
      : name(std::move(n)), g(std::move(graph)) {
    perm.resize(g.NumVertices());
    std::iota(perm.begin(), perm.end(), 0);
    std::mt19937_64 rng(seed);
    std::shuffle(perm.begin(), perm.end(), rng);
    inverse.resize(perm.size());
    for (VertexId v = 0; v < perm.size(); ++v) inverse[perm[v]] = v;
    pg = Permute(g, perm);
  }

  std::vector<VertexId> Permuted(const std::vector<VertexId>& q) const {
    std::vector<VertexId> out;
    for (VertexId v : q) out.push_back(perm[v]);
    return out;
  }
};

// Query tuples of m vertices with pairwise-distinct labels: each planted
// community's first member of its first m groups.
std::vector<std::vector<VertexId>> PlantedQueries(const PlantedGraph& pg, std::size_t m) {
  std::vector<std::vector<VertexId>> out;
  for (const PlantedCommunity& c : pg.communities) {
    if (c.groups.size() < m) continue;
    std::vector<VertexId> q;
    for (std::size_t i = 0; i < m; ++i) q.push_back(c.groups[i][c.groups[i].size() / 2]);
    out.push_back(q);
  }
  return out;
}

// Random query tuples: m vertices of distinct labels, drawn by `rng`.
std::vector<std::vector<VertexId>> RandomQueries(const LabeledGraph& g, std::size_t m,
                                                 std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<VertexId>> out;
  for (std::size_t attempt = 0; out.size() < count && attempt < 100 * count; ++attempt) {
    std::vector<VertexId> q;
    for (std::size_t i = 0; i < m; ++i) {
      const auto members = g.VerticesWithLabel(static_cast<Label>(i));
      if (members.empty()) break;
      q.push_back(members[rng() % members.size()]);
    }
    if (q.size() == m) out.push_back(q);
  }
  return out;
}

std::vector<Instance> Instances(std::size_t m) {
  std::vector<Instance> out;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    PlantedConfig cfg;
    cfg.num_communities = 6;
    cfg.groups_per_community = m;
    cfg.num_labels = m;
    cfg.min_group_size = 8;
    cfg.max_group_size = 14;
    cfg.background_vertices = 30;
    cfg.seed = seed + 10 * m;
    PlantedGraph planted = GeneratePlanted(cfg);
    auto queries = PlantedQueries(planted, m);
    out.emplace_back("planted/" + std::to_string(seed), std::move(planted.graph), seed + 100);
    out.back().queries = std::move(queries);

    LabeledGraph er = GenerateErdosRenyi(90, 7.0, m, seed + 200);
    auto er_queries = RandomQueries(er, m, 6, seed + 300);
    out.emplace_back("erdos-renyi/" + std::to_string(seed), std::move(er), seed + 400);
    out.back().queries = std::move(er_queries);
  }
  return out;
}

TEST(DifferentialTest, TwoLabelSearchesIgnoreVertexIds) {
  std::size_t non_empty = 0, compared = 0;
  for (const Instance& in : Instances(2)) {
    const BcIndex index(in.g), pindex(in.pg);
    QueryWorkspace ws, pws;
    for (const auto& tuple : in.queries) {
      const BccQuery q{tuple[0], tuple[1]};
      const std::vector<VertexId> pt = in.Permuted(tuple);
      const BccQuery pq{pt[0], pt[1]};
      const BccParams p;  // auto k, b = 1
      const std::string note = in.name + " q=(" + std::to_string(q.ql) + "," +
                               std::to_string(q.qr) + ")";
      const G0Result g0 = FindG0(in.g, q, p, nullptr);

      // Online and LP (bulk deletion), each with and without the index and
      // on a warm workspace.
      for (const SearchOptions& opts : {OnlineBccOptions(), LpBccOptions()}) {
        const Community c = BccSearch(in.g, q, p, opts, nullptr, &ws, &index);
        const Community pc = BccSearch(in.pg, pq, p, opts, nullptr, &pws);
        EXPECT_EQ(MapBack(pc, in.inverse), c) << note << " leader=" << opts.use_leader_pair;
        EXPECT_EQ(BccSearch(in.g, q, p, opts, nullptr), c) << note;
        ++compared;
        if (c.Empty()) continue;
        ++non_empty;
        EXPECT_EQ(VerifyBcc(in.g, c, q, {g0.k1, g0.k2, p.b}), BccViolation::kNone) << note;
      }

      // L2P: the local candidate resolves auto k inside itself, so its
      // answer verifies at k = 1.
      const Community l2p = L2pBcc(in.g, index, q, p, L2pOptions{}, nullptr, &ws);
      const Community pl2p = L2pBcc(in.pg, pindex, pq, p, L2pOptions{}, nullptr, &pws);
      EXPECT_EQ(MapBack(pl2p, in.inverse), l2p) << note << " l2p";
      ++compared;
      if (!l2p.Empty()) {
        ++non_empty;
        EXPECT_EQ(VerifyBcc(in.g, l2p, q, {1, 1, p.b}), BccViolation::kNone) << note << " l2p";
      }
    }
  }
  EXPECT_GT(compared, 50u);
  EXPECT_GT(non_empty, compared / 3) << "too few non-empty answers to mean anything";
}

TEST(DifferentialTest, MbccIgnoresVertexIds) {
  std::size_t non_empty = 0, compared = 0;
  for (const Instance& in : Instances(3)) {
    const BcIndex index(in.g);
    QueryWorkspace ws, pws;
    for (const auto& tuple : in.queries) {
      const MbccQuery q{tuple};
      const MbccQuery pq{in.Permuted(tuple)};
      const MbccParams p;  // auto k, b = 1
      const std::string note = in.name + " q=" + std::to_string(tuple[0]);
      for (const SearchOptions& opts : {OnlineBccOptions(), LpBccOptions()}) {
        const Community c = MbccSearch(in.g, q, p, opts, nullptr, nullptr, &ws, &index);
        const Community pc = MbccSearch(in.pg, pq, p, opts, nullptr, nullptr, &pws);
        EXPECT_EQ(MapBack(pc, in.inverse), c) << note << " leader=" << opts.use_leader_pair;
        ++compared;
        if (c.Empty()) continue;
        ++non_empty;
        EXPECT_EQ(VerifyMbcc(in.g, c, tuple, ResolveMbccCores(in.g, q, p), p.b),
                  MbccViolation::kNone)
            << note;
      }
    }
  }
  EXPECT_GT(compared, 40u);
  EXPECT_GT(non_empty, compared / 4) << "too few non-empty answers to mean anything";
}

// Folds one answer and its peel statistics into a running FNV-1a hash.
struct Fingerprint {
  std::size_t non_empty = 0, rounds = 0, removed = 0;
  std::uint64_t hash = 14695981039346656037ull;

  void Add(const Community& c, const SearchStats& st) {
    auto mix = [this](std::uint64_t x) {
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (x >> (8 * byte)) & 0xff;
        hash *= 1099511628211ull;
      }
    };
    mix(c.vertices.size());
    for (VertexId v : c.vertices) mix(v);
    mix(st.rounds);
    mix(st.vertices_removed);
    non_empty += c.Empty() ? 0 : 1;
    rounds += st.rounds;
    removed += st.vertices_removed;
  }
};

struct PinnedRun {
  const char* name;
  std::size_t non_empty, rounds, removed;
  std::uint64_t hash;
};

// Single-vertex deletion (SearchOptions::bulk_delete = false) peels the
// vertex of smallest global id from each farthest level (DESIGN.md contract
// 11), so its answers move under renumbering and cannot be compared as
// above. They are pinned instead, on the renumbered planted graphs, whose
// label groups' ids interleave: a peel that compared candidate-local ids
// (all of group 0 before group 1) would pick other vertices. The values were
// recorded by the whole-graph peel that preceded the candidate graph; each
// row folds every query of one instance and search path.
TEST(DifferentialTest, SingleVertexDeletionIsPinned) {
  const PinnedRun kPinned[] = {
      {"m2/planted/1/online", 6, 98, 402, 0x7bc83177318eb0cbull},
      {"m2/planted/1/lp", 6, 98, 402, 0x7bc83177318eb0cbull},
      {"m2/planted/2/online", 6, 45, 163, 0x621400627aeabbd1ull},
      {"m2/planted/2/lp", 6, 45, 163, 0x621400627aeabbd1ull},
      {"m2/planted/3/online", 5, 43, 207, 0xfc1cb6f63df89adbull},
      {"m2/planted/3/lp", 5, 43, 207, 0xfc1cb6f63df89adbull},
      {"m2/planted/4/online", 6, 39, 242, 0x09ea101124610d4eull},
      {"m2/planted/4/lp", 6, 39, 242, 0x09ea101124610d4eull},
      {"m3/planted/1/online", 6, 88, 375, 0x59c581449eac903aull},
      {"m3/planted/1/lp", 6, 88, 375, 0x59c581449eac903aull},
      {"m3/planted/2/online", 6, 56, 261, 0xa21c8cab5c4b7214ull},
      {"m3/planted/2/lp", 6, 56, 261, 0xa21c8cab5c4b7214ull},
      {"m3/planted/3/online", 6, 121, 454, 0x85943c22136d09a2ull},
      {"m3/planted/3/lp", 6, 121, 454, 0x85943c22136d09a2ull},
      {"m3/planted/4/online", 6, 79, 385, 0xd52253675012c1f1ull},
      {"m3/planted/4/lp", 6, 79, 385, 0xd52253675012c1f1ull},
  };
  std::vector<PinnedRun> got;
  std::vector<std::string> names;
  for (std::size_t m : {2u, 3u}) {
    for (const Instance& in : Instances(m)) {
      if (in.name.rfind("planted/", 0) != 0) continue;
      QueryWorkspace ws;
      for (SearchOptions opts : {OnlineBccOptions(), LpBccOptions()}) {
        opts.bulk_delete = false;
        Fingerprint fp;
        for (const auto& tuple : in.queries) {
          const std::vector<VertexId> pt = in.Permuted(tuple);
          SearchStats st;
          const Community c = m == 2 ? BccSearch(in.pg, {pt[0], pt[1]}, BccParams{}, opts, &st, &ws)
                                     : MbccSearch(in.pg, MbccQuery{pt}, MbccParams{}, opts, &st,
                                                  nullptr, &ws);
          fp.Add(c, st);
        }
        names.push_back("m" + std::to_string(m) + "/" + in.name +
                        (opts.use_leader_pair ? "/lp" : "/online"));
        got.push_back({nullptr, fp.non_empty, fp.rounds, fp.removed, fp.hash});
      }
    }
  }
  ASSERT_EQ(got.size(), std::size(kPinned));
  for (std::size_t i = 0; i < got.size(); ++i) {
    const PinnedRun& want = kPinned[i];
    EXPECT_EQ(names[i], want.name);
    EXPECT_EQ(got[i].non_empty, want.non_empty) << names[i];
    EXPECT_EQ(got[i].rounds, want.rounds) << names[i];
    EXPECT_EQ(got[i].removed, want.removed) << names[i];
    EXPECT_EQ(got[i].hash, want.hash) << names[i];
  }
  std::size_t non_empty = 0;
  for (const PinnedRun& r : got) non_empty += r.non_empty;
  EXPECT_GT(non_empty, 20u) << "too few non-empty answers to mean anything";
}

}  // namespace
}  // namespace bccs
