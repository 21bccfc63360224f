#ifndef BCCS_TESTS_TEST_UTIL_H_
#define BCCS_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bcc/bc_index.h"
#include "bcc/candidate_graph.h"
#include "bcc/workspace.h"
#include "graph/graph_delta.h"
#include "graph/labeled_graph.h"

namespace bccs::testing {

/// The acceptance check for incremental repair and replay: `repaired` must
/// be bit-identical to a freshly built index of `updated` — coreness,
/// per-label maxima, and every cached pair entry (chi, total, max, argmax
/// on both sides).
inline void ExpectIndexMatchesFreshBuild(const BcIndex& repaired, const LabeledGraph& updated,
                                         const char* note) {
  BcIndex fresh(updated);
  for (VertexId v = 0; v < updated.NumVertices(); ++v) {
    ASSERT_EQ(repaired.Coreness(v), fresh.Coreness(v)) << note << " coreness of " << v;
  }
  for (Label l = 0; l < updated.NumLabels(); ++l) {
    EXPECT_EQ(repaired.MaxCoreness(l), fresh.MaxCoreness(l)) << note << " label " << l;
  }
  repaired.ForEachCachedPair([&](Label a, Label b, const ButterflyCounts& counts) {
    const ButterflyCounts& want = fresh.PairButterflies(a, b);
    EXPECT_EQ(counts.total, want.total) << note << " pair " << a << "," << b;
    EXPECT_EQ(counts.max_left, want.max_left) << note << " pair " << a << "," << b;
    EXPECT_EQ(counts.max_right, want.max_right) << note << " pair " << a << "," << b;
    EXPECT_EQ(counts.argmax_left, want.argmax_left) << note << " pair " << a << "," << b;
    EXPECT_EQ(counts.argmax_right, want.argmax_right) << note << " pair " << a << "," << b;
    ASSERT_EQ(counts.chi.size(), want.chi.size()) << note;
    for (VertexId v = 0; v < counts.chi.size(); ++v) {
      ASSERT_EQ(counts.chi[v], want.chi[v])
          << note << " chi of " << v << " in pair " << a << "," << b;
    }
  });
}

/// Complete graph K_n, single label.
inline LabeledGraph MakeClique(std::size_t n, Label label = 0) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) edges.push_back({i, j});
  }
  return LabeledGraph::FromEdges(n, std::move(edges), std::vector<Label>(n, label));
}

/// Path 0-1-...-(n-1), single label.
inline LabeledGraph MakePath(std::size_t n, Label label = 0) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i + 1 < n; ++i) edges.push_back({i, static_cast<VertexId>(i + 1)});
  return LabeledGraph::FromEdges(n, std::move(edges), std::vector<Label>(n, label));
}

/// Cycle on n vertices, single label.
inline LabeledGraph MakeCycle(std::size_t n, Label label = 0) {
  std::vector<Edge> edges;
  for (VertexId i = 0; i < n; ++i) {
    edges.push_back({i, static_cast<VertexId>((i + 1) % n)});
  }
  return LabeledGraph::FromEdges(n, std::move(edges), std::vector<Label>(n, label));
}

/// Random G(n, p) with labels round-robin over `num_labels`.
inline LabeledGraph MakeRandomGraph(std::size_t n, double p, std::size_t num_labels,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(p);
  std::vector<Edge> edges;
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) {
      if (coin(rng)) edges.push_back({i, j});
    }
  }
  std::vector<Label> labels(n);
  for (VertexId v = 0; v < n; ++v) labels[v] = static_cast<Label>(v % num_labels);
  return LabeledGraph::FromEdges(n, std::move(edges), std::move(labels));
}

/// Random update batch over `g`: `deletes` existing edges and `inserts`
/// absent edges, each edge touched at most once.
inline std::vector<EdgeUpdate> RandomDelta(const LabeledGraph& g, std::mt19937_64& rng,
                                           std::size_t inserts, std::size_t deletes) {
  std::vector<EdgeUpdate> out;
  std::vector<Edge> edges = g.AllEdges();
  std::shuffle(edges.begin(), edges.end(), rng);
  for (std::size_t i = 0; i < deletes && i < edges.size(); ++i) {
    out.push_back({EdgeUpdateKind::kDelete, edges[i]});
  }
  const auto n = static_cast<VertexId>(g.NumVertices());
  std::uniform_int_distribution<VertexId> pick(0, n - 1);
  std::set<std::pair<VertexId, VertexId>> used;
  std::size_t guard = 0;
  while (used.size() < inserts && ++guard < 100000) {
    VertexId u = pick(rng), v = pick(rng);
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (g.HasEdge(u, v)) continue;
    if (!used.insert({u, v}).second) continue;
    out.push_back({EdgeUpdateKind::kInsert, {u, v}});
  }
  return out;
}

/// Membership mask over graph vertices.
inline std::vector<char> MaskOf(const LabeledGraph& g, const std::vector<VertexId>& members) {
  std::vector<char> mask(g.NumVertices(), 0);
  for (VertexId v : members) mask[v] = 1;
  return mask;
}

/// G[groups[0] ∪ ...] with candidate-local ids (bcc/candidate_graph.h).
inline std::unique_ptr<CandidateGraph> MakeCandidate(
    const LabeledGraph& g, const std::vector<std::vector<VertexId>>& groups) {
  const std::vector<std::span<const VertexId>> spans(groups.begin(), groups.end());
  auto cg = std::make_unique<CandidateGraph>();
  QueryWorkspace ws;
  cg->Build(g, spans, ws);
  return cg;
}

/// All vertex ids of the graph.
inline std::vector<VertexId> AllVertices(const LabeledGraph& g) {
  std::vector<VertexId> all(g.NumVertices());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

/// Reference coreness: repeatedly removes a minimum-degree vertex.
inline std::vector<std::uint32_t> NaiveCoreness(const LabeledGraph& g,
                                                const std::vector<VertexId>& members) {
  std::vector<char> in_set = MaskOf(g, members);
  std::vector<std::uint32_t> core(g.NumVertices(), 0);
  std::vector<VertexId> remaining = members;
  std::uint32_t k = 0;
  while (!remaining.empty()) {
    auto degree = [&](VertexId v) {
      std::uint32_t d = 0;
      for (VertexId w : g.Neighbors(v)) d += in_set[w];
      return d;
    };
    auto it = std::min_element(remaining.begin(), remaining.end(),
                               [&](VertexId a, VertexId b) { return degree(a) < degree(b); });
    VertexId v = *it;
    k = std::max(k, degree(v));
    core[v] = k;
    in_set[v] = 0;
    remaining.erase(it);
  }
  return core;
}

/// Reference per-vertex butterfly degree by brute-force 2x2 enumeration over
/// explicit vertex lists.
inline std::vector<std::uint64_t> NaiveButterflies(const LabeledGraph& g,
                                                   const std::vector<VertexId>& left,
                                                   const std::vector<VertexId>& right) {
  std::vector<std::uint64_t> chi(g.NumVertices(), 0);
  auto has_cross = [&](VertexId a, VertexId b) { return g.HasEdge(a, b); };
  for (std::size_t i = 0; i < left.size(); ++i) {
    for (std::size_t j = i + 1; j < left.size(); ++j) {
      for (std::size_t x = 0; x < right.size(); ++x) {
        for (std::size_t y = x + 1; y < right.size(); ++y) {
          if (has_cross(left[i], right[x]) && has_cross(left[i], right[y]) &&
              has_cross(left[j], right[x]) && has_cross(left[j], right[y])) {
            ++chi[left[i]];
            ++chi[left[j]];
            ++chi[right[x]];
            ++chi[right[y]];
          }
        }
      }
    }
  }
  return chi;
}

}  // namespace bccs::testing

#endif  // BCCS_TESTS_TEST_UTIL_H_
