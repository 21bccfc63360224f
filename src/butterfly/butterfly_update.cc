#include "butterfly/butterfly_update.h"

#include "common/check.h"

#include <algorithm>

namespace bccs {

namespace {

/// The small set of updates already applied while sequencing a pair repair.
/// Batches are capped (incremental_cap), so linear membership scans beat any
/// indexed structure.
struct AppliedPatches {
  std::vector<Edge> inserts;
  std::vector<Edge> deletes;

  static bool Contains(const std::vector<Edge>& edges, VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    return std::find(edges.begin(), edges.end(), Edge{u, v}) != edges.end();
  }
};

/// Invokes fn(w) for every neighbor of `x` carrying `other` under the
/// patched adjacency: base neighbors minus applied deletions, plus applied
/// insertions incident to x.
template <typename Fn>
void ForEachPatchedCrossNeighbor(const LabeledGraph& base, const AppliedPatches& patches,
                                 VertexId x, Label other, Fn fn) {
  for (VertexId w : base.Neighbors(x)) {
    if (base.LabelOf(w) != other) continue;
    if (AppliedPatches::Contains(patches.deletes, x, w)) continue;
    fn(w);
  }
  for (const Edge& e : patches.inserts) {
    if (e.u == x && base.LabelOf(e.v) == other) fn(e.v);
    if (e.v == x && base.LabelOf(e.u) == other) fn(e.u);
  }
}

/// Patches `counts->chi` for every vertex of a butterfly gained (`insert`)
/// or lost by the update edge {u, v}, enumerating exactly the butterflies
/// that contain the edge. The edge's own presence never enters the
/// enumeration, so the same walk serves both directions.
void ApplyOneCrossEdge(const LabeledGraph& base, const AppliedPatches& patches, VertexId u,
                       VertexId v, bool insert, std::vector<char>* mark,
                       std::vector<VertexId>* marked, ButterflyCounts* counts) {
  const Label side_u = base.LabelOf(u);
  const Label side_v = base.LabelOf(v);
  auto& chi = counts->chi;
  auto bump = [&chi, insert](VertexId w, std::uint64_t by) {
    if (insert) {
      chi[w] += by;
    } else {
      BCCS_DCHECK_GE(chi[w], by) << "pair-butterfly repair drove chi negative";
      chi[w] -= by;
    }
  };

  marked->clear();
  ForEachPatchedCrossNeighbor(base, patches, u, side_v, [&](VertexId w) {
    if (w == v) return;
    if (!(*mark)[w]) {
      (*mark)[w] = 1;
      marked->push_back(w);
    }
  });

  std::uint64_t edge_butterflies = 0;
  ForEachPatchedCrossNeighbor(base, patches, v, side_u, [&](VertexId u2) {
    if (u2 == u) return;
    std::uint64_t common = 0;
    ForEachPatchedCrossNeighbor(base, patches, u2, side_v, [&](VertexId w) {
      if (w != v && (*mark)[w]) {
        ++common;
        bump(w, 1);
      }
    });
    if (common > 0) {
      bump(u2, common);
      edge_butterflies += common;
    }
  });
  bump(u, edge_butterflies);
  bump(v, edge_butterflies);

  for (VertexId w : *marked) (*mark)[w] = 0;
}

/// Recomputes total/max/argmax from the patched chi with CountButterflies'
/// exact scan order (ascending group members; first strict maximum wins, so
/// a non-empty side always reports a valid argmax).
void RefreshAggregates(const LabeledGraph& g, Label a, Label b, ButterflyCounts* counts) {
  std::uint64_t sum = 0;
  auto side = [&](Label l, std::uint64_t* side_max, VertexId* side_argmax) {
    *side_max = 0;
    *side_argmax = kInvalidVertex;
    for (VertexId v : g.VerticesWithLabel(l)) {
      sum += counts->chi[v];
      if (*side_argmax == kInvalidVertex || counts->chi[v] > *side_max) {
        *side_max = counts->chi[v];
        *side_argmax = v;
      }
    }
  };
  side(a, &counts->max_left, &counts->argmax_left);
  side(b, &counts->max_right, &counts->argmax_right);
  counts->total = sum / 4;  // every butterfly contains exactly four vertices
}

}  // namespace

PairButterflyRepair RepairPairButterflies(const LabeledGraph& base,
                                          const LabeledGraph& updated, Label a, Label b,
                                          std::span<const Edge> inserted,
                                          std::span<const Edge> deleted,
                                          std::size_t incremental_cap,
                                          ButterflyCounts* counts) {
  PairButterflyRepair out;
  if (inserted.empty() && deleted.empty()) return out;
  const std::size_t n = updated.NumVertices();

  if (inserted.size() + deleted.size() > incremental_cap || counts->chi.size() != n) {
    out.recounted = true;
    *counts = CountPairButterflies(updated, a, b);
    return out;
  }

  std::vector<char> mark(n, 0);
  std::vector<VertexId> marked;
  AppliedPatches patches;
  // Deletions first, then insertions: each enumeration then sees the graph
  // with exactly the preceding updates applied, which keeps a multi-edge
  // batch equivalent to one-at-a-time application.
  for (const Edge& e : deleted) {
    ApplyOneCrossEdge(base, patches, e.u, e.v, /*insert=*/false, &mark, &marked, counts);
    patches.deletes.push_back(e);
    ++out.edges_applied;
  }
  for (const Edge& e : inserted) {
    ApplyOneCrossEdge(base, patches, e.u, e.v, /*insert=*/true, &mark, &marked, counts);
    patches.inserts.push_back(e);
    ++out.edges_applied;
  }
  RefreshAggregates(updated, a, b, counts);
  return out;
}

std::uint32_t LeaderButterflyUpdater::MarkingOf(VertexId leader, std::uint32_t other,
                                                const std::vector<char>& alive) {
  for (const Marking& m : markings_) {
    if (m.leader == leader && m.other == other) return m.stamp;
  }
  const std::uint32_t stamp = ++*counter_;
  for (VertexId u : cg_->NeighborsIn(leader, other)) {
    if (alive[u]) (*stamp_)[u] = stamp;
  }
  std::erase_if(markings_, [other](const Marking& m) { return m.other == other; });
  markings_.push_back(Marking{leader, other, stamp});
  return stamp;
}

std::uint64_t LeaderButterflyUpdater::LossOnDeletion(const std::vector<char>& alive,
                                                     std::uint32_t a, std::uint32_t b,
                                                     VertexId leader, VertexId removed) {
  if (leader == removed || !alive[leader]) return 0;
  const std::uint32_t side = cg_->GroupOf(leader);
  BCCS_DCHECK(side == a || side == b) << "leader outside the pair's groups";
  const std::uint32_t other = side == a ? b : a;
  const std::uint32_t removed_group = cg_->GroupOf(removed);
  if (removed_group != side && removed_group != other) return 0;  // not part of B

  // Stamp of the leader's cross neighbors N_B(leader), filtered on `alive`
  // at every read below.
  const std::uint32_t stamp = MarkingOf(leader, other, alive);

  if (removed_group == side) {
    // Same side: butterflies containing both pick 2 of the alpha common
    // cross neighbors.
    std::uint64_t alpha = 0;
    for (VertexId u : cg_->NeighborsIn(removed, other)) {
      if (alive[u] && (*stamp_)[u] == stamp) ++alpha;
    }
    return alpha * (alpha - 1) / 2;
  }

  if ((*stamp_)[removed] != stamp) return 0;  // no edge (leader, removed) in B

  // Different sides: for every other leader-side vertex u adjacent to
  // `removed`, each common cross neighbor of u and leader besides `removed`
  // completes one butterfly {leader, u} x {removed, x}.
  std::uint64_t beta = 0;
  for (VertexId u : cg_->NeighborsIn(removed, side)) {
    if (u == leader || !alive[u]) continue;
    std::uint64_t common = 0;
    for (VertexId x : cg_->NeighborsIn(u, other)) {
      if (alive[x] && (*stamp_)[x] == stamp) ++common;
    }
    beta += common - 1;  // `removed` itself is always in the intersection
  }
  return beta;
}

}  // namespace bccs
