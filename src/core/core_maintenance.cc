#include "core/core_maintenance.h"

#include <algorithm>
#include <limits>

#include "core/core_decomposition.h"

namespace bccs {

KCoreMaintainer::KCoreMaintainer(const LabeledGraph& g, std::span<const VertexId> members,
                                 std::uint32_t k)
    : g_(g), k_(k), alive_(g.NumVertices(), 0), deg_(g.NumVertices(), 0) {
  std::vector<VertexId> core = KCoreOfSubset(g, members, k);
  for (VertexId v : core) alive_[v] = 1;
  num_alive_ = core.size();
  for (VertexId v : core) {
    std::uint32_t d = 0;
    for (VertexId w : g.Neighbors(v)) d += alive_[w];
    deg_[v] = d;
  }
}

std::vector<VertexId> KCoreMaintainer::Remove(VertexId v) {
  std::vector<VertexId> removed;
  if (v >= alive_.size() || !alive_[v]) return removed;
  std::vector<VertexId> queue = {v};
  alive_[v] = 0;
  while (!queue.empty()) {
    VertexId x = queue.back();
    queue.pop_back();
    removed.push_back(x);
    --num_alive_;
    for (VertexId w : g_.Neighbors(x)) {
      if (!alive_[w]) continue;
      if (--deg_[w] < k_) {
        alive_[w] = 0;
        queue.push_back(w);
      }
    }
  }
  return removed;
}

std::vector<VertexId> KCoreMaintainer::AliveVertices() const {
  std::vector<VertexId> result;
  result.reserve(num_alive_);
  for (VertexId v = 0; v < alive_.size(); ++v) {
    if (alive_[v]) result.push_back(v);
  }
  return result;
}

namespace {

/// Minimum current coreness of an edge's endpoints — the level a single
/// update at that edge can change (the classic traversal-repair insight:
/// one edge update moves only coreness-== -level vertices, by one).
std::uint32_t EdgeLevel(const Edge& e, std::span<const std::uint32_t> cur) {
  return std::min(cur[e.u], cur[e.v]);
}

bool AnyEdgeAtLevel(std::span<const Edge> edges, std::span<const std::uint32_t> cur,
                    std::uint32_t k) {
  for (const Edge& e : edges) {
    if (EdgeLevel(e, cur) == k) return true;
  }
  return false;
}

void CollectAtLeast(std::span<const VertexId> members, std::span<const std::uint32_t> cur,
                    std::uint32_t k, std::vector<VertexId>* out) {
  out->clear();
  for (VertexId v : members) {
    if (cur[v] >= k) out->push_back(v);
  }
}

}  // namespace

LabelCorenessRepair RepairLabelCoreness(const LabeledGraph& updated,
                                        std::span<const VertexId> members,
                                        std::span<const Edge> inserted,
                                        std::span<const Edge> deleted,
                                        std::size_t incremental_cap,
                                        std::span<std::uint32_t> coreness) {
  LabelCorenessRepair out;
  if (inserted.empty() && deleted.empty()) return out;
  const std::span<std::uint32_t> cur = coreness;

  // The level-pass proofs below assume updates of one direction only; mixed
  // batches (and batches past the cap) take the scoped rebuild.
  const bool mixed = !inserted.empty() && !deleted.empty();
  if (mixed || inserted.size() + deleted.size() > incremental_cap) {
    out.rebuilt = true;
    const std::vector<std::uint32_t> fresh = SubsetCoreness(updated, members);
    for (VertexId v : members) cur[v] = fresh[v];
    return out;
  }

  // One scratch for every level pass: each pass then costs O(|region|)
  // instead of a fresh zeroed graph-sized set of arrays.
  CoreScratch scratch;
  std::vector<VertexId> region, core;
  if (!deleted.empty()) {
    // Delete-only: coreness never rises. Descending passes maintain the
    // invariant that after pass k, {v : cur[v] >= k} is exactly the new
    // k-core of the group's induced subgraph: each pass peels the old
    // k-core (within the updated adjacency) back to the new one, and every
    // peeled vertex drops to k-1. A level is skipped when no deleted edge
    // sits at it and the level above dropped nobody — no cascade can reach
    // it.
    std::uint32_t k_hi = 0;
    for (const Edge& e : deleted) k_hi = std::max(k_hi, EdgeLevel(e, cur));
    bool dropped_above = false;
    for (std::uint32_t k = k_hi; k >= 1; --k) {
      if (!dropped_above && !AnyEdgeAtLevel(deleted, cur, k)) continue;
      CollectAtLeast(members, cur, k, &region);
      KCoreOfSubsetScoped(updated, region, k, &scratch, &core);
      ++out.passes;
      dropped_above = false;
      for (VertexId v : region) {
        if (!std::binary_search(core.begin(), core.end(), v)) {
          cur[v] = k - 1;
          dropped_above = true;
        }
      }
    }
  } else {
    // Insert-only: coreness never falls. Ascending passes: pass k promotes
    // the {cur == k} members of the new (k+1)-core (computed over
    // {cur >= k}, which contains it) to k+1. Passes continue until a pass
    // promotes nothing and no inserted edge sits at or above the current
    // level — promotions chain upward only through edges whose (current)
    // level keeps pace.
    std::uint32_t k = std::numeric_limits<std::uint32_t>::max();
    for (const Edge& e : inserted) k = std::min(k, EdgeLevel(e, cur));
    bool promoted_below = false;
    while (true) {
      bool promoted = false;
      if (promoted_below || AnyEdgeAtLevel(inserted, cur, k)) {
        CollectAtLeast(members, cur, k, &region);
        KCoreOfSubsetScoped(updated, region, k + 1, &scratch, &core);
        ++out.passes;
        for (VertexId v : core) {
          if (cur[v] == k) {
            cur[v] = k + 1;
            promoted = true;
          }
        }
      }
      std::uint32_t edge_max = 0;
      for (const Edge& e : inserted) edge_max = std::max(edge_max, EdgeLevel(e, cur));
      if (!promoted && k >= edge_max) break;
      promoted_below = promoted;
      ++k;
    }
  }
  return out;
}

}  // namespace bccs
