#ifndef BCCS_CORE_CORE_MAINTENANCE_H_
#define BCCS_CORE_CORE_MAINTENANCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/labeled_graph.h"

namespace bccs {

/// Outcome of RepairLabelCoreness: which strategy ran and how much work the
/// incremental path performed. Read by BcIndex::ApplyUpdates for its repair
/// stats and by the dynamic-graph tests to assert the intended path ran.
struct LabelCorenessRepair {
  /// True when the fallback scoped rebuild (SubsetCoreness over the label
  /// group) ran instead of the incremental passes.
  bool rebuilt = false;
  /// Incremental peel passes executed (0 when rebuilt or nothing to do).
  std::size_t passes = 0;
};

/// Repairs the coreness values of one label group after a batch of
/// intra-label edge updates, writing the exact post-update coreness (equal
/// to SubsetCoreness over the group on the updated graph) into `coreness`
/// for every member. Entries outside `members` are untouched.
///
/// `updated` is the graph with the whole delta applied; `inserted`/`deleted`
/// are the group's net intra-label updates (each edge at most once, see
/// BuildGraphDelta). The incremental path runs level-by-level peel passes —
/// descending for delete-only batches (each pass peels {coreness >= k} back
/// to the new k-core), ascending for insert-only batches
/// (each pass grows the (k+1)-core) — and
/// skips levels no update can reach. Mixed batches, or batches larger than
/// `incremental_cap`, fall back to the scoped rebuild (see DESIGN.md,
/// serving contract 3).
LabelCorenessRepair RepairLabelCoreness(const LabeledGraph& updated,
                                        std::span<const VertexId> members,
                                        std::span<const Edge> inserted,
                                        std::span<const Edge> deleted,
                                        std::size_t incremental_cap,
                                        std::span<std::uint32_t> coreness);

/// Maintains the k-core of an induced subgraph under vertex deletions.
///
/// On construction the given member set is peeled to its maximal k-core.
/// Each Remove() deletes one vertex and cascades: every surviving vertex
/// whose induced degree drops below k is deleted too. Used by the PSA
/// baseline.
class KCoreMaintainer {
 public:
  KCoreMaintainer(const LabeledGraph& g, std::span<const VertexId> members, std::uint32_t k);

  bool Contains(VertexId v) const { return alive_[v] != 0; }
  const std::vector<char>& alive() const { return alive_; }
  std::size_t NumAlive() const { return num_alive_; }
  std::uint32_t k() const { return k_; }

  /// Degree of `v` within the current (alive) induced subgraph.
  std::uint32_t DegreeOf(VertexId v) const { return deg_[v]; }

  /// Removes `v` and cascades. Returns every vertex removed by this call
  /// (including `v`), in removal order. Empty if `v` was already removed.
  std::vector<VertexId> Remove(VertexId v);

  /// Alive vertices, sorted ascending.
  std::vector<VertexId> AliveVertices() const;

 private:
  const LabeledGraph& g_;
  std::uint32_t k_;
  std::vector<char> alive_;
  std::vector<std::uint32_t> deg_;
  std::size_t num_alive_ = 0;
};

}  // namespace bccs

#endif  // BCCS_CORE_CORE_MAINTENANCE_H_
