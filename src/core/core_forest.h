#ifndef BCCS_CORE_CORE_FOREST_H_
#define BCCS_CORE_CORE_FOREST_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/labeled_graph.h"

namespace bccs {

/// The k-core hierarchy of one label group, as a forest with one node per
/// (level, connected component) — the layout of the CL-tree (Fang et al.,
/// PVLDB 2016) and of Sariyüce and Pinar's core hierarchy (PVLDB 2016).
///
/// A node at level L stands for a connected component C of the group's
/// L-core that holds at least one vertex of coreness exactly L; its children
/// are the components of higher cores inside C. A component of the k-core
/// holding no vertex of coreness k is a single component of the (k+1)-core,
/// so it shares that node. Hence the component containing q of the k-core
/// is the subtree of q's highest ancestor at level >= k, and, with nodes
/// numbered in preorder, that subtree is one contiguous range of node ids.
///
/// Built in O(Σ deg(member) · α) by one union-find pass over the group's
/// vertices in descending coreness. Vertices of coreness 0 belong to no
/// node. Per-vertex state is indexed by position in the label group
/// (LabeledGraph::VerticesWithLabel), which edge updates never change, so a
/// forest stays valid for any graph with the same label groups, the same
/// same-label edges and the same coreness.
class CoreForest {
 public:
  /// The forest of the group `members` (one label's VerticesWithLabel, sorted
  /// ascending) over `g`'s same-label edges, given each vertex's coreness
  /// within its label group (`coreness`, indexed by vertex id).
  CoreForest(const LabeledGraph& g, std::span<const VertexId> members,
             std::span<const std::uint32_t> coreness);

  /// Writes into `out` (cleared first) the component containing `q` of the
  /// group's k-core, sorted ascending; empty when q is not in the k-core.
  /// `members` must be the group the forest was built over and `k` >= 1.
  /// One walk up q's ancestors, then one scan of the members.
  void Component(std::span<const VertexId> members, VertexId q, std::uint32_t k,
                 std::vector<VertexId>* out) const;

  std::size_t NumNodes() const { return nodes_.size(); }

  /// Heap bytes held by the forest.
  std::size_t MemoryBytes() const {
    return nodes_.capacity() * sizeof(Node) + member_node_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  // Indexed by preorder number; the subtree of node i is nodes [i, end).
  struct Node {
    std::uint32_t level = 0;
    std::uint32_t parent = kNone;
    std::uint32_t end = 0;
    std::uint32_t size = 0;   // members in the subtree
    std::uint32_t first = 0;  // lowest member position in the subtree
    std::uint32_t last = 0;   // highest member position in the subtree
  };

  std::vector<Node> nodes_;
  // Per member position: the node at the member's own coreness level that
  // holds it, or kNone for coreness 0.
  std::vector<std::uint32_t> member_node_;
};

}  // namespace bccs

#endif  // BCCS_CORE_CORE_FOREST_H_
