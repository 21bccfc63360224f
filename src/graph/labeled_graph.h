#ifndef BCCS_GRAPH_LABELED_GRAPH_H_
#define BCCS_GRAPH_LABELED_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/page_array.h"

namespace bccs {

/// Vertex identifier. Vertices of a graph with n vertices are 0..n-1.
using VertexId = std::uint32_t;

/// Vertex label identifier (e.g. a department, a country, a research field).
using Label = std::uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// An undirected edge. Canonical form has u < v, but construction accepts
/// either orientation.
struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// An immutable array that either owns its storage (shared, so copies of the
/// holder share one buffer) or views external memory — e.g. a section of an
/// mmap'ed snapshot, kept alive by the holder's keepalive handle. This is
/// what lets a snapshot load be zero-copy: the big CSR arrays stay in the
/// mapped file and are paged in on demand. Owned storage is a vector or a
/// PageArray; the latter gives its pages back to the OS when the last copy
/// drops, which is what epoch arrays need (common/page_array.h).
template <typename T>
class ArrayRef {
 public:
  ArrayRef() = default;
  /*implicit*/ ArrayRef(std::vector<T> v) {
    auto owned = std::make_shared<const std::vector<T>>(std::move(v));
    data_ = owned->data();
    size_ = owned->size();
    owned_ = std::move(owned);
  }

  /// Owns the first `size` entries of `pages`, which must be written.
  ArrayRef(PageArray<T> pages, std::size_t size) {
    auto owned = std::make_shared<const PageArray<T>>(std::move(pages));
    data_ = owned->data();
    BCCS_CHECK_LE(size, owned->capacity());
    size_ = size;
    owned_ = std::move(owned);
  }

  /// Non-owning view; the caller must keep `data` alive (snapshot loaders
  /// pair views with a keepalive on the mapping).
  static ArrayRef View(const T* data, std::size_t size) {
    ArrayRef a;
    a.data_ = data;
    a.size_ = size;
    return a;
  }

  const T& operator[](std::size_t i) const { return data_[i]; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  std::span<const T> span() const { return {data_, size_}; }

 private:
  std::shared_ptr<const void> owned_;  // null in view mode
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Immutable undirected vertex-labeled graph G = (V, E, l) in CSR form.
///
/// This is the substrate every algorithm in the library works on. Adjacency
/// lists are sorted, which the butterfly and truss kernels rely on for
/// linear-merge intersections. Self-loops and duplicate edges are dropped at
/// construction. Labels are dense integers 0..NumLabels()-1.
///
/// All arrays (including the per-label member lists, stored in CSR form
/// themselves) live in ArrayRef storage, so a graph is either built in
/// memory or reconstructed as zero-copy views over a mapped snapshot (see
/// graph/snapshot.h).
class LabeledGraph {
 public:
  LabeledGraph() = default;

  /// Builds a graph from an edge list. `labels` must have one entry per
  /// vertex; label values are used as-is (callers should keep them dense).
  /// Self-loops are removed and parallel edges collapsed.
  static LabeledGraph FromEdges(std::size_t num_vertices, std::vector<Edge> edges,
                                std::vector<Label> labels);

  std::size_t NumVertices() const { return labels_.size(); }
  std::size_t NumEdges() const { return adjacency_.size() / 2; }
  std::size_t NumLabels() const {
    return label_offsets_.empty() ? 0 : label_offsets_.size() - 1;
  }

  /// Neighbors of `v`, sorted ascending.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
  }

  std::size_t Degree(VertexId v) const {
    return static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]);
  }

  Label LabelOf(VertexId v) const { return labels_[v]; }

  /// True if the (undirected) edge {u, v} exists. O(log deg(u)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// True if the endpoints carry different labels (a heterogeneous edge).
  bool IsCrossEdge(VertexId u, VertexId v) const { return labels_[u] != labels_[v]; }

  /// All vertices carrying label `l`, sorted ascending. Empty for unused labels.
  std::span<const VertexId> VerticesWithLabel(Label l) const {
    return {label_members_.data() + label_offsets_[l],
            label_members_.data() + label_offsets_[l + 1]};
  }

  std::size_t MaxDegree() const { return max_degree_; }

  /// All edges in canonical (u < v) form, sorted lexicographically.
  std::vector<Edge> AllEdges() const;

 private:
  friend class SnapshotAccess;    // builds view-mode graphs from mapped files
  friend class GraphDeltaAccess;  // rebuilds adjacency, shares label arrays
  friend class ValidateAccess;    // common/validate.h audits the raw arrays
  friend class CandidateGraph;    // bcc/candidate_graph.h views its local CSR

  ArrayRef<std::uint64_t> offsets_;        // size NumVertices()+1
  ArrayRef<VertexId> adjacency_;           // both directions, sorted per vertex
  ArrayRef<Label> labels_;                 // size NumVertices()
  ArrayRef<std::uint64_t> label_offsets_;  // size NumLabels()+1
  ArrayRef<VertexId> label_members_;       // label groups, ascending per label
  std::size_t max_degree_ = 0;
  std::shared_ptr<const void> keepalive_;  // mapping backing view-mode arrays
};

/// Invokes `fn(w)` for every common neighbor w of u and v (linear merge over
/// the sorted adjacency lists).
template <typename Fn>
void ForEachCommonNeighbor(const LabeledGraph& g, VertexId u, VertexId v, Fn fn) {
  auto nu = g.Neighbors(u);
  auto nv = g.Neighbors(v);
  std::size_t i = 0, j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] < nv[j]) {
      ++i;
    } else if (nu[i] > nv[j]) {
      ++j;
    } else {
      fn(nu[i]);
      ++i;
      ++j;
    }
  }
}

}  // namespace bccs

#endif  // BCCS_GRAPH_LABELED_GRAPH_H_
