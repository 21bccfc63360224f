#ifndef BCCS_BCC_CANDIDATE_GRAPH_H_
#define BCCS_BCC_CANDIDATE_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/page_array.h"
#include "graph/labeled_graph.h"

namespace bccs {

class QueryWorkspace;

/// The subgraph of a labeled graph induced by m disjoint vertex groups (the
/// candidate G0 of a BCC or mBCC search), renumbered to local ids
/// 0..NumVertices()-1 in (group, global id) order: group i occupies the
/// contiguous local range [GroupBegin(i), GroupEnd(i)), ascending by global
/// id. Every adjacency list is sorted by local id, so it splits into m
/// sorted sub-ranges, one per group, whose offsets are stored at build time:
/// NeighborsIn(v, i) lists exactly v's neighbours in group i.
///
/// Because local order within a group is global order, every scan of one
/// group in local order visits vertices in ascending global id, which is
/// what keeps the peel's id-order choices identical to a run on the whole
/// graph (DESIGN.md contract 11). Choices that compare vertices of
/// different groups must compare ToGlobal().
///
/// graph() is a view-mode LabeledGraph over the same arrays (label = group
/// index, VerticesWithLabel(i) = group i's local ids), so kernels written
/// against LabeledGraph run on the candidate unchanged. The view borrows
/// this object's buffers: it is valid until the next Build or destruction.
///
/// Instances are pooled in QueryWorkspace (AcquireCandidateGraph); their
/// buffers keep their capacity, so a rebuild of a same-sized candidate
/// allocates nothing. The adjacency, the bulk of a candidate's memory, stays
/// resident only as far as the current candidate needs it (see Build).
class CandidateGraph {
 public:
  CandidateGraph() = default;
  // graph() points into the buffers; a copy would alias the source's.
  CandidateGraph(const CandidateGraph&) = delete;
  CandidateGraph& operator=(const CandidateGraph&) = delete;

  /// Builds G[groups[0] ∪ ... ∪ groups[m-1]] over `g`. Groups must be
  /// disjoint; each is sorted here if it is not already. One pass over the
  /// members' adjacency. `ws` lends the n-sized global-to-local scratch map
  /// and is charged a bulk init whenever a buffer must grow.
  ///
  /// The adjacency lives in an anonymous mapping that reserves address space
  /// for all of g's adjacency, so it is made once. Pages that an earlier,
  /// larger candidate wrote past this one's entries are returned to the OS:
  /// a worker's resident adjacency follows its current candidate, not the
  /// largest it has built.
  void Build(const LabeledGraph& g, std::span<const std::span<const VertexId>> groups,
             QueryWorkspace& ws);

  std::size_t NumVertices() const { return to_global_.size(); }
  std::size_t NumGroups() const { return group_offsets_.size() - 1; }

  VertexId GroupBegin(std::size_t i) const {
    return static_cast<VertexId>(group_offsets_[i]);
  }
  VertexId GroupEnd(std::size_t i) const {
    return static_cast<VertexId>(group_offsets_[i + 1]);
  }
  std::uint32_t GroupOf(VertexId v) const { return group_of_[v]; }

  /// All local ids, ascending (0..NumVertices()-1).
  std::span<const VertexId> Vertices() const { return {identity_.data(), NumVertices()}; }
  /// Local ids of group i, ascending (= ascending global id).
  std::span<const VertexId> GroupMembers(std::size_t i) const {
    return {identity_.data() + GroupBegin(i), identity_.data() + GroupEnd(i)};
  }

  /// All in-candidate neighbours of local `v`, ascending.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
  }
  /// The neighbours of local `v` in group `i`: one stored sub-range of
  /// Neighbors(v).
  std::span<const VertexId> NeighborsIn(VertexId v, std::size_t i) const {
    const VertexId* base = adjacency_.data() + offsets_[v];
    const std::size_t at = static_cast<std::size_t>(v) * (NumGroups() - 1) + i;
    const VertexId* lo = i == 0 ? base : base + splits_[at - 1];
    const VertexId* hi = i + 1 == NumGroups() ? adjacency_.data() + offsets_[v + 1]
                                              : base + splits_[at];
    return {lo, hi};
  }

  VertexId ToGlobal(VertexId v) const { return to_global_[v]; }
  /// Local id of a global vertex, or kInvalidVertex when it is not a member.
  /// O(m log |group|).
  VertexId ToLocal(VertexId global) const;

  /// The candidate as a LabeledGraph over local ids (see class comment).
  const LabeledGraph& graph() const { return view_; }

 private:
#if BCCS_DCHECK_IS_ON
  void AuditAgainst(const LabeledGraph& g) const;
#endif

  std::vector<VertexId> to_global_;              // local -> global
  std::vector<std::uint32_t> group_of_;          // local -> group (the view's labels)
  std::vector<std::uint64_t> group_offsets_{0};  // m+1 group starts (view's label CSR)
  std::vector<VertexId> identity_;               // 0, 1, 2, ...; grows only
  std::vector<std::uint64_t> offsets_;           // N+1 adjacency starts
  // N*(m-1) group sub-range ends, relative to the vertex's adjacency start
  // (group i of v ends at splits_[v*(m-1)+i]; the last group at v's end).
  std::vector<std::uint32_t> splits_;
  // Local ids, ascending per vertex. Pages are resident only once written,
  // and Trim hands back the ones past a shorter candidate.
  PageArray<VertexId> adjacency_;
  std::vector<VertexId> scratch_;  // one vertex's neighbours during Build
  LabeledGraph view_;
};

}  // namespace bccs

#endif  // BCCS_BCC_CANDIDATE_GRAPH_H_
