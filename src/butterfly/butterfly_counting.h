#ifndef BCCS_BUTTERFLY_BUTTERFLY_COUNTING_H_
#define BCCS_BUTTERFLY_BUTTERFLY_COUNTING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/labeled_graph.h"

namespace bccs {

class CandidateGraph;
class QueryWorkspace;

/// Per-vertex butterfly degrees over a bipartite cross graph.
struct ButterflyCounts {
  /// chi[v] = number of butterflies (2x2 bicliques) containing v. Indexed by
  /// the id space of the graph counted (global ids from CountButterflies,
  /// candidate-local ids from the CandidateGraph kernel); entries for
  /// non-members are 0.
  std::vector<std::uint64_t> chi;
  /// Total number of distinct butterflies.
  std::uint64_t total = 0;
  std::uint64_t max_left = 0;
  std::uint64_t max_right = 0;
  VertexId argmax_left = kInvalidVertex;
  VertexId argmax_right = kInvalidVertex;
};

/// Paper's Algorithm 3 on a candidate graph: per-vertex butterfly degrees
/// over the bipartite graph B between the alive vertices of group `a`
/// (reported as the left side) and group `b` (the right side) of `cg`, whose
/// edges are the cross edges between them. `alive` (local ids) null means
/// every member is alive.
///
/// For each vertex v, counts 2-hop paths to every same-side vertex w via a
/// flat counter with a touched-list (the "hash map P" of the paper) and adds
/// C(P[w], 2). Reads only the stored cross sub-ranges NeighborsIn(v, b) and
/// NeighborsIn(u, a), never an edge outside B. O(sum of d_B(u)^2) time.
///
/// `out->chi` is rewritten on the two groups' local ranges only (dead
/// members get 0); it is grown to cg.NumVertices() when smaller, so a
/// workspace-pooled buffer that is all-zero elsewhere stays that way. The
/// wedge counter comes from `ws`. The argmax of a side is its first strict
/// maximum in local order, i.e. in ascending global id, and is valid for
/// every side with an alive vertex even when all its chi are 0.
void CountButterfliesInto(const CandidateGraph& cg, std::size_t a, std::size_t b,
                          const std::vector<char>* alive, QueryWorkspace& ws,
                          ButterflyCounts* out);

/// Algorithm 3 over graph ids: the alive members of `left` / `right` (masks
/// `in_left` / `in_right`, disjoint) are built into a two-group
/// CandidateGraph and counted by the kernel above, both on a workspace local
/// to the call; chi is returned indexed by graph vertex id (n entries). The
/// argmax of a side is its first strict maximum in ascending vertex id.
ButterflyCounts CountButterflies(const LabeledGraph& g, std::span<const VertexId> left,
                                 std::span<const VertexId> right,
                                 const std::vector<char>& in_left,
                                 const std::vector<char>& in_right);

/// CountButterflies over two whole label groups: `a` is the left side, `b`
/// the right. What the BC-index stores per label pair, and what its repair
/// and audit recount.
ButterflyCounts CountPairButterflies(const LabeledGraph& g, Label a, Label b);

/// O(|L|^2 d) reference oracle that enumerates same-side pairs and their
/// common neighborhoods. For tests only.
ButterflyCounts CountButterfliesBruteForce(const LabeledGraph& g,
                                           std::span<const VertexId> left,
                                           std::span<const VertexId> right,
                                           const std::vector<char>& in_left,
                                           const std::vector<char>& in_right);

}  // namespace bccs

#endif  // BCCS_BUTTERFLY_BUTTERFLY_COUNTING_H_
