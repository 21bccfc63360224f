#ifndef BCCS_BUTTERFLY_BUTTERFLY_COUNTING_H_
#define BCCS_BUTTERFLY_BUTTERFLY_COUNTING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/labeled_graph.h"

namespace bccs {

class QueryWorkspace;

/// Per-vertex butterfly degrees over a bipartite cross graph.
struct ButterflyCounts {
  /// chi[v] = number of butterflies (2x2 bicliques) containing v. Indexed by
  /// graph vertex id; entries for non-members are 0.
  std::vector<std::uint64_t> chi;
  /// Total number of distinct butterflies.
  std::uint64_t total = 0;
  std::uint64_t max_left = 0;
  std::uint64_t max_right = 0;
  VertexId argmax_left = kInvalidVertex;
  VertexId argmax_right = kInvalidVertex;
};

/// Paper's Algorithm 3: per-vertex butterfly degrees over the bipartite graph
/// B whose vertices are the alive members of `left` / `right` (masks
/// `in_left` / `in_right`) and whose edges are the cross edges of `g` between
/// them.
///
/// For each vertex v, counts 2-hop paths to every same-side vertex w via a
/// flat counter with a touched-list (the "hash map P" of the paper) and adds
/// C(P[w], 2). O(sum of d_B(u)^2) time.
ButterflyCounts CountButterflies(const LabeledGraph& g, std::span<const VertexId> left,
                                 std::span<const VertexId> right,
                                 const std::vector<char>& in_left,
                                 const std::vector<char>& in_right);

/// Workspace variant writing into `out`. With a workspace, the wedge counter
/// comes from the workspace and `out->chi` is only rewritten for the
/// left/right members (the buffer must be sized to the graph and all-zero
/// outside those members — the contract of workspace-pooled chi buffers), so
/// a recount costs O(|members| + wedges) with no O(n) pass. With ws ==
/// nullptr it behaves exactly like CountButterflies into `out`.
///
/// Both variants guarantee a valid argmax for every non-empty side: if all
/// butterfly degrees on a side are zero, the side's first alive vertex is
/// reported with max = 0.
void CountButterfliesInto(const LabeledGraph& g, std::span<const VertexId> left,
                          std::span<const VertexId> right, const std::vector<char>& in_left,
                          const std::vector<char>& in_right, QueryWorkspace* ws,
                          ButterflyCounts* out);

/// Total butterfly count using the vertex-priority wedge ordering of Wang et
/// al. (PVLDB 2019): each wedge is charged to its highest-priority endpoint
/// (priority = degree, ties by id), so every butterfly is counted exactly
/// once. Used by the ablation benchmark; returns the same total as
/// CountButterflies().total.
std::uint64_t CountTotalButterfliesVertexPriority(const LabeledGraph& g,
                                                  std::span<const VertexId> left,
                                                  std::span<const VertexId> right,
                                                  const std::vector<char>& in_left,
                                                  const std::vector<char>& in_right);

/// O(|L|^2 d) reference oracle that enumerates same-side pairs and their
/// common neighborhoods. For tests only.
ButterflyCounts CountButterfliesBruteForce(const LabeledGraph& g,
                                           std::span<const VertexId> left,
                                           std::span<const VertexId> right,
                                           const std::vector<char>& in_left,
                                           const std::vector<char>& in_right);

}  // namespace bccs

#endif  // BCCS_BUTTERFLY_BUTTERFLY_COUNTING_H_
