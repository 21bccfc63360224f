#ifndef BCCS_BCC_QUERY_DISTANCE_H_
#define BCCS_BCC_QUERY_DISTANCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bcc/workspace.h"  // kInfDistance, DistanceMap
#include "graph/labeled_graph.h"

namespace bccs {

/// Full BFS from `source` over the subgraph induced by `alive`. `dist` is
/// resized to the graph and filled with hop counts (kInfDistance where
/// unreachable or dead).
void BfsDistances(const LabeledGraph& g, const std::vector<char>& alive, VertexId source,
                  std::vector<std::uint32_t>* dist);

/// Workspace variant: starts a fresh epoch on `dm` (O(1)) and fills it with
/// the same distances plus each reached vertex's support count (alive
/// neighbours one level closer), which the repair below maintains.
void BfsDistances(const LabeledGraph& g, const std::vector<char>& alive, VertexId source,
                  DistanceMap* dm);

/// Paper's Algorithm 5: incrementally repairs `dist` (distances to one query
/// vertex) after the vertices in `removed` were deleted. `alive` must already
/// reflect the deletion; `dist` must hold the pre-deletion values (including
/// for the removed vertices themselves, which are used to derive d_min).
///
/// Only vertices with dist > d_min can change, and they can only move
/// farther; they are re-reached by a multi-source BFS from the unchanged
/// d_min level set. Unreached vertices become kInfDistance. This is the
/// paper-literal reference the DistanceMap repair is tested against.
void UpdateDistancesAfterDeletion(const LabeledGraph& g, const std::vector<char>& alive,
                                  std::span<const VertexId> removed,
                                  std::vector<std::uint32_t>* dist);

/// Support-counted decremental BFS (Even–Shiloach; Ramalingam–Reps): same
/// distances as Algorithm 5, different work bound. Each removed vertex
/// debits its children's support; a vertex left with none is orphaned and
/// debits its own children. Only the orphans are re-reached, in level order
/// from their non-orphaned neighbours, and their support is recounted. Cost
/// O(Σdeg(removed) + Σdeg(orphans) + orphans·log orphans), independent of
/// how much of the graph lies beyond d_min.
///
/// `changed` (cleared first) receives exactly the alive vertices whose
/// distance changed (grew, possibly to kInfDistance); the removed vertices
/// themselves are not reported. Returns the number of adjacency entries
/// read, the repair's work measure.
std::uint64_t UpdateDistancesAfterDeletion(const LabeledGraph& g, const std::vector<char>& alive,
                                           std::span<const VertexId> removed, DistanceMap* dm,
                                           std::vector<VertexId>* changed);

/// Debug audit (DESIGN.md contract 9): `dm` must equal a fresh BFS from
/// `source` over `alive`, and every reachable non-source vertex's support
/// must equal its number of alive neighbours one level closer. Fails a
/// BCCS_DCHECK otherwise; a no-op when DCHECKs are compiled out.
void AuditDistanceMap(const LabeledGraph& g, const std::vector<char>& alive, VertexId source,
                      const DistanceMap& dm);

}  // namespace bccs

#endif  // BCCS_BCC_QUERY_DISTANCE_H_
