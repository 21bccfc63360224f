#ifndef BCCS_BCC_LOCAL_SEARCH_H_
#define BCCS_BCC_LOCAL_SEARCH_H_

#include <cstddef>
#include <vector>

#include "bcc/bc_index.h"
#include "bcc/bcc_types.h"
#include "bcc/mbcc.h"
#include "graph/labeled_graph.h"

namespace bccs {

/// Options of the L2P-BCC local search (paper's Algorithm 8).
struct L2pOptions {
  /// Coreness-shortfall penalty weight of Definition 6 (paper uses 0.5).
  double gamma1 = 0.5;
  /// Butterfly-shortfall penalty weight of Definition 6 (paper uses 0.5).
  double gamma2 = 0.5;
  /// Candidate-size threshold eta for the local expansion.
  std::size_t eta = 1024;
  /// When the local candidate contains no (k1,k2,b)-BCC, eta is doubled and
  /// the expansion retried this many times (the final retry saturates to
  /// every admissible vertex, so L2P finds a BCC whenever one exists).
  std::size_t max_retries = 6;
  /// Peeling options; defaults to the full LP strategy set.
  SearchOptions search = LpBccOptions();
};

/// Butterfly-core weighted path between the queries (Definition 6).
///
/// The exact definition mixes an additive hop count with min-aggregated
/// coreness/butterfly penalties; we run Dijkstra on the standard additive
/// surrogate (per-vertex entry cost
///   1 + gamma1*(dmax - delta(v))/max(1,dmax) + gamma2*(xmax - chi(v))/max(1,xmax),
/// see DESIGN.md deviation 1). Traversal is restricted to the two query
/// labels. Returns the vertex sequence from q_l to q_r, empty if none.
/// `ws` lends the cost and parent maps.
std::vector<VertexId> ButterflyCorePath(const LabeledGraph& g, const BcIndex& index,
                                        const BccQuery& q, double gamma1, double gamma2,
                                        QueryWorkspace& ws);

/// Exact Definition 6 weight of a path (for reporting and tests):
/// dist + gamma1*(dmax - min delta) + gamma2*(xmax - min chi).
double ButterflyCorePathWeight(const LabeledGraph& g, const BcIndex& index,
                               const std::vector<VertexId>& path, double gamma1,
                               double gamma2);

/// Paper's L2P-BCC: index-based local exploration (Algorithm 8) followed by
/// leader-pair bulk-deletion peeling. Does not carry the 2-approximation
/// guarantee but is the fastest variant in practice. The path, every eta
/// retry and its peel share one workspace: `ws`, or a ScopedWorkspace.
Community L2pBcc(const LabeledGraph& g, const BcIndex& index, const BccQuery& q,
                 const BccParams& p, const L2pOptions& opts = {},
                 SearchStats* stats = nullptr, QueryWorkspace* ws = nullptr);

/// L2P extension for the multi-labeled model (Section 7): expands a bounded
/// candidate around the m query vertices (admitting vertices of the query
/// labels whose label-coreness reaches the group's resolved k), then runs
/// the restricted mBCC search with the LP strategies. Doubles the budget on
/// failure, and shares one workspace across the retries, like L2pBcc.
Community L2pMbcc(const LabeledGraph& g, const BcIndex& index, const MbccQuery& q,
                  const MbccParams& p, const L2pOptions& opts = {},
                  SearchStats* stats = nullptr, QueryWorkspace* ws = nullptr);

}  // namespace bccs

#endif  // BCCS_BCC_LOCAL_SEARCH_H_
