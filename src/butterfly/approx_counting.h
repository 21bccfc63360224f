#ifndef BCCS_BUTTERFLY_APPROX_COUNTING_H_
#define BCCS_BUTTERFLY_APPROX_COUNTING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/labeled_graph.h"

namespace bccs {

/// Options for the sampling-based butterfly estimators (the approximation
/// family of Sanei-Mehri et al., KDD 2018, cited by the paper as exact /
/// approximate butterfly counting).
struct ApproxButterflyOptions {
  /// Number of sampled same-side vertex pairs.
  std::size_t samples = 10000;
  std::uint64_t seed = 1;
};

/// Mixes a query-level base seed with a peel round (and, for the multi-label
/// model, a label-pair index) into an independent per-estimate RNG seed.
/// Pure function of its inputs, so a query's whole sampling schedule is
/// reproducible regardless of which worker thread runs it.
inline std::uint64_t DeriveEstimateSeed(std::uint64_t seed, std::uint64_t round,
                                        std::uint64_t pair = 0) {
  seed ^= 0x9e3779b97f4a7c15ull * (round + 1);
  seed ^= 0xc2b2ae3d27d4eb4full * (pair + 1);
  return seed;
}

/// Unbiased estimate of the total butterfly count of the bipartite graph B
/// described by the masks, via uniform left-pair sampling:
///   total = C(|L|, 2) * E[ C(|N(u) n N(v)|, 2) ]  over uniform pairs u, v.
/// Exact (and cheap) when the side has fewer than ~2 alive vertices.
///
/// A non-null `alive_scratch` supplies the buffer for the alive-vertex list
/// (cleared and refilled each call), so per-round estimates in the peeling
/// engines allocate nothing; with nullptr a local vector is used.
double EstimateTotalButterflies(const LabeledGraph& g, std::span<const VertexId> left,
                                std::span<const VertexId> right,
                                const std::vector<char>& in_left,
                                const std::vector<char>& in_right,
                                const ApproxButterflyOptions& opts = {},
                                std::vector<VertexId>* alive_scratch = nullptr);

}  // namespace bccs

#endif  // BCCS_BUTTERFLY_APPROX_COUNTING_H_
