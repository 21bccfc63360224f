#include "butterfly/approx_counting.h"

#include <random>

namespace bccs {
namespace {

// |N_B(u) n N_B(v)| where N_B filters by the opposite-side mask.
std::uint64_t CommonCrossNeighbors(const LabeledGraph& g, VertexId u, VertexId v,
                                   const std::vector<char>& other_mask) {
  std::uint64_t common = 0;
  ForEachCommonNeighbor(g, u, v, [&](VertexId w) { common += other_mask[w]; });
  return common;
}

inline double Choose2(double x) { return x * (x - 1) / 2.0; }

}  // namespace

double EstimateTotalButterflies(const LabeledGraph& g, std::span<const VertexId> left,
                                std::span<const VertexId> right,
                                const std::vector<char>& in_left,
                                const std::vector<char>& in_right,
                                const ApproxButterflyOptions& opts,
                                std::vector<VertexId>* alive_scratch) {
  (void)right;
  std::vector<VertexId> local_alive;
  std::vector<VertexId>& alive = alive_scratch != nullptr ? *alive_scratch : local_alive;
  alive.clear();
  for (VertexId v : left) {
    if (in_left[v]) alive.push_back(v);
  }
  if (alive.size() < 2) return 0.0;

  const double num_pairs = Choose2(static_cast<double>(alive.size()));
  std::mt19937_64 rng(opts.seed);
  std::uniform_int_distribution<std::size_t> pick(0, alive.size() - 1);

  double sum = 0;
  for (std::size_t s = 0; s < opts.samples; ++s) {
    std::size_t i = pick(rng);
    std::size_t j = pick(rng);
    if (j == i) j = (i + 1) % alive.size();
    auto common =
        static_cast<double>(CommonCrossNeighbors(g, alive[i], alive[j], in_right));
    sum += Choose2(common);
  }
  return num_pairs * sum / static_cast<double>(opts.samples);
}

}  // namespace bccs
