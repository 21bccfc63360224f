#include "butterfly/butterfly_counting.h"

#include <algorithm>

#include "bcc/workspace.h"

namespace bccs {
namespace {

inline std::uint64_t Choose2(std::uint64_t x) { return x * (x - 1) / 2; }

// Accumulates one side's chi sum and argmax. Any non-empty side yields a
// valid argmax, even when every chi on it is zero.
void SideMaxAndSum(std::span<const VertexId> side, const std::vector<char>& side_mask,
                   const std::vector<std::uint64_t>& chi, std::uint64_t* sum,
                   std::uint64_t* side_max, VertexId* side_argmax) {
  for (VertexId v : side) {
    if (!side_mask[v]) continue;
    *sum += chi[v];
    if (*side_argmax == kInvalidVertex || chi[v] > *side_max) {
      *side_max = chi[v];
      *side_argmax = v;
    }
  }
}

// Accumulates chi for every alive vertex of `side`, whose cross neighbors
// live in `other_mask`.
void CountSide(const LabeledGraph& g, std::span<const VertexId> side,
               const std::vector<char>& side_mask, const std::vector<char>& other_mask,
               std::vector<std::uint64_t>* chi, std::vector<std::uint32_t>* paths,
               std::vector<VertexId>* touched) {
  for (VertexId v : side) {
    if (!side_mask[v]) continue;
    touched->clear();
    for (VertexId u : g.Neighbors(v)) {
      if (!other_mask[u]) continue;
      for (VertexId w : g.Neighbors(u)) {
        if (w == v || !side_mask[w]) continue;
        if ((*paths)[w] == 0) touched->push_back(w);
        ++(*paths)[w];
      }
    }
    std::uint64_t c = 0;
    for (VertexId w : *touched) {
      c += Choose2((*paths)[w]);
      (*paths)[w] = 0;
    }
    (*chi)[v] = c;
  }
}

}  // namespace

ButterflyCounts CountButterflies(const LabeledGraph& g, std::span<const VertexId> left,
                                 std::span<const VertexId> right,
                                 const std::vector<char>& in_left,
                                 const std::vector<char>& in_right) {
  ButterflyCounts out;
  CountButterfliesInto(g, left, right, in_left, in_right, nullptr, &out);
  return out;
}

void CountButterfliesInto(const LabeledGraph& g, std::span<const VertexId> left,
                          std::span<const VertexId> right, const std::vector<char>& in_left,
                          const std::vector<char>& in_right, QueryWorkspace* ws,
                          ButterflyCounts* out) {
  const std::size_t n = g.NumVertices();
  out->total = 0;
  out->max_left = out->max_right = 0;
  out->argmax_left = out->argmax_right = kInvalidVertex;
  if (ws == nullptr || out->chi.size() != n) {
    out->chi.assign(n, 0);
  } else {
    // Pooled buffer: all-zero outside the members; the members may carry
    // values from the previous (re)count over the same candidate.
    for (VertexId v : left) out->chi[v] = 0;
    for (VertexId v : right) out->chi[v] = 0;
  }

  std::vector<std::uint32_t> local_paths;
  std::vector<VertexId> local_touched;
  std::vector<std::uint32_t>& paths = ws != nullptr ? ws->WedgePaths(n) : local_paths;
  std::vector<VertexId>& touched = ws != nullptr ? ws->WedgeTouched() : local_touched;
  if (ws == nullptr) local_paths.assign(n, 0);

  CountSide(g, left, in_left, in_right, &out->chi, &paths, &touched);
  CountSide(g, right, in_right, in_left, &out->chi, &paths, &touched);

  std::uint64_t sum = 0;
  SideMaxAndSum(left, in_left, out->chi, &sum, &out->max_left, &out->argmax_left);
  SideMaxAndSum(right, in_right, out->chi, &sum, &out->max_right, &out->argmax_right);
  out->total = sum / 4;  // every butterfly contains exactly four vertices
}

std::uint64_t CountTotalButterfliesVertexPriority(const LabeledGraph& g,
                                                  std::span<const VertexId> left,
                                                  std::span<const VertexId> right,
                                                  const std::vector<char>& in_left,
                                                  const std::vector<char>& in_right) {
  // priority(v) > priority(u) iff (deg, id) lexicographically greater.
  auto higher = [&](VertexId a, VertexId b) {
    std::size_t da = g.Degree(a), db = g.Degree(b);
    return da != db ? da > db : a > b;
  };
  auto alive = [&](VertexId v) { return in_left[v] || in_right[v]; };
  auto cross = [&](VertexId a, VertexId b) {
    return (in_left[a] && in_right[b]) || (in_right[a] && in_left[b]);
  };

  std::vector<std::uint32_t> paths(g.NumVertices(), 0);
  std::vector<VertexId> touched;
  std::uint64_t total = 0;

  auto process_side = [&](std::span<const VertexId> side) {
    for (VertexId u : side) {
      if (!alive(u)) continue;
      touched.clear();
      for (VertexId v : g.Neighbors(u)) {
        if (!alive(v) || !cross(u, v) || !higher(u, v)) continue;
        for (VertexId w : g.Neighbors(v)) {
          if (w == u || !alive(w) || !cross(v, w) || !higher(u, w)) continue;
          if (paths[w] == 0) touched.push_back(w);
          ++paths[w];
        }
      }
      for (VertexId w : touched) {
        total += static_cast<std::uint64_t>(paths[w]) * (paths[w] - 1) / 2;
        paths[w] = 0;
      }
    }
  };
  process_side(left);
  process_side(right);
  return total;
}

ButterflyCounts CountButterfliesBruteForce(const LabeledGraph& g,
                                           std::span<const VertexId> left,
                                           std::span<const VertexId> right,
                                           const std::vector<char>& in_left,
                                           const std::vector<char>& in_right) {
  ButterflyCounts out;
  out.chi.assign(g.NumVertices(), 0);

  auto cross_neighbors = [&](VertexId v, const std::vector<char>& other) {
    std::vector<VertexId> nbrs;
    for (VertexId u : g.Neighbors(v)) {
      if (other[u]) nbrs.push_back(u);
    }
    return nbrs;
  };

  auto process = [&](std::span<const VertexId> side, const std::vector<char>& side_mask,
                     const std::vector<char>& other_mask) {
    std::vector<VertexId> members;
    for (VertexId v : side) {
      if (side_mask[v]) members.push_back(v);
    }
    // Materialize every member's alive cross-neighborhood once up front;
    // rebuilding them inside the pair loop made the reference oracle
    // quadratic in allocations.
    std::vector<std::vector<VertexId>> nbrs(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      nbrs[i] = cross_neighbors(members[i], other_mask);
    }
    std::vector<VertexId> common;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const auto& ni = nbrs[i];
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        const auto& nj = nbrs[j];
        common.clear();
        std::set_intersection(ni.begin(), ni.end(), nj.begin(), nj.end(),
                              std::back_inserter(common));
        std::uint64_t pairs = Choose2(common.size());
        out.chi[members[i]] += pairs;
        out.chi[members[j]] += pairs;
        // Each common-neighbor pair {x, y} forms one butterfly
        // {members[i], members[j]} x {x, y}; credit the other side too.
        if (common.size() >= 2) {
          for (VertexId x : common) out.chi[x] += common.size() - 1;
          out.total += pairs;
        }
      }
    }
  };
  process(left, in_left, in_right);
  (void)right;  // butterflies are fully determined by left-side pairs
  std::uint64_t ignored_sum = 0;
  SideMaxAndSum(left, in_left, out.chi, &ignored_sum, &out.max_left, &out.argmax_left);
  SideMaxAndSum(right, in_right, out.chi, &ignored_sum, &out.max_right, &out.argmax_right);
  return out;
}

}  // namespace bccs
