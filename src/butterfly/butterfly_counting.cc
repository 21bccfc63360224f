#include "butterfly/butterfly_counting.h"

#include <algorithm>

#include "bcc/candidate_graph.h"
#include "bcc/workspace.h"

namespace bccs {
namespace {

inline std::uint64_t Choose2(std::uint64_t x) { return x * (x - 1) / 2; }

// Accumulates one side's chi sum and argmax for the brute-force oracle. Any
// non-empty side yields a valid argmax, even when every chi on it is zero.
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

// Writes chi for every vertex of group `side` of `cg`, whose cross
// neighbours are its sub-range into group `other`; `is_alive(v)` filters
// dead members (chi 0). Two alive vertices v < w of the side with P common
// alive cross neighbours share C(P, 2) butterflies, so each pair is counted
// once, from v over the part of every sorted sub-range past v, and credited
// to both ends.
template <typename IsAlive>
void CountSide(const CandidateGraph& cg, std::size_t side, std::size_t other,
               IsAlive is_alive, std::vector<std::uint64_t>* chi,
               std::vector<std::uint32_t>* paths, std::vector<VertexId>* touched) {
  const VertexId begin = cg.GroupBegin(side), end = cg.GroupEnd(side);
  std::fill(chi->begin() + begin, chi->begin() + end, 0);
  for (VertexId v = begin; v < end; ++v) {
    if (!is_alive(v)) continue;
    touched->clear();
    for (VertexId u : cg.NeighborsIn(v, other)) {
      if (!is_alive(u)) continue;
      const std::span<const VertexId> same = cg.NeighborsIn(u, side);
      const auto past_v = std::upper_bound(same.begin(), same.end(), v);
      for (auto it = past_v; it != same.end(); ++it) {
        const VertexId w = *it;
        if (!is_alive(w)) continue;
        if ((*paths)[w] == 0) touched->push_back(w);
        ++(*paths)[w];
      }
    }
    for (VertexId w : *touched) {
      const std::uint64_t c = Choose2((*paths)[w]);
      (*chi)[v] += c;
      (*chi)[w] += c;
      (*paths)[w] = 0;
    }
  }
}

template <typename IsAlive>
void CountPair(const CandidateGraph& cg, std::size_t a, std::size_t b, IsAlive is_alive,
               QueryWorkspace& ws, ButterflyCounts* out) {
  const std::size_t n = cg.NumVertices();
  if (out->chi.size() < n) out->chi.resize(n, 0);
  std::vector<std::uint32_t>& paths = ws.WedgePaths(n);
  std::vector<VertexId>& touched = ws.WedgeTouched();

  CountSide(cg, a, b, is_alive, &out->chi, &paths, &touched);
  CountSide(cg, b, a, is_alive, &out->chi, &paths, &touched);

  // Side maxima in local order: the first strict maximum.
  std::uint64_t sum = 0;
  auto side_max = [&](std::size_t grp, std::uint64_t* max, VertexId* argmax) {
    *max = 0;
    *argmax = kInvalidVertex;
    for (VertexId v = cg.GroupBegin(grp); v < cg.GroupEnd(grp); ++v) {
      if (!is_alive(v)) continue;
      sum += out->chi[v];
      if (*argmax == kInvalidVertex || out->chi[v] > *max) {
        *max = out->chi[v];
        *argmax = v;
      }
    }
  };
  side_max(a, &out->max_left, &out->argmax_left);
  side_max(b, &out->max_right, &out->argmax_right);
  out->total = sum / 4;  // every butterfly contains exactly four vertices
}

}  // namespace

void CountButterfliesInto(const CandidateGraph& cg, std::size_t a, std::size_t b,
                          const std::vector<char>* alive, QueryWorkspace& ws,
                          ButterflyCounts* out) {
  if (alive == nullptr) {
    CountPair(cg, a, b, [](VertexId) { return true; }, ws, out);
  } else {
    CountPair(cg, a, b, [alive](VertexId v) { return (*alive)[v] != 0; }, ws, out);
  }
}

ButterflyCounts CountButterflies(const LabeledGraph& g, std::span<const VertexId> left,
                                 std::span<const VertexId> right,
                                 const std::vector<char>& in_left,
                                 const std::vector<char>& in_right) {
  std::vector<VertexId> members[2];
  for (VertexId v : left) {
    if (in_left[v]) members[0].push_back(v);
  }
  for (VertexId v : right) {
    if (in_right[v]) members[1].push_back(v);
  }
  const std::span<const VertexId> groups[2] = {members[0], members[1]};
  QueryWorkspace ws;
  CandidateGraph cg;
  cg.Build(g, groups, ws);
  ButterflyCounts local;
  CountButterfliesInto(cg, 0, 1, nullptr, ws, &local);

  // Local order within a group is ascending global id, so the kernel's
  // argmax is the first strict maximum in ascending global id too.
  auto to_global = [&cg](VertexId v) { return v == kInvalidVertex ? v : cg.ToGlobal(v); };
  ButterflyCounts out;
  out.chi.assign(g.NumVertices(), 0);
  for (VertexId v = 0; v < cg.NumVertices(); ++v) out.chi[cg.ToGlobal(v)] = local.chi[v];
  out.total = local.total;
  out.max_left = local.max_left;
  out.max_right = local.max_right;
  out.argmax_left = to_global(local.argmax_left);
  out.argmax_right = to_global(local.argmax_right);
  return out;
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
