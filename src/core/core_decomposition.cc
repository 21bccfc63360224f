#include "core/core_decomposition.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/check.h"

namespace bccs {

std::vector<std::uint32_t> SubsetCoreness(const LabeledGraph& g,
                                          std::span<const VertexId> members) {
  std::vector<std::uint32_t> core(g.NumVertices(), 0);
  CoreScratch scratch;
  PeelCoreness(g, members, kInvalidVertex, &scratch, &core);
  return core;
}

std::vector<std::uint32_t> CoreDecomposition(const LabeledGraph& g) {
  std::vector<VertexId> all(g.NumVertices());
  std::iota(all.begin(), all.end(), 0);
  return SubsetCoreness(g, all);
}

std::vector<std::uint32_t> LabelCoreness(const LabeledGraph& g) {
  std::vector<std::uint32_t> core(g.NumVertices(), 0);
  CoreScratch scratch;
  for (Label l = 0; l < g.NumLabels(); ++l) {
    PeelCoreness(g, g.VerticesWithLabel(l), kInvalidVertex, &scratch, &core);
  }
  return core;
}

std::vector<VertexId> KCoreOfSubset(const LabeledGraph& g, std::span<const VertexId> members,
                                    std::uint32_t k) {
  std::vector<VertexId> out;
  CoreScratch scratch;
  KCoreOfSubsetScoped(g, members, k, &scratch, &out);
  return out;
}

std::vector<VertexId> ComponentContaining(const LabeledGraph& g,
                                          std::span<const VertexId> members, VertexId q) {
  std::vector<VertexId> sorted(members.begin(), members.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<VertexId> out;
  CoreScratch scratch;
  ComponentContainingScoped(g, sorted, q, &scratch, &out);
  return out;
}

std::uint32_t PeelCoreness(const LabeledGraph& g, std::span<const VertexId> members,
                           VertexId target, CoreScratch* s,
                           std::vector<std::uint32_t>* all) {
  if (members.empty()) return 0;
  s->EnsureSize(g.NumVertices());
  std::vector<char>& in_set = s->mask;
  std::vector<std::uint32_t>& deg = s->num_a;
  std::vector<std::uint32_t>& pos = s->num_b;

  for (VertexId v : members) in_set[v] = 1;
  std::uint32_t result = 0;
  if (all != nullptr || (target < g.NumVertices() && in_set[target])) {
    std::uint32_t max_deg = 0;
    for (VertexId v : members) {
      std::uint32_t d = 0;
      for (VertexId w : g.Neighbors(v)) d += in_set[w];
      deg[v] = d;
      max_deg = std::max(max_deg, d);
    }

    // Bucket sort members by degree.
    s->bins.assign(max_deg + 2, 0);
    for (VertexId v : members) ++s->bins[deg[v]];
    std::uint32_t start = 0;
    for (std::uint32_t d = 0; d <= max_deg; ++d) {
      std::uint32_t count = s->bins[d];
      s->bins[d] = start;
      start += count;
    }
    s->order.resize(members.size());
    s->cursor.assign(s->bins.begin(), s->bins.end());
    for (VertexId v : members) {
      pos[v] = s->cursor[deg[v]];
      s->order[pos[v]] = v;
      ++s->cursor[deg[v]];
    }

    // Peel in nondecreasing degree order. A vertex's coreness is fixed the
    // moment it is popped, so without `all` stop at the target.
    for (std::size_t i = 0; i < s->order.size(); ++i) {
      VertexId v = s->order[i];
      if (all != nullptr) (*all)[v] = deg[v];
      if (v == target) {
        result = deg[v];
        if (all == nullptr) break;
      }
      for (VertexId w : g.Neighbors(v)) {
        if (!in_set[w] || deg[w] <= deg[v]) continue;
        // Move w to the front of its bucket, then shift it one bucket down.
        std::uint32_t dw = deg[w];
        std::uint32_t pw = pos[w];
        std::uint32_t pfront = s->bins[dw];
        VertexId front = s->order[pfront];
        if (w != front) {
          std::swap(s->order[pw], s->order[pfront]);
          pos[w] = pfront;
          pos[front] = pw;
        }
        ++s->bins[dw];
        --deg[w];
      }
    }
  }

  for (VertexId v : members) {
    in_set[v] = 0;
    deg[v] = 0;
    pos[v] = 0;
  }
  return result;
}

void KCoreOfSubsetScoped(const LabeledGraph& g, std::span<const VertexId> members,
                         std::uint32_t k, CoreScratch* s, std::vector<VertexId>* out) {
  out->clear();
  s->EnsureSize(g.NumVertices());
  std::vector<char>& in_set = s->mask;
  std::vector<std::uint32_t>& deg = s->num_a;

  for (VertexId v : members) in_set[v] = 1;
  s->order.clear();  // doubles as the deletion queue
  for (VertexId v : members) {
    std::uint32_t d = 0;
    for (VertexId w : g.Neighbors(v)) d += in_set[w];
    deg[v] = d;
    if (d < k) s->order.push_back(v);
  }
  for (VertexId v : s->order) in_set[v] = 0;
  while (!s->order.empty()) {
    VertexId v = s->order.back();
    s->order.pop_back();
    for (VertexId w : g.Neighbors(v)) {
      if (!in_set[w]) continue;
      if (--deg[w] < k) {
        in_set[w] = 0;
        s->order.push_back(w);
      }
    }
  }
  for (VertexId v : members) {
    if (in_set[v]) out->push_back(v);
    in_set[v] = 0;
    deg[v] = 0;
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

void ComponentContainingScoped(const LabeledGraph& g, std::span<const VertexId> members,
                               VertexId q, CoreScratch* s, std::vector<VertexId>* out) {
  out->clear();
  s->EnsureSize(g.NumVertices());
  std::vector<char>& in_set = s->mask;
  for (VertexId v : members) in_set[v] = 1;
  if (q >= g.NumVertices() || !in_set[q]) {
    for (VertexId v : members) in_set[v] = 0;
    return;
  }
  BCCS_DCHECK(std::adjacent_find(members.begin(), members.end(), std::greater_equal<>()) ==
              members.end())
      << "component members not strictly ascending";
  // The DFS clears the mask of every vertex it reaches; scanning `members`
  // in order then yields the component already sorted.
  s->order.clear();  // doubles as the DFS stack
  s->order.push_back(q);
  in_set[q] = 0;
  while (!s->order.empty()) {
    VertexId v = s->order.back();
    s->order.pop_back();
    for (VertexId w : g.Neighbors(v)) {
      if (!in_set[w]) continue;
      in_set[w] = 0;
      s->order.push_back(w);
    }
  }
  for (VertexId v : members) {
    if (!in_set[v]) out->push_back(v);
    in_set[v] = 0;
  }
}

}  // namespace bccs
