#include "core/core_decomposition.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/check.h"

namespace bccs {

std::vector<std::uint32_t> SubsetCoreness(const LabeledGraph& g,
                                          std::span<const VertexId> members) {
  const std::size_t n = g.NumVertices();
  std::vector<std::uint32_t> core(n, 0);
  if (members.empty()) return core;

  std::vector<char> in_set(n, 0);
  for (VertexId v : members) in_set[v] = 1;

  // Degrees within the induced subgraph.
  std::vector<std::uint32_t> deg(n, 0);
  std::uint32_t max_deg = 0;
  for (VertexId v : members) {
    std::uint32_t d = 0;
    for (VertexId w : g.Neighbors(v)) d += in_set[w];
    deg[v] = d;
    max_deg = std::max(max_deg, d);
  }

  // Bucket sort members by degree.
  std::vector<std::uint32_t> bin(max_deg + 2, 0);
  for (VertexId v : members) ++bin[deg[v]];
  std::uint32_t start = 0;
  for (std::uint32_t d = 0; d <= max_deg; ++d) {
    std::uint32_t count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<VertexId> vert(members.size());
  std::vector<std::uint32_t> pos(n, 0);
  {
    std::vector<std::uint32_t> cursor(bin.begin(), bin.end());
    for (VertexId v : members) {
      pos[v] = cursor[deg[v]];
      vert[pos[v]] = v;
      ++cursor[deg[v]];
    }
  }

  // Peel in nondecreasing degree order.
  for (std::size_t i = 0; i < vert.size(); ++i) {
    VertexId v = vert[i];
    core[v] = deg[v];
    for (VertexId w : g.Neighbors(v)) {
      if (!in_set[w] || deg[w] <= deg[v]) continue;
      // Move w to the front of its bucket, then shift it one bucket down.
      std::uint32_t dw = deg[w];
      std::uint32_t pw = pos[w];
      std::uint32_t pfront = bin[dw];
      VertexId front = vert[pfront];
      if (w != front) {
        std::swap(vert[pw], vert[pfront]);
        pos[w] = pfront;
        pos[front] = pw;
      }
      ++bin[dw];
      --deg[w];
    }
  }
  return core;
}

std::vector<std::uint32_t> CoreDecomposition(const LabeledGraph& g) {
  std::vector<VertexId> all(g.NumVertices());
  std::iota(all.begin(), all.end(), 0);
  return SubsetCoreness(g, all);
}

std::vector<std::uint32_t> LabelCoreness(const LabeledGraph& g) {
  std::vector<std::uint32_t> core(g.NumVertices(), 0);
  for (Label l = 0; l < g.NumLabels(); ++l) {
    auto members = g.VerticesWithLabel(l);
    if (members.empty()) continue;
    std::vector<std::uint32_t> group_core = SubsetCoreness(g, members);
    for (VertexId v : members) core[v] = group_core[v];
  }
  return core;
}

std::vector<VertexId> KCoreOfSubset(const LabeledGraph& g, std::span<const VertexId> members,
                                    std::uint32_t k) {
  const std::size_t n = g.NumVertices();
  std::vector<char> in_set(n, 0);
  for (VertexId v : members) in_set[v] = 1;
  std::vector<std::uint32_t> deg(n, 0);
  std::vector<VertexId> queue;
  for (VertexId v : members) {
    std::uint32_t d = 0;
    for (VertexId w : g.Neighbors(v)) d += in_set[w];
    deg[v] = d;
    if (d < k) queue.push_back(v);
  }
  for (VertexId v : queue) in_set[v] = 0;
  while (!queue.empty()) {
    VertexId v = queue.back();
    queue.pop_back();
    for (VertexId w : g.Neighbors(v)) {
      if (!in_set[w]) continue;
      if (--deg[w] < k) {
        in_set[w] = 0;
        queue.push_back(w);
      }
    }
  }
  std::vector<VertexId> result;
  for (VertexId v : members) {
    if (in_set[v]) result.push_back(v);
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

std::uint32_t SubsetCorenessOfScoped(const LabeledGraph& g, std::span<const VertexId> members,
                                     VertexId target, CoreScratch* s) {
  if (members.empty()) return 0;
  s->EnsureSize(g.NumVertices());
  std::vector<char>& in_set = s->mask;
  std::vector<std::uint32_t>& deg = s->num_a;
  std::vector<std::uint32_t>& pos = s->num_b;

  for (VertexId v : members) in_set[v] = 1;
  std::uint32_t result = 0;
  if (target < g.NumVertices() && in_set[target]) {
    std::uint32_t max_deg = 0;
    for (VertexId v : members) {
      std::uint32_t d = 0;
      for (VertexId w : g.Neighbors(v)) d += in_set[w];
      deg[v] = d;
      max_deg = std::max(max_deg, d);
    }

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

    // Peel in nondecreasing degree order; the target's coreness is fixed the
    // moment it is popped, so stop there.
    for (std::size_t i = 0; i < s->order.size(); ++i) {
      VertexId v = s->order[i];
      if (v == target) {
        result = deg[v];
        break;
      }
      for (VertexId w : g.Neighbors(v)) {
        if (!in_set[w] || deg[w] <= deg[v]) continue;
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

std::vector<VertexId> ComponentContaining(const LabeledGraph& g,
                                          std::span<const VertexId> members, VertexId q) {
  const std::size_t n = g.NumVertices();
  std::vector<char> in_set(n, 0);
  for (VertexId v : members) in_set[v] = 1;
  if (q >= n || !in_set[q]) return {};

  std::vector<VertexId> component;
  std::vector<VertexId> frontier = {q};
  in_set[q] = 0;  // reuse the mask as "not yet visited"
  component.push_back(q);
  while (!frontier.empty()) {
    VertexId v = frontier.back();
    frontier.pop_back();
    for (VertexId w : g.Neighbors(v)) {
      if (!in_set[w]) continue;
      in_set[w] = 0;
      component.push_back(w);
      frontier.push_back(w);
    }
  }
  std::sort(component.begin(), component.end());
  return component;
}

}  // namespace bccs
