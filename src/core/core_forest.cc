#include "core/core_forest.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "graph/union_find.h"

namespace bccs {

CoreForest::CoreForest(const LabeledGraph& g, std::span<const VertexId> members,
                       std::span<const std::uint32_t> coreness) {
  const auto s = static_cast<std::uint32_t>(members.size());
  member_node_.assign(s, kNone);
  if (s == 0) return;
  const Label label = g.LabelOf(members[0]);

  // Member positions, and the members of each level 1..kmax in ascending
  // position (a counting sort; coreness 0 joins no node). `pos` is left
  // uninitialized: only members' entries are written or read, so a small
  // group of a large graph touches few of its pages.
  const std::unique_ptr<std::uint32_t[]> pos(new std::uint32_t[g.NumVertices()]);
  std::uint32_t kmax = 0;
  for (std::uint32_t p = 0; p < s; ++p) {
    pos[members[p]] = p;
    kmax = std::max(kmax, coreness[members[p]]);
  }
  std::vector<std::uint32_t> level_begin(kmax + 2, 0);
  for (VertexId v : members) ++level_begin[coreness[v] + 1];
  for (std::uint32_t c = 1; c <= kmax + 1; ++c) level_begin[c] += level_begin[c - 1];
  std::vector<std::uint32_t> order(s);
  {
    std::vector<std::uint32_t> cursor(level_begin.begin(), level_begin.end() - 1);
    for (std::uint32_t p = 0; p < s; ++p) order[cursor[coreness[members[p]]]++] = p;
  }

  // Levels top-down. After level L the union-find sets are the components
  // of the L-core; `top[r]` is the newest node of the set rooted at r. A
  // set that gains a level-L vertex gets a fresh level-L node, whose
  // children are the nodes of the higher-level sets merged into it.
  struct BuildNode {
    std::uint32_t level;
    std::uint32_t parent;
  };
  std::vector<BuildNode> built;
  UnionFind uf(s);
  std::vector<std::uint32_t> top(s, kNone);
  std::vector<std::uint32_t> fresh_level(s, kNone), fresh_node(s, kNone);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> merged;  // (old node, its old root)
  std::vector<std::uint32_t> fresh_roots;
  for (std::uint32_t level = kmax; level >= 1; --level) {
    const std::span<const std::uint32_t> at_level(order.data() + level_begin[level],
                                                  level_begin[level + 1] - level_begin[level]);
    if (at_level.empty()) continue;
    auto claim = [&](std::uint32_t r) {
      if (top[r] == kNone) return;
      merged.emplace_back(top[r], r);
      top[r] = kNone;
    };
    for (std::uint32_t p : at_level) {
      for (VertexId w : g.Neighbors(members[p])) {
        if (g.LabelOf(w) != label || coreness[w] < level) continue;
        const std::uint32_t a = uf.Find(p), b = uf.Find(pos[w]);
        if (a == b) continue;
        claim(a);
        claim(b);
        uf.Union(a, b);
      }
    }
    for (std::uint32_t p : at_level) {
      const std::uint32_t r = uf.Find(p);
      if (fresh_level[r] != level) {
        fresh_level[r] = level;
        fresh_node[r] = static_cast<std::uint32_t>(built.size());
        built.push_back({level, kNone});
        fresh_roots.push_back(r);
      }
      member_node_[p] = fresh_node[r];
    }
    // Every merged set met a level-L vertex, so its root now has a fresh node.
    for (const auto& [node, old_root] : merged) {
      const std::uint32_t r = uf.Find(old_root);
      BCCS_DCHECK_EQ(fresh_level[r], level) << "merged core component without a fresh node";
      built[node].parent = fresh_node[r];
    }
    for (std::uint32_t r : fresh_roots) top[r] = fresh_node[r];
    merged.clear();
    fresh_roots.clear();
  }

  // Number the nodes in preorder, roots and children in build order.
  const auto nb = static_cast<std::uint32_t>(built.size());
  std::vector<std::uint32_t> child_begin(nb + 1, 0);
  for (const BuildNode& b : built) {
    if (b.parent != kNone) ++child_begin[b.parent + 1];
  }
  for (std::uint32_t i = 0; i < nb; ++i) child_begin[i + 1] += child_begin[i];
  std::vector<std::uint32_t> children(child_begin[nb]);
  {
    std::vector<std::uint32_t> cursor(child_begin.begin(), child_begin.end() - 1);
    for (std::uint32_t i = 0; i < nb; ++i) {
      if (built[i].parent != kNone) children[cursor[built[i].parent]++] = i;
    }
  }
  std::vector<std::uint32_t> pre(nb);
  std::vector<std::uint32_t> stack;
  std::uint32_t next = 0;
  for (std::uint32_t root = 0; root < nb; ++root) {
    if (built[root].parent != kNone) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const std::uint32_t b = stack.back();
      stack.pop_back();
      pre[b] = next++;
      for (std::uint32_t c = child_begin[b + 1]; c > child_begin[b]; --c) {
        stack.push_back(children[c - 1]);
      }
    }
  }

  nodes_.resize(nb);
  for (std::uint32_t i = 0; i < nb; ++i) {
    Node& node = nodes_[pre[i]];
    node.level = built[i].level;
    node.parent = built[i].parent == kNone ? kNone : pre[built[i].parent];
    node.end = pre[i] + 1;
    node.first = kNone;
  }
  for (std::uint32_t p = 0; p < s; ++p) {
    if (member_node_[p] == kNone) continue;
    Node& node = nodes_[member_node_[p] = pre[member_node_[p]]];
    ++node.size;
    node.first = std::min(node.first, p);
    node.last = std::max(node.last, p);
  }
  // Children follow their parent in preorder, so one reverse sweep folds
  // every subtree into its root.
  for (std::uint32_t i = nb; i-- > 0;) {
    const Node& child = nodes_[i];
    if (child.parent == kNone) continue;
    Node& parent = nodes_[child.parent];
    parent.end = std::max(parent.end, child.end);
    parent.size += child.size;
    parent.first = std::min(parent.first, child.first);
    parent.last = std::max(parent.last, child.last);
  }
}

void CoreForest::Component(std::span<const VertexId> members, VertexId q, std::uint32_t k,
                           std::vector<VertexId>* out) const {
  out->clear();
  BCCS_DCHECK_EQ(members.size(), member_node_.size()) << "forest of another label group";
  BCCS_DCHECK_GT(k, 0u);
  const auto it = std::lower_bound(members.begin(), members.end(), q);
  if (it == members.end() || *it != q) return;
  std::uint32_t node = member_node_[static_cast<std::size_t>(it - members.begin())];
  if (node == kNone || nodes_[node].level < k) return;
  while (nodes_[node].parent != kNone && nodes_[nodes_[node].parent].level >= k) {
    node = nodes_[node].parent;
  }
  // The component is the members whose node lies in [node, end): one scan
  // over the subtree's position range, written branch-free (one spare slot
  // takes the rejected tail write).
  const Node& root = nodes_[node];
  const std::uint32_t width = root.end - node;
  out->resize(root.size + 1);
  VertexId* dst = out->data();
  std::size_t n = 0;
  for (std::uint32_t p = root.first; p <= root.last; ++p) {
    dst[n] = members[p];
    n += member_node_[p] - node < width;
  }
  BCCS_DCHECK_EQ(n, root.size);
  out->resize(n);
}

}  // namespace bccs
