#include "bcc/candidate_graph.h"

#include <algorithm>
#include <numeric>

#include "bcc/workspace.h"

namespace bccs {
namespace {

// Resizes a pooled buffer whose contents Build rewrites, charging the
// workspace when its capacity grows. Growth frees the old buffer before
// allocating max(size, reserve) (see GrowScratch), so a build never holds
// both.
template <typename T>
void Fit(std::vector<T>* buf, std::size_t size, std::size_t reserve, QueryWorkspace& ws) {
  if (buf->capacity() < size) ws.CountBulkInit();
  GrowScratch(buf, size, reserve, T{});
  buf->resize(size);
}

}  // namespace

void CandidateGraph::Build(const LabeledGraph& g,
                           std::span<const std::span<const VertexId>> groups,
                           QueryWorkspace& ws) {
  const std::size_t m = groups.size();
  std::size_t total = 0;
  for (std::span<const VertexId> grp : groups) total += grp.size();
  // The graph reserves for the largest candidate `g` allows, and so do the
  // workspace's candidate-sized buffers: each grows at most once.
  ws.SetVertexReserve(g.NumVertices());
  const std::size_t reserve = g.NumVertices() + 1;

  // Local numbering: groups in order, each ascending by global id.
  Fit(&to_global_, total, reserve, ws);
  Fit(&group_of_, total, reserve, ws);
  group_offsets_.assign(m + 1, 0);
  std::size_t at = 0;
  for (std::size_t i = 0; i < m; ++i) {
    group_offsets_[i] = at;
    auto begin = to_global_.begin() + static_cast<std::ptrdiff_t>(at);
    auto end = std::copy(groups[i].begin(), groups[i].end(), begin);
    if (!std::is_sorted(begin, end)) std::sort(begin, end);
    std::fill(group_of_.begin() + static_cast<std::ptrdiff_t>(at),
              group_of_.begin() + static_cast<std::ptrdiff_t>(at + groups[i].size()),
              static_cast<std::uint32_t>(i));
    at += groups[i].size();
  }
  group_offsets_[m] = total;
  if (identity_.size() < total) {
    Fit(&identity_, total, reserve, ws);
    std::iota(identity_.begin(), identity_.end(), 0);
  }

  std::vector<VertexId> local_of = ws.U32InfPool().Acquire(g.NumVertices());
  for (VertexId v = 0; v < total; ++v) {
    BCCS_CHECK_EQ(local_of[to_global_[v]], kInvalidVertex)
        << "vertex " << to_global_[v] << " in two candidate groups";
    local_of[to_global_[v]] = v;
  }

  // One pass over the members' adjacency (ascending global id): group-0
  // neighbours go straight into place, the other in-candidate neighbours
  // are staged and then copied out group by group, so every group sub-range
  // is ascending by local id too. The copies are branch-free: each entry is
  // written at the cursor, which advances only past the group's own, so
  // the adjacency array (at least the members' total global degree plus one
  // slot of slack; the mapping reserves g's whole adjacency) needs no
  // bounds checks. Only the entries written are ever touched.
  Fit(&offsets_, total + 1, reserve, ws);
  Fit(&splits_, m > 0 ? total * (m - 1) : 0, m > 0 ? reserve * (m - 1) : 0, ws);
  std::uint64_t bound = 1;
  for (VertexId v = 0; v < total; ++v) bound += g.Degree(to_global_[v]);
  if (adjacency_.capacity() < bound) {
    ws.CountBulkInit();
    adjacency_.Map(std::max<std::uint64_t>(bound, 2 * g.NumEdges() + 1));
  }
  if (scratch_.size() < g.MaxDegree()) Fit(&scratch_, g.MaxDegree(), 0, ws);
  VertexId* const adj = adjacency_.data();
  VertexId* const staged = scratch_.data();
  std::uint64_t pos = 0;
  std::size_t max_degree = 0;
  // Group 0 is [0, split), groups 1.. are [split, split + rest); a
  // non-member (kInvalidVertex) falls in neither range.
  const VertexId split = m > 0 ? static_cast<VertexId>(group_offsets_[1]) : 0;
  const VertexId rest = static_cast<VertexId>(total) - split;
  for (VertexId v = 0; v < total; ++v) {
    const std::uint64_t start = pos;
    offsets_[v] = start;
    std::size_t count = 0;
    for (VertexId w : g.Neighbors(to_global_[v])) {
      const VertexId l = local_of[w];
      adj[pos] = l;
      pos += l < split;
      staged[count] = l;
      count += l - split < rest;
    }
    const std::uint64_t own = pos - start;
    for (std::size_t i = 1; i < m; ++i) {
      splits_[v * (m - 1) + i - 1] = static_cast<std::uint32_t>(pos - start);
      const auto lo = static_cast<VertexId>(group_offsets_[i]);
      const auto width = static_cast<VertexId>(group_offsets_[i + 1]) - lo;
      for (std::size_t k = 0; k < count; ++k) {
        adj[pos] = staged[k];
        pos += staged[k] - lo < width;
      }
    }
    max_degree = std::max<std::size_t>(max_degree, own + count);
  }
  offsets_[total] = pos;
  adjacency_.Trim(pos + 1);  // the cursor's slot may have been written

  ws.U32InfPool().Release(std::move(local_of), {to_global_.data(), total});

  view_ = LabeledGraph();
  view_.offsets_ = ArrayRef<std::uint64_t>::View(offsets_.data(), total + 1);
  view_.adjacency_ = ArrayRef<VertexId>::View(adjacency_.data(), pos);
  view_.labels_ = ArrayRef<Label>::View(group_of_.data(), total);
  view_.label_offsets_ = ArrayRef<std::uint64_t>::View(group_offsets_.data(), m + 1);
  view_.label_members_ = ArrayRef<VertexId>::View(identity_.data(), total);
  view_.max_degree_ = max_degree;
#if BCCS_DCHECK_IS_ON
  AuditAgainst(g);
#endif
}

VertexId CandidateGraph::ToLocal(VertexId global) const {
  for (std::size_t i = 0; i < NumGroups(); ++i) {
    const auto begin = to_global_.begin() + GroupBegin(i);
    const auto end = to_global_.begin() + GroupEnd(i);
    const auto it = std::lower_bound(begin, end, global);
    if (it != end && *it == global) return static_cast<VertexId>(it - to_global_.begin());
  }
  return kInvalidVertex;
}

#if BCCS_DCHECK_IS_ON
// DESIGN.md contract 11: the local CSR, mapped through ToGlobal, is exactly
// the subgraph of `g` induced by the groups, and each stored sub-range holds
// exactly that group's neighbours in ascending order.
void CandidateGraph::AuditAgainst(const LabeledGraph& g) const {
  std::vector<VertexId> want, got;
  for (VertexId v = 0; v < NumVertices(); ++v) {
    want.clear();
    for (VertexId w : g.Neighbors(ToGlobal(v))) {
      if (ToLocal(w) != kInvalidVertex) want.push_back(w);
    }
    got.clear();
    for (std::size_t i = 0; i < NumGroups(); ++i) {
      std::span<const VertexId> in = NeighborsIn(v, i);
      BCCS_DCHECK(std::is_sorted(in.begin(), in.end())) << "candidate sub-range unsorted";
      for (VertexId l : in) {
        BCCS_DCHECK_EQ(GroupOf(l), i) << "candidate sub-range of " << ToGlobal(v);
        got.push_back(ToGlobal(l));
      }
    }
    BCCS_DCHECK_EQ(got.size(), Neighbors(v).size());
    std::sort(got.begin(), got.end());
    BCCS_DCHECK(got == want) << "candidate adjacency of vertex " << ToGlobal(v)
                             << " differs from the induced subgraph";
  }
}
#endif

}  // namespace bccs
