#include "butterfly/peel_counter.h"

#include <algorithm>

#include "bcc/workspace.h"
#include "common/check.h"

namespace bccs {
namespace {

constexpr std::uint32_t kNoPos = static_cast<std::uint32_t>(-1);

inline std::uint64_t Choose2(std::uint64_t x) { return x * (x - 1) / 2; }

}  // namespace

PeelButterflyCounter::~PeelButterflyCounter() {
  // Pooled instances are released (buffers returned) before the workspace
  // parks them; a destructor firing with buffers held means the owning
  // workspace is going away too, taking its pools with it — nothing to
  // return them to.
}

void PeelButterflyCounter::Init(const LabeledGraph& g, std::span<const VertexId> left,
                                std::span<const VertexId> right,
                                const std::vector<char>& in_left,
                                const std::vector<char>& in_right, QueryWorkspace* ws) {
  BCCS_CHECK(!holds_buffers_) << "PeelButterflyCounter::Init without Release";
  g_ = &g;
  ws_ = ws;
  side_members_[0] = left;
  side_members_[1] = right;
  side_mask_[0] = &in_left;
  side_mask_[1] = &in_right;
  n_ = g.NumVertices();
  counts_.chi = ws->U64ZeroPool().Acquire(n_);
  pos_ = ws->U32InfPool().Acquire(n_);
  for (std::size_t i = 0; i < left.size(); ++i) {
    pos_[left[i]] = static_cast<std::uint32_t>(i) << 1;
  }
  for (std::size_t i = 0; i < right.size(); ++i) {
    pos_[right[i]] = (static_cast<std::uint32_t>(i) << 1) | 1u;
  }
  heap_[0].clear();
  heap_[1].clear();
  holds_buffers_ = true;
}

void PeelButterflyCounter::Release() {
  if (!holds_buffers_) return;
  for (VertexId v : side_members_[0]) {
    counts_.chi[v] = 0;
    pos_[v] = kNoPos;
  }
  for (VertexId v : side_members_[1]) {
    counts_.chi[v] = 0;
    pos_[v] = kNoPos;
  }
  ws_->U64ZeroPool().ReleaseClean(std::move(counts_.chi));
  ws_->U32InfPool().ReleaseClean(std::move(pos_));
  counts_.chi = {};
  pos_ = {};
  holds_buffers_ = false;
}

void PeelButterflyCounter::SeedFrom(const ButterflyCounts& seed) {
  BCCS_CHECK(holds_buffers_);
  for (VertexId v : side_members_[0]) counts_.chi[v] = seed.chi[v];
  for (VertexId v : side_members_[1]) counts_.chi[v] = seed.chi[v];
  counts_.total = seed.total;
  counts_.max_left = seed.max_left;
  counts_.max_right = seed.max_right;
  counts_.argmax_left = seed.argmax_left;
  counts_.argmax_right = seed.argmax_right;
  RebuildHeaps();
}

void PeelButterflyCounter::RebuildHeaps() {
  for (int side = 0; side < 2; ++side) {
    auto& h = heap_[side];
    h.clear();
    const std::vector<char>& mask = *side_mask_[side];
    std::uint32_t idx = 0;
    for (VertexId v : side_members_[side]) {
      if (mask[v]) h.push_back(HeapEntry{counts_.chi[v], idx, v});
      ++idx;
    }
    std::make_heap(h.begin(), h.end(), EntryBelow);
  }
}

void PeelButterflyCounter::PushEntry(int side, VertexId v) {
  heap_[side].push_back(HeapEntry{counts_.chi[v], pos_[v] >> 1, v});
  std::push_heap(heap_[side].begin(), heap_[side].end(), EntryBelow);
}

void PeelButterflyCounter::OnRemove(VertexId v) {
  const std::uint32_t enc = pos_[v];
  BCCS_DCHECK_NE(enc, kNoPos) << "OnRemove for a non-member vertex";
  const int side = static_cast<int>(enc & 1u);
  const std::vector<char>& side_mask = *side_mask_[side];
  const std::vector<char>& other_mask = *side_mask_[side ^ 1];
  BCCS_DCHECK(side_mask[v]) << "OnRemove must run before the mask clears";

  std::vector<std::uint32_t>& paths = ws_->WedgePaths(n_);
  std::vector<VertexId>& touched = ws_->WedgeTouched();
  touched.clear();

  // Walk 1: wedges v - u - w with u alive on the other side and w a
  // surviving same-side vertex. P[w] = common alive neighbors of {v, w}, so
  // w loses C(P[w], 2) butterflies — every butterfly containing both v and w
  // uses two of those common neighbors — and their sum is exactly chi[v].
  for (VertexId u : g_->Neighbors(v)) {
    if (!other_mask[u]) continue;
    for (VertexId w : g_->Neighbors(u)) {
      if (w == v || !side_mask[w]) continue;
      if (paths[w] == 0) touched.push_back(w);
      ++paths[w];
    }
  }
  std::uint64_t bf_v = 0;
  for (VertexId w : touched) {
    const std::uint64_t c2 = Choose2(paths[w]);
    if (c2 != 0) {
      BCCS_DCHECK_GE(counts_.chi[w], c2);
      counts_.chi[w] -= c2;
      bf_v += c2;
      PushEntry(side, w);
    }
  }

  // Walk 2: the same wedges, re-read to debit the other side. A butterfly
  // {v, w} x {u, y} containing u pairs u with one of w's other common
  // neighbors, so u loses sum over w of (P[w] - 1). P[w] >= 1 here because
  // this wedge was counted in walk 1.
  for (VertexId u : g_->Neighbors(v)) {
    if (!other_mask[u]) continue;
    std::uint64_t loss = 0;
    for (VertexId w : g_->Neighbors(u)) {
      if (w == v || !side_mask[w]) continue;
      loss += paths[w] - 1;
    }
    if (loss != 0) {
      BCCS_DCHECK_GE(counts_.chi[u], loss);
      counts_.chi[u] -= loss;
      PushEntry(side ^ 1, u);
    }
  }

  for (VertexId w : touched) paths[w] = 0;
  BCCS_DCHECK_EQ(counts_.chi[v], bf_v)
      << "maintained chi of the removed vertex disagrees with its live wedges";
  counts_.chi[v] = 0;
  counts_.total -= bf_v;
}

void PeelButterflyCounter::RefreshSide(int side, std::uint64_t* side_max,
                                       VertexId* side_argmax) {
  auto& h = heap_[side];
  const std::vector<char>& mask = *side_mask_[side];
  while (!h.empty()) {
    const HeapEntry& top = h.front();
    if (mask[top.v] && counts_.chi[top.v] == top.chi) break;  // exact: keep
    std::pop_heap(h.begin(), h.end(), EntryBelow);
    h.pop_back();
  }
  if (h.empty()) {
    *side_max = 0;
    *side_argmax = kInvalidVertex;
  } else {
    *side_max = h.front().chi;
    *side_argmax = h.front().v;
  }
}

const ButterflyCounts& PeelButterflyCounter::RefreshMaxes() {
  RefreshSide(0, &counts_.max_left, &counts_.argmax_left);
  RefreshSide(1, &counts_.max_right, &counts_.argmax_right);
  return counts_;
}

void PeelButterflyCounter::AuditAgainstRecount() {
#if BCCS_DCHECK_IS_ON
  BCCS_CHECK(holds_buffers_);
  ButterflyCounts fresh =
      CountButterflies(*g_, side_members_[0], side_members_[1], *side_mask_[0], *side_mask_[1]);
  for (VertexId v : side_members_[0]) {
    BCCS_DCHECK_EQ(counts_.chi[v], fresh.chi[v]) << "delta-chi audit: left vertex " << v;
  }
  for (VertexId v : side_members_[1]) {
    BCCS_DCHECK_EQ(counts_.chi[v], fresh.chi[v]) << "delta-chi audit: right vertex " << v;
  }
  BCCS_DCHECK_EQ(counts_.total, fresh.total) << "delta-chi audit: total";
  RefreshMaxes();
  BCCS_DCHECK_EQ(counts_.max_left, fresh.max_left) << "delta-chi audit: max_left";
  BCCS_DCHECK_EQ(counts_.max_right, fresh.max_right) << "delta-chi audit: max_right";
  BCCS_DCHECK_EQ(counts_.argmax_left, fresh.argmax_left) << "delta-chi audit: argmax_left";
  BCCS_DCHECK_EQ(counts_.argmax_right, fresh.argmax_right) << "delta-chi audit: argmax_right";
#endif
}

}  // namespace bccs
