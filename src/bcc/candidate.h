#ifndef BCCS_BCC_CANDIDATE_H_
#define BCCS_BCC_CANDIDATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bcc/candidate_graph.h"
#include "bcc/workspace.h"

namespace bccs {

/// Dynamic state of a butterfly-core community candidate during greedy
/// peeling: m labeled groups, each maintained as a k_i-core of its own
/// induced subgraph (paper's Algorithm 4, generalized to m >= 2 groups for
/// the Section 7 mBCC model; the classic BCC uses m = 2 with group 0 = L and
/// group 1 = R).
///
/// Runs on a CandidateGraph, so every id here is candidate-local and every
/// buffer is |G0|-sized. A vertex's group degree counts only same-group
/// neighbours (homogeneous edges inside the candidate) — initially the
/// length of its own-group sub-range — and the cascade reads only that
/// sub-range; cross edges never contribute to core maintenance, exactly as
/// in Definition 4.
class GroupedCandidate {
 public:
  /// Every member of `cg` starts alive; `ks[i]` is the core parameter of
  /// group i. `cg` and `ws` must outlive the candidate.
  ///
  /// The state is borrowed from `ws`'s scratch pools and restored on
  /// destruction, so building a candidate performs no allocation or fill
  /// beyond |G0| after warm-up.
  GroupedCandidate(const CandidateGraph& cg, std::vector<std::uint32_t> ks,
                   QueryWorkspace& ws);
  ~GroupedCandidate();

  // The borrowed buffers are registered with the workspace; moving would
  // double-release them.
  GroupedCandidate(const GroupedCandidate&) = delete;
  GroupedCandidate& operator=(const GroupedCandidate&) = delete;

  std::size_t NumGroups() const { return ks_.size(); }
  bool IsAlive(VertexId v) const { return alive_[v] != 0; }
  /// Group of a member (fixed; dead members keep theirs).
  std::uint32_t GroupOf(VertexId v) const { return cg_->GroupOf(v); }
  std::size_t NumAlive() const { return num_alive_; }

  /// Union of the alive masks of all groups.
  const std::vector<char>& alive() const { return alive_; }

  /// Same-group degree of an alive vertex among alive vertices.
  std::uint32_t GroupDegree(VertexId v) const { return state_[v] & ~kGone; }

  /// Alive local ids, ascending.
  std::vector<VertexId> AliveVertices() const;

  /// Removes `batch` and cascades the per-group core maintenance: whenever an
  /// alive vertex's same-group degree drops below its group's k, it is
  /// removed too. `on_remove(v)` runs for each removed vertex immediately
  /// BEFORE v's mask is cleared, so Algorithm 7's leader updates observe a
  /// consistent bipartite graph. Returns all removed vertices in order.
  ///
  /// A cascade can collapse the whole candidate, so a non-null `deadline` is
  /// polled every few thousand steps: on expiry the cascade stops early,
  /// `*expired` is set, and only the vertices processed so far are returned
  /// (their masks cleared, bookkeeping consistent). The candidate is then in
  /// a torn state — some survivors may violate their group core — so the
  /// caller MUST abandon the peel immediately; the answer reconstructed from
  /// earlier rounds remains a valid BCC.
  template <typename OnRemove>
  std::vector<VertexId> RemoveAndMaintain(std::span<const VertexId> batch, OnRemove on_remove,
                                          const Deadline* deadline = nullptr,
                                          bool* expired = nullptr) {
    // queue_ holds one slot per vertex plus one: each vertex is pushed at
    // most once (the gone bit), and the tail write of a rejected push lands
    // one past the last accepted one.
    VertexId* const queue = queue_->data();
    std::size_t tail = 0;
    for (VertexId v : batch) {
      if (state_[v] & kGone) continue;  // dead, or a duplicate
      state_[v] |= kGone;
      queue[tail++] = v;
    }
    std::size_t head = 0;
    while (head < tail) {
      if (deadline != nullptr && (head & 2047u) == 2047u && deadline->Expired()) {
        if (expired != nullptr) *expired = true;
        // Queued but unprocessed vertices stay alive with their degrees.
        for (std::size_t i = head; i < tail; ++i) state_[queue[i]] &= ~kGone;
        tail = head;
        break;
      }
      const VertexId v = queue[head++];
      on_remove(v);
      const std::uint32_t gi = GroupOf(v);
      const std::uint32_t k = ks_[gi];
      alive_[v] = 0;
      --num_alive_;
      // Every same-group edge debits its far end once. A gone word stays
      // >= kGone, so it never pushes twice and never borrows into the bit.
      for (VertexId w : cg_->NeighborsIn(v, gi)) {
        const std::uint32_t d = state_[w] - 1;
        const bool push = d < k;
        state_[w] = d | (push ? kGone : 0u);
        queue[tail] = w;
        tail += push;
      }
    }
    return std::vector<VertexId>(queue, queue + tail);
  }

  std::vector<VertexId> RemoveAndMaintain(std::span<const VertexId> batch) {
    return RemoveAndMaintain(batch, [](VertexId) {});
  }

 private:
  // Set in a vertex's state word once it is queued for removal or removed.
  static constexpr std::uint32_t kGone = 0x80000000u;

  const CandidateGraph* cg_;
  QueryWorkspace* ws_;
  std::vector<std::uint32_t> ks_;
  std::vector<char> alive_;
  // Per vertex: same-group degree (debited once per removed same-group
  // neighbour), plus kGone.
  std::vector<std::uint32_t> state_;
  std::vector<VertexId>* queue_ = nullptr;  // borrowed from the workspace
  std::size_t num_alive_ = 0;
};

}  // namespace bccs

#endif  // BCCS_BCC_CANDIDATE_H_
