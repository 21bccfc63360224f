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

  std::uint32_t GroupDegree(VertexId v) const { return group_deg_[v]; }

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
    std::vector<VertexId> queue;
    for (VertexId v : batch) {
      if (IsAlive(v) && !queued_[v]) {
        queued_[v] = 1;
        queue.push_back(v);
      }
    }
    std::size_t head = 0;
    while (head < queue.size()) {
      if (deadline != nullptr && (head & 2047u) == 2047u && deadline->Expired()) {
        if (expired != nullptr) *expired = true;
        for (VertexId v : queue) queued_[v] = 0;
        queue.resize(head);
        return queue;
      }
      VertexId v = queue[head++];
      on_remove(v);
      const std::uint32_t gi = GroupOf(v);
      alive_[v] = 0;
      --num_alive_;
      for (VertexId w : cg_->NeighborsIn(v, gi)) {
        if (!alive_[w] || queued_[w]) continue;
        if (--group_deg_[w] < ks_[gi]) {
          queued_[w] = 1;
          queue.push_back(w);
        }
      }
    }
    for (VertexId v : queue) queued_[v] = 0;
    return queue;
  }

  std::vector<VertexId> RemoveAndMaintain(std::span<const VertexId> batch) {
    return RemoveAndMaintain(batch, [](VertexId) {});
  }

 private:
  const CandidateGraph* cg_;
  QueryWorkspace* ws_;
  std::vector<std::uint32_t> ks_;
  std::vector<char> alive_;
  std::vector<std::uint32_t> group_deg_;
  std::vector<char> queued_;
  std::size_t num_alive_ = 0;
};

}  // namespace bccs

#endif  // BCCS_BCC_CANDIDATE_H_
