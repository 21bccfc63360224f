#ifndef BCCS_BUTTERFLY_PEEL_COUNTER_H_
#define BCCS_BUTTERFLY_PEEL_COUNTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "butterfly/butterfly_counting.h"
#include "graph/labeled_graph.h"

namespace bccs {

class QueryWorkspace;

/// Incremental per-vertex butterfly maintenance across peeling rounds.
///
/// Owns the candidate's exact chi after one seed count: when the peel cascade
/// removes a vertex v, OnRemove(v) *subtracts* the wedge contributions routed
/// through v (walking only v's wedges against the survivors) instead of
/// recounting the whole alive candidate — O(wedges through v) per removal
/// instead of O(wedges through alive) per round. Because RemoveAndMaintain
/// fires its callback before v's mask clears and after every earlier removal
/// of the same cascade has cleared its own, each destroyed butterfly is
/// debited from its three surviving vertices exactly once (DESIGN.md,
/// contract 8).
///
/// Per-side max/argmax are maintained lazily: chi is monotone non-increasing
/// after the seed, so every decrease pushes one heap entry and stale tops
/// (dead vertex, or an entry older than the vertex's current chi) are
/// discarded when the max is read. The tie-break — highest chi, then
/// earliest position in the side span — reproduces CountButterfliesInto's
/// first-strict-maximum scan bit for bit.
///
/// Only leaderless peels use it (Online-BCC, and mBCC without leaders):
/// leader-pair peels read chi in few rounds, so they keep just the two
/// leaders' chi by Algorithm 7 and recount when a leader fails. A deadline
/// stop ends the search, so the counter never has to resync mid-search.
///
/// chi is exact integer arithmetic both ways, so with the counter on or off
/// every per-round validity decision — and therefore every answer — is
/// bit-identical. AuditAgainstRecount() asserts that equivalence per round
/// in BCCS_DCHECK builds.
///
/// Instances are pooled in QueryWorkspace (AcquirePeelCounter): the chi and
/// position buffers come from the workspace scratch pools and the heap /
/// touched vectors persist across queries, so steady-state queries perform
/// no O(n) allocation (the workspace bulk_inits contract).
class PeelButterflyCounter {
 public:
  PeelButterflyCounter() = default;
  PeelButterflyCounter(const PeelButterflyCounter&) = delete;
  PeelButterflyCounter& operator=(const PeelButterflyCounter&) = delete;
  ~PeelButterflyCounter();

  /// Attaches to one peel run. The spans are the candidate's initial member
  /// lists and the masks its live group masks; both must outlive the
  /// counter's use. Acquires pooled buffers; Release() (or the workspace's
  /// ReleasePeelCounter) returns them. SeedFrom must run before any other
  /// call.
  void Init(const LabeledGraph& g, std::span<const VertexId> left,
            std::span<const VertexId> right, const std::vector<char>& in_left,
            const std::vector<char>& in_right, QueryWorkspace* ws);

  /// Adopts a fresh count over the same candidate (all members alive), e.g.
  /// Find-G0's counts: copies member chi and total, and builds the max
  /// heaps, without paying a recount.
  void SeedFrom(const ButterflyCounts& seed);

  /// Returns the pooled buffers to the workspace. Idempotent; called by
  /// QueryWorkspace::ReleasePeelCounter.
  void Release();

  /// Debits the wedge contributions of `v`, which is about to be removed
  /// (its mask bit still set; earlier removals of the same cascade already
  /// cleared).
  void OnRemove(VertexId v);

  /// Fixes max/argmax of both sides from the lazy heaps and returns the
  /// maintained counts (chi, total, maxes) — the same view a fresh
  /// CountButterfliesInto over the current masks would produce.
  const ButterflyCounts& RefreshMaxes();

  /// BCCS_DCHECK-level audit: recounts the candidate from scratch and
  /// asserts the maintained chi/total/maxes match exactly. No-op (and free)
  /// when BCCS_DCHECK is compiled out.
  void AuditAgainstRecount();

 private:
  struct HeapEntry {
    std::uint64_t chi;
    std::uint32_t pos;  // index in the side span: the recount scan order
    VertexId v;
  };
  // Max-heap order: highest chi first, ties to the earliest scan position —
  // exactly the vertex SideMaxAndSum's first-strict-maximum scan reports.
  static bool EntryBelow(const HeapEntry& a, const HeapEntry& b) {
    if (a.chi != b.chi) return a.chi < b.chi;
    return a.pos > b.pos;
  }

  void PushEntry(int side, VertexId v);
  void RebuildHeaps();
  void RefreshSide(int side, std::uint64_t* side_max, VertexId* side_argmax);

  const LabeledGraph* g_ = nullptr;
  QueryWorkspace* ws_ = nullptr;
  std::span<const VertexId> side_members_[2];
  const std::vector<char>* side_mask_[2] = {nullptr, nullptr};
  std::size_t n_ = 0;
  bool holds_buffers_ = false;

  ButterflyCounts counts_;          // chi = pooled all-zero buffer
  std::vector<std::uint32_t> pos_;  // pooled; (index << 1) | side, 0xffffffff = non-member
  std::vector<HeapEntry> heap_[2];  // capacity persists across queries
};

}  // namespace bccs

#endif  // BCCS_BUTTERFLY_PEEL_COUNTER_H_
