#ifndef BCCS_BUTTERFLY_BUTTERFLY_UPDATE_H_
#define BCCS_BUTTERFLY_BUTTERFLY_UPDATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "butterfly/butterfly_counting.h"
#include "graph/labeled_graph.h"

namespace bccs {

/// Outcome of RepairPairButterflies: which strategy ran.
struct PairButterflyRepair {
  /// True when the fallback full recount (CountButterflies over the pair)
  /// ran instead of the per-edge incremental repair.
  bool recounted = false;
  /// Cross-edge updates applied by the incremental path.
  std::size_t edges_applied = 0;
};

/// Repairs a cached pair-butterfly entry (BcIndex pair cache) after
/// cross-label edge updates between label groups `a` and `b`, leaving
/// `counts` exactly equal to CountButterflies over the two full groups on
/// the updated graph.
///
/// `inserted` / `deleted` are the pair's net cross-label updates (one
/// endpoint labeled `a`, the other `b`; each edge at most once, see
/// BuildGraphDelta). The incremental path extends the Algorithm 7 idea from
/// leader deltas to whole cached entries: for each updated cross edge it
/// enumerates the butterflies containing that edge (wedges through the two
/// endpoints, O(d(u) * d(v)) per edge) and patches every participant's chi,
/// sequencing the batch against `base` with deletions first so each
/// enumeration sees a consistent intermediate graph. Batches larger than
/// `incremental_cap` fall back to the full recount on `updated`.
PairButterflyRepair RepairPairButterflies(const LabeledGraph& base,
                                          const LabeledGraph& updated, Label a, Label b,
                                          std::span<const Edge> inserted,
                                          std::span<const Edge> deleted,
                                          std::size_t incremental_cap,
                                          ButterflyCounts* counts);

/// Paper's Algorithm 7: incremental butterfly-degree update for a leader
/// vertex when one vertex is deleted from the bipartite graph B.
///
/// Reusable across calls: the leader's alive cross neighbours N_B(leader)
/// are stamped into a scratch array once per (leader, other-side mask) and
/// the marking is reused by later calls, so an update costs
/// O(d(removed) * d_max) time (the paper's O(d_u^2)), not O(d(leader)) more,
/// and no allocation.
///
/// Precondition: between calls on one updater, the masks only lose vertices
/// (a peel's masks only shrink), and each mask holds vertices of a single
/// label. A cached marking is then a superset of the leader's alive cross
/// neighbours, and every read filters it on the live mask.
class LeaderButterflyUpdater {
 public:
  explicit LeaderButterflyUpdater(const LabeledGraph& g)
      : g_(&g), own_stamp_(g.NumVertices(), 0), stamp_(&own_stamp_), counter_(&own_counter_) {}

  /// Borrows the stamp scratch (sized >= NumVertices, monotone counter) from
  /// a caller that keeps it alive across queries — no O(n) allocation here.
  LeaderButterflyUpdater(const LabeledGraph& g, std::vector<std::uint32_t>* stamp,
                         std::uint32_t* counter)
      : g_(&g), stamp_(stamp), counter_(counter) {}

  // stamp_ may point into own_stamp_; copying would dangle.
  LeaderButterflyUpdater(const LeaderButterflyUpdater&) = delete;
  LeaderButterflyUpdater& operator=(const LeaderButterflyUpdater&) = delete;

  /// Returns the number of butterflies of B that contain both `leader` and
  /// `removed`, i.e. how much chi(leader) drops when `removed` is deleted.
  ///
  /// B is the bipartite graph over the two alive sides described by masks
  /// `in_a` / `in_b` (cross edges of `g` between them). `removed` must still
  /// be alive in its mask when this is called. `leader` and `removed` may be
  /// on the same side (paper's lines 1-3) or different sides (lines 4-8).
  std::uint64_t LossOnDeletion(const std::vector<char>& in_a, const std::vector<char>& in_b,
                               VertexId leader, VertexId removed);

 private:
  /// One stamping of N_B(leader): every cross neighbour of `leader` alive in
  /// `*other` at marking time carries `stamp`. A vertex holds one stamp, so
  /// a newer marking of the same label group overwrites this one.
  struct Marking {
    VertexId leader;
    const std::vector<char>* other;
    std::uint32_t stamp;
    Label label;  // label of the stamped vertices; kNoMarks when none
  };
  static constexpr Label kNoMarks = static_cast<Label>(-1);

  /// Stamp of the live marking of N_B(leader) in `other`, marking it first
  /// (and evicting the marking it overwrites) when there is none.
  std::uint32_t MarkingOf(VertexId leader, const std::vector<char>& other);

  const LabeledGraph* g_;
  std::vector<std::uint32_t> own_stamp_;
  std::uint32_t own_counter_ = 0;
  std::vector<std::uint32_t>* stamp_;
  std::uint32_t* counter_;
  std::vector<Marking> markings_;  // at most one per label group, plus one kNoMarks
};

}  // namespace bccs

#endif  // BCCS_BUTTERFLY_BUTTERFLY_UPDATE_H_
