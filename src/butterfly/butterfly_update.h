#ifndef BCCS_BUTTERFLY_BUTTERFLY_UPDATE_H_
#define BCCS_BUTTERFLY_BUTTERFLY_UPDATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bcc/candidate_graph.h"
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

/// Repairs a pair-butterfly block (BcIndex pair table) after
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
/// vertex when one vertex is deleted from the bipartite graph B, on a
/// candidate graph (local ids).
///
/// B is the bipartite graph between the alive members of two groups of the
/// candidate; the leader's side is its own group, and every read is one
/// stored cross sub-range (CandidateGraph::NeighborsIn), so no edge outside
/// B is ever touched.
///
/// Reusable across calls: the leader's alive cross neighbours N_B(leader)
/// are stamped into a scratch array once per (leader, other group) and the
/// marking is reused by later calls, so an update costs
/// O(d(removed) * d_max) time (the paper's O(d_u^2)), not O(d(leader)) more,
/// and no allocation.
///
/// Precondition: between calls on one updater, `alive` only loses vertices
/// (a peel's candidate only shrinks). A cached marking is then a superset of
/// the leader's alive cross neighbours, and every read filters it on
/// `alive`.
class LeaderButterflyUpdater {
 public:
  explicit LeaderButterflyUpdater(const CandidateGraph& cg)
      : cg_(&cg), own_stamp_(cg.NumVertices(), 0), stamp_(&own_stamp_),
        counter_(&own_counter_) {}

  /// Borrows the stamp scratch (sized >= cg.NumVertices(), monotone counter)
  /// from a caller that keeps it alive across queries — no allocation here.
  LeaderButterflyUpdater(const CandidateGraph& cg, std::vector<std::uint32_t>* stamp,
                         std::uint32_t* counter)
      : cg_(&cg), stamp_(stamp), counter_(counter) {}

  // stamp_ may point into own_stamp_; copying would dangle.
  LeaderButterflyUpdater(const LeaderButterflyUpdater&) = delete;
  LeaderButterflyUpdater& operator=(const LeaderButterflyUpdater&) = delete;

  /// Returns the number of butterflies of B that contain both `leader` and
  /// `removed`, i.e. how much chi(leader) drops when `removed` is deleted.
  ///
  /// B lies between groups `a` and `b` of the candidate, restricted to
  /// `alive`; `leader` must be a member of one of them. `removed` must
  /// still be alive when this is called. `leader` and `removed` may be on
  /// the same side (paper's lines 1-3) or different sides (lines 4-8).
  std::uint64_t LossOnDeletion(const std::vector<char>& alive, std::uint32_t a,
                               std::uint32_t b, VertexId leader, VertexId removed);

 private:
  /// One stamping of N_B(leader): every neighbour of `leader` in group
  /// `other` alive at marking time carries `stamp`. A vertex holds one
  /// stamp, so a newer marking into the same group overwrites this one.
  struct Marking {
    VertexId leader;
    std::uint32_t other;
    std::uint32_t stamp;
  };

  /// Stamp of the live marking of N_B(leader) in group `other`, marking it
  /// first (and evicting the marking it overwrites) when there is none.
  std::uint32_t MarkingOf(VertexId leader, std::uint32_t other,
                          const std::vector<char>& alive);

  const CandidateGraph* cg_;
  std::vector<std::uint32_t> own_stamp_;
  std::uint32_t own_counter_ = 0;
  std::vector<std::uint32_t>* stamp_;
  std::uint32_t* counter_;
  std::vector<Marking> markings_;  // at most one per group
};

}  // namespace bccs

#endif  // BCCS_BUTTERFLY_BUTTERFLY_UPDATE_H_
