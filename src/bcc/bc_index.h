#ifndef BCCS_BCC_BC_INDEX_H_
#define BCCS_BCC_BC_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "butterfly/butterfly_counting.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "graph/labeled_graph.h"

namespace bccs {

struct SnapshotBundle;    // graph/snapshot.h
struct SourceGraphInfo;   // graph/snapshot.h
struct GraphDelta;        // graph/graph_delta.h

/// Fallback thresholds of BcIndex::ApplyUpdates. A batch is repaired
/// incrementally per affected label / label pair; a label or pair whose
/// update count exceeds its cap takes the scoped rebuild instead (coreness:
/// SubsetCoreness over the one label group; butterflies: CountButterflies
/// over the one pair) — still far from the full-index rebuild.
struct UpdateRepairOptions {
  /// Max intra-label updates per label repaired by level passes; mixed
  /// insert+delete labels always rebuild (see core/core_maintenance.h).
  std::size_t label_incremental_cap = 8;
  /// Max cross-label updates per pair repaired edge-by-edge.
  std::size_t pair_incremental_cap = 8;
};

/// What BcIndex::ApplyUpdates did, for observability and tests.
struct UpdateRepairStats {
  std::size_t labels_touched = 0;      // labels with intra-label updates
  std::size_t labels_incremental = 0;  // repaired by level passes
  std::size_t labels_rebuilt = 0;      // scoped SubsetCoreness rebuild
  std::size_t core_passes = 0;         // level passes across all labels
  std::size_t pairs_touched = 0;       // cached pairs with cross updates
  std::size_t pairs_incremental = 0;   // repaired edge-by-edge
  std::size_t pairs_recounted = 0;     // scoped CountButterflies recount
  std::size_t cross_edges_applied = 0;
};

/// Counters of BcIndex's pair table, exported by BcIndex::PairCacheStats().
/// A hit is a PairButterflies call that found its pair already counted; a
/// miss counted it.
struct BlockCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
};

/// The offline butterfly-core index of Section 6.3.
///
/// Stores, for every vertex, its coreness within its own label group (the
/// delta(v) component) and, per label pair, the butterfly degrees over the
/// full bipartite graph between the two label groups (the chi(v) component).
/// The butterfly component is computed lazily on first use of a label pair
/// and kept for the index's lifetime, which keeps construction linear for
/// graphs with hundreds of labels while preserving exact per-pair query-time
/// semantics (documented deviation 3 in DESIGN.md). The pair table grows to
/// at most every label pair, which is what MaterializeAllPairs (and hence
/// every snapshot bccs_build writes by default) holds resident anyway.
///
/// The index is share-safe and const-usable: all query entry points are
/// const (the lazily filled pair table is logically immutable state behind
/// one leaf mutex), so one index instance — freshly built or reconstructed
/// from a snapshot — can serve every worker thread of a BatchRunner. The
/// coreness arrays live in ArrayRef storage so a snapshot load keeps them as
/// zero-copy views over the mapped file.
class BcIndex {
 public:
  /// The pair table: (a, b) with a < b to that pair's butterfly degrees.
  /// Blocks are shared by pointer with indexes repaired from this one.
  using PairMap = std::map<std::pair<Label, Label>, std::shared_ptr<const ButterflyCounts>>;

  explicit BcIndex(const LabeledGraph& g);

  /// Coreness of v within its own label group.
  std::uint32_t Coreness(VertexId v) const { return label_coreness_[v]; }

  /// Maximum coreness within a label group.
  std::uint32_t MaxCoreness(Label l) const { return max_core_per_label_[l]; }

  /// Butterfly degrees over the full bipartite graph between label groups
  /// `a` and `b`, counted on the first call for the pair. The reference
  /// stays valid for the index's lifetime. Thread-safe: the count runs
  /// outside the lock, so concurrent first calls for one pair may both
  /// count it; the first insert wins and every caller gets that block.
  const ButterflyCounts& PairButterflies(Label a, Label b) const;

  /// Eagerly counts every cross-label pair whose two label groups are both
  /// non-empty. This is what bccs_build runs before saving a snapshot, so a
  /// loaded index answers every pair without computing butterflies.
  void MaterializeAllPairs();

  /// Number of label pairs counted so far.
  std::size_t CachedPairCount() const;

  /// Visits every counted pair as (a, b, counts) with a < b, in key order,
  /// over a copy of the table taken under the lock — so `fn` may call back
  /// into the index. Each reference is valid for the index's lifetime.
  void ForEachCachedPair(
      const std::function<void(Label, Label, const ButterflyCounts&)>& fn) const;

  /// Hit/miss/entry counters of the pair table.
  BlockCacheStats PairCacheStats() const;

  /// Loads the snapshot at `path` (graph + index, see graph/snapshot.h); on
  /// any load failure (absent, truncated, corrupt, version mismatch, stale
  /// source-graph stamp) builds a fresh index from `g`, materializes all
  /// pairs, and best-effort saves a new snapshot to `path`. `error`, when
  /// non-null, receives the load failure reason (empty when the snapshot
  /// loaded cleanly).
  ///
  /// The overload taking `source` (the identity of the graph file `g` was
  /// read from) rejects snapshots stamped with a different source graph and
  /// stamps `source` into any snapshot it writes.
  ///
  /// When the snapshot loads, the returned bundle's graph is the snapshot's
  /// own (mapped) graph and `g` is ignored — callers must query through
  /// `bundle.graph`, not `g`.
  static SnapshotBundle BuildOrLoad(const LabeledGraph& g, const std::string& path,
                                    std::string* error = nullptr);
  static SnapshotBundle BuildOrLoad(const LabeledGraph& g, const std::string& path,
                                    std::string* error, const SourceGraphInfo& source);

  /// Incrementally repairs this index for an edge-update batch and returns
  /// the repaired index over `updated`, which must be the result of
  /// ApplyGraphDelta(graph(), delta) (or an equal graph that outlives the
  /// returned index). This index is left untouched — epoch swaps keep the
  /// old index serving in-flight queries while the new one is prepared.
  ///
  /// The repaired index answers every query bit-identically to a freshly
  /// built BcIndex(updated): intra-label updates repair only their label's
  /// coreness (core/core_maintenance.h level passes driving KCoreMaintainer,
  /// scoped rebuild past the cap), cross-label updates repair only their
  /// pair's counted butterfly block (butterfly/butterfly_update.h per-edge
  /// repair, scoped recount past the cap) in a clone, so this index keeps
  /// its own blocks. Untouched blocks are shared by pointer; untouched
  /// labels and pairs not yet counted (they count lazily against the new
  /// graph) cost nothing beyond the copy.
  std::unique_ptr<BcIndex> ApplyUpdates(const LabeledGraph& updated, const GraphDelta& delta,
                                        const UpdateRepairOptions& opts = {},
                                        UpdateRepairStats* stats = nullptr) const;

  const LabeledGraph& graph() const { return *g_; }

 private:
  friend class SnapshotAccess;  // reconstructs loaded indexes field by field
  friend class ValidateAccess;  // common/validate.h reads raw arrays

  BcIndex() = default;  // snapshot loading only

  /// The table's block for (a, b), a < b, or nullptr if not yet counted.
  const ButterflyCounts* FindPair(Label a, Label b) const;
  /// Inserts `counts` for (a, b), a < b, unless a block is already there;
  /// returns the resident block.
  const ButterflyCounts& InsertPair(Label a, Label b, ButterflyCounts counts) const;
  PairMap CopyPairs() const;

  const LabeledGraph* g_ = nullptr;
  ArrayRef<std::uint32_t> label_coreness_;
  ArrayRef<std::uint32_t> max_core_per_label_;
  // Leaf lock: never held across a butterfly count or any other lock.
  mutable Mutex pairs_mu_;
  mutable PairMap pairs_ GUARDED_BY(pairs_mu_);
  mutable std::atomic<std::uint64_t> pair_hits_{0};
  mutable std::atomic<std::uint64_t> pair_misses_{0};
};

}  // namespace bccs

#endif  // BCCS_BCC_BC_INDEX_H_
