#ifndef BCCS_COMMON_VALIDATE_H_
#define BCCS_COMMON_VALIDATE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/labeled_graph.h"

namespace bccs {

class BcIndex;
struct ButterflyCounts;

/// Outcome of a deep structural audit. `reason` names the first violated
/// invariant (empty when ok) — validators stop at the first failure so the
/// reason always points at one concrete defect.
struct ValidationResult {
  bool ok = true;
  std::string reason;

  static ValidationResult Ok() { return {}; }
  static ValidationResult Fail(std::string why) { return {false, std::move(why)}; }
  explicit operator bool() const { return ok; }
};

/// CSR well-formedness of a LabeledGraph: offset-array shape and
/// monotonicity, strictly-ascending in-range adjacency lists with no
/// self-loops, symmetric adjacency (every (u,v) has its (v,u)), in-range
/// labels, and a label-membership CSR that partitions the vertex set with
/// each vertex under its own label. O(V + E log d). This is the contract
/// every kernel (linear-merge intersections, bucket peeling) assumes; a
/// graph that fails it can crash or silently mis-answer.
ValidationResult ValidateGraph(const LabeledGraph& g);

/// BcIndex consistency against its graph: array shapes, stored label
/// coreness equal to an exact recomputation (LabelCoreness), per-label
/// maxima, canonical in-range pair-table keys, and — for up to
/// `sample_pairs` counted pairs, spread deterministically over the table —
/// stored butterfly counts equal to an exact recount. 0 samples skips the
/// recount (shape and coreness checks still run).
ValidationResult ValidateIndex(const BcIndex& index, std::size_t sample_pairs = 4);

/// Changelog-chain invariants for the segments next to `snapshot_path`
/// with base watermark `base_seq`: the scan itself must succeed (checksums,
/// contiguous sequence numbers, torn records only at the tail), every
/// non-tail live segment must be sealed, and no segment at or below the
/// watermark may exist (recovery deletes them; one on disk means a fold
/// published a watermark without dropping its inputs, or a stale file was
/// resurrected). Read-only.
ValidationResult ValidateChangelogChain(const std::string& snapshot_path,
                                        std::uint64_t base_seq);

/// A copy of the serve engine's epoch-history bookkeeping, snapshotted
/// under the stream lock (the engine builds this; tests build it by hand).
struct EpochHistoryView {
  struct Slot {
    std::uint64_t epoch = 0;  // meaningful when has_state
    std::size_t pending = 0;  // queries pinned to the slot
    bool has_state = false;   // slot still holds a (graph, index) pair
  };
  std::vector<Slot> slots;
  std::size_t published = 0;       // leading slots with published state
  std::size_t release_cursor = 0;  // first slot that may still hold state
  std::size_t updates_admitted = 0;
};

/// Epoch-history invariants: one slot per admitted update plus the base
/// slot, a released prefix that is fully drained and empty, a published
/// window that still holds state with monotone epochs, and no state in
/// slots not yet published.
ValidationResult ValidateEpochHistory(const EpochHistoryView& h);

/// Raw-array access and construction seams for the validators and their
/// tests. The audits must read fields the public API hides (and the tests
/// must build deliberately malformed structures the public constructors
/// refuse to produce), so this class is friended by LabeledGraph and
/// BcIndex. Not for use outside validation code.
class ValidateAccess {
 public:
  static std::span<const std::uint64_t> Offsets(const LabeledGraph& g) {
    return g.offsets_.span();
  }
  static std::span<const VertexId> Adjacency(const LabeledGraph& g) {
    return g.adjacency_.span();
  }
  static std::span<const Label> Labels(const LabeledGraph& g) { return g.labels_.span(); }
  static std::span<const std::uint64_t> LabelOffsets(const LabeledGraph& g) {
    return g.label_offsets_.span();
  }
  static std::span<const VertexId> LabelMembers(const LabeledGraph& g) {
    return g.label_members_.span();
  }

  static std::size_t CorenessSize(const BcIndex& index);
  static std::size_t MaxCoreSize(const BcIndex& index);

  /// Builds a graph from raw CSR arrays with no normalization — the test
  /// seam for seeding corruptions FromEdges would repair.
  static LabeledGraph RawGraph(std::vector<std::uint64_t> offsets,
                               std::vector<VertexId> adjacency, std::vector<Label> labels,
                               std::vector<std::uint64_t> label_offsets,
                               std::vector<VertexId> label_members);

  /// Builds an index over `g` with the given arrays, bypassing the real
  /// construction — the test seam for seeding coreness corruptions. `g`
  /// must outlive the result. (A pointer because the index owns a mutex
  /// and cannot move.)
  static std::unique_ptr<BcIndex> RawIndex(const LabeledGraph& g,
                                           std::vector<std::uint32_t> label_coreness,
                                           std::vector<std::uint32_t> max_core_per_label);

  /// Overwrites (or inserts) one pair-table block — the test seam for
  /// seeding butterfly-count corruptions. Invalidates references earlier
  /// PairButterflies calls returned for that pair.
  static void SetCachedPair(BcIndex& index, Label a, Label b, ButterflyCounts counts);
};

}  // namespace bccs

#endif  // BCCS_COMMON_VALIDATE_H_
