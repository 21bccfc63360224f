#ifndef BCCS_GRAPH_SNAPSHOT_H_
#define BCCS_GRAPH_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "bcc/bc_index.h"
#include "graph/labeled_graph.h"

namespace bccs {

/// Persistent binary snapshots of a labeled graph plus its BcIndex. Edge
/// updates to a snapshot live beside it, in the rotated changelog
/// (graph/changelog.h).
///
/// A snapshot file is the version-3 header followed by its payload, and
/// nothing else:
///
///   [88-byte header]  magic "BCCSNAP1", format version (3), endian tag,
///                     array sizes, number of materialized pairs, max
///                     degree, size + mtime of the source graph file (0/0
///                     when unknown), the base changelog sequence number
///                     (the highest rotated-changelog segment already
///                     folded into this payload — see graph/changelog.h;
///                     0 when the snapshot has never been compacted from
///                     a changelog), FNV-1a64 checksum of the payload
///   [payload]         64-byte-aligned sections in order: the graph's CSR
///                     arrays (offsets, adjacency, labels, label-group
///                     offsets, label-group members), the index's coreness
///                     arrays (per-vertex, per-label max), the pair table
///                     (one 48-byte entry per materialized butterfly pair),
///                     then each pair's chi values back to back, compacted
///                     over the two label groups
///
/// Every payload section starts on a 64-byte boundary, so after mmap() each
/// array is cache-line aligned and can be used in place: LoadSnapshot
/// reconstructs the graph and index as zero-copy views over the mapping
/// (the only copied data are the per-pair chi arrays, which are
/// re-scattered into dense vectors). The file is always mmap'ed; there is
/// no read() loader.
///
/// A snapshot may be accompanied by rotated changelog segment files
/// (`<path>.log.NNNNNN`, graph/changelog.h) — the one update log.
/// LoadSnapshot replays them read-only, with the same torn-tail tolerance
/// recovery uses, through the dynamic-graph layer (BuildGraphDelta →
/// ApplyGraphDelta → BcIndex::ApplyUpdates), so every consumer of a
/// snapshot observes the durable state and the bundle it returns is the
/// *updated* graph and index: the label arrays stay zero-copy views over
/// the mapping, the adjacency and the repaired index arrays are rebuilt in
/// memory. The staleness check compares `expected_source` against the
/// EFFECTIVE stamp — the last replayed changelog record's stamp, else the
/// header's — which is what lets a snapshot whose base payload is stale
/// keep serving after bccs_update appended the matching records.
///
/// Rejected inputs (truncated file, bad magic, wrong version or
/// endianness, payload checksum mismatch, any bytes after the payload,
/// stale effective source stamp, a changelog that is corrupt or does not
/// apply to the stored graph) return std::nullopt with a human-readable
/// reason. Trailing bytes that start with "BCCSDLT1" are an in-file delta
/// chain from an older format; the reason says so and names the remedy.

/// Bump when the on-disk layout changes; loaders reject other versions.
/// v3 added the base-changelog-sequence watermark to the header (88 bytes,
/// up from v2's 80).
inline constexpr std::uint32_t kSnapshotFormatVersion = 3;

/// Identity of the text graph file a snapshot was built from, stamped into
/// the header so a loader given the graph path can detect a stale snapshot
/// (graph edited after the snapshot was written). {0, 0} means unknown —
/// e.g. a snapshot of an in-memory graph — and disables the check.
///
/// This is the size+mtime heuristic of make/rsync, chosen so the warm
/// serving path never has to read the text graph: a same-size rewrite
/// within one mtime tick of the filesystem goes undetected (run bccs_build
/// again after such an edit).
struct SourceGraphInfo {
  std::uint64_t size_bytes = 0;
  std::uint64_t mtime_ns = 0;

  bool Known() const { return size_bytes != 0 || mtime_ns != 0; }
  friend bool operator==(const SourceGraphInfo&, const SourceGraphInfo&) = default;
};

/// Stats `path` into a SourceGraphInfo; {0, 0} when the file is missing or
/// unreadable.
SourceGraphInfo StatSourceGraph(const std::string& path);

/// A loaded (or freshly built, for BcIndex::BuildOrLoad) graph + index. The
/// graph shared_ptr owns the file mapping; the index points into the graph,
/// so keep the bundle together (or at least the graph) while the index is
/// in use. A loaded bundle's arrays are zero-copy views over the mapping;
/// with a replayed changelog, the label arrays remain mapped views while
/// the adjacency and index arrays are rebuilt in memory.
struct SnapshotBundle {
  std::shared_ptr<const LabeledGraph> graph;
  std::unique_ptr<BcIndex> index;
  /// True when the bundle came from a snapshot file rather than a build.
  bool loaded_from_snapshot = false;
  /// Snapshot file size in bytes (0 for built bundles that failed to save).
  std::size_t snapshot_bytes = 0;
  /// Changelog updates replayed onto the loaded state (0 for a bare
  /// snapshot or a built bundle).
  std::size_t replayed_updates = 0;
  /// The header's changelog watermark: rotated segments with seq <= this
  /// are already folded into the payload (graph/changelog.h).
  std::uint64_t base_changelog_seq = 0;
  /// Rotated-changelog replay: live segments scanned, and tail bytes a
  /// crash tore off (tolerated, not replayed).
  std::size_t changelog_segments = 0;
  std::uint64_t changelog_torn_bytes = 0;
};

struct SnapshotLoadOptions {
  /// Verify the payload checksum before trusting the file. One sequential
  /// pass over the payload; disable only for trusted files where pure
  /// page-fault cold start matters.
  bool verify_checksum = true;
  /// When Known(), reject snapshots whose stamped source-graph identity is
  /// also known and differs ("stale snapshot"). Snapshots stamped as
  /// unknown skip the check. The comparison uses the EFFECTIVE stamp: the
  /// last replayed changelog record's, else the header's.
  SourceGraphInfo expected_source;
};

/// Serializes `index.graph()` plus `index` (coreness arrays and the
/// currently cached pair butterflies — run index.MaterializeAllPairs()
/// first for a complete serving snapshot) to `path`, stamping `source` (the
/// identity of the graph file the index came from, when there is one) and
/// `base_changelog_seq` (the changelog watermark this payload folds in; 0
/// for a fresh build) into the header. Returns false and sets `error` on
/// I/O failure; a partially written file is removed.
bool SaveSnapshot(const BcIndex& index, const std::string& path,
                  std::string* error = nullptr, const SourceGraphInfo& source = {},
                  std::uint64_t base_changelog_seq = 0);

/// Loads a snapshot written by SaveSnapshot, replaying its changelog (see
/// the format above). On failure returns std::nullopt and sets `error` to
/// the rejection reason.
std::optional<SnapshotBundle> LoadSnapshot(const std::string& path,
                                           std::string* error = nullptr,
                                           const SnapshotLoadOptions& opts = {});

/// Builds a fresh index from `g` (materializing every cross-label pair) and
/// best-effort saves it to `path` stamped with `source`; `error` reports a
/// failed save. This is the build half of BcIndex::BuildOrLoad — call it
/// directly when a load of `path` was already attempted and failed, to
/// avoid re-reading the file.
SnapshotBundle BuildSnapshotBundle(const LabeledGraph& g, const std::string& path,
                                   std::string* error = nullptr,
                                   const SourceGraphInfo& source = {});

}  // namespace bccs

#endif  // BCCS_GRAPH_SNAPSHOT_H_
