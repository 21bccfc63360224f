#ifndef BCCS_GRAPH_CHANGELOG_H_
#define BCCS_GRAPH_CHANGELOG_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "graph/fnv1a64.h"
#include "graph/graph_delta.h"
#include "graph/snapshot.h"

namespace bccs {

/// The rotated changelog: crash-safe durability for edge updates, layered
/// next to a snapshot instead of inside it.
///
/// A snapshot at `<path>` may be accompanied by segment files named
/// `<path>.log.NNNNNN` (six-digit decimal sequence number, ascending,
/// gap-free, starting at base_changelog_seq + 1 where base_changelog_seq is
/// the watermark stamped in the snapshot header — segments at or below it
/// are already folded into the base payload and are ignored/deleted on
/// sight, which is what makes compaction idempotent across crashes).
///
/// Segment layout (all fields little-endian, written on the host):
///
///   [32-byte segment header]  magic "BCCSLOG1", format version, sequence
///                             number, FNV-1a64 checksum of the preceding
///                             24 header bytes
///   [record]*                 each: a 48-byte record header — magic
///                             "BCCSREC1", kind (0 = update batch, 1 =
///                             seal), entry count, the source-graph stamp
///                             the snapshot REPRESENTS once the record is
///                             replayed, body checksum, header checksum —
///                             followed by count 16-byte entries {kind
///                             (0 insert / 1 delete), u, v, reserved}
///
/// A *seal* record (kind 1, zero entries) marks the segment complete; its
/// body checksum covers every byte of the segment before the seal, so a
/// sealed segment is verifiable end to end. The writer seals and rotates
/// once a segment reaches ChangelogOptions::segment_blocks records or
/// 4 MiB; the background compactor (graph/compactor.h) folds sealed
/// segments into a new base snapshot and advances the watermark.
///
/// Recovery discipline (ARIES-style, prefix-consistent): only the unsealed
/// tail can legitimately be torn by a crash, so recovery scans segments in
/// sequence order, verifies every record, and on the FIRST invalid record
/// of the LAST segment truncates the file there and stops — acknowledged
/// records before the tear replay exactly; the torn bytes were never
/// acknowledged under any policy that fsyncs. An invalid record in a
/// NON-tail segment (or a sequence gap) is real corruption of data that
/// may have been acknowledged durable, and is a hard error rather than a
/// silent drop.
///
/// Durability policy — what an acknowledged Append() means (see DESIGN.md,
/// durability contract):
///
///   kNone         buffered write() only; a crash may lose any suffix of
///                 acknowledged records (power-loss durability is the OS's
///                 writeback schedule). Process-crash-safe, not
///                 power-loss-safe.
///   kOnRotation   fdatasync at seal time: records in sealed segments
///                 survive power loss; the unsealed tail may lose a suffix.
///   kEveryAppend  fdatasync before every acknowledgment: an acknowledged
///                 record survives power loss.
///
/// Thread safety: the class does NOT lock internally. Callers serialize
/// Append/SealTail/DropSegmentsThrough through commit_mutex() — the serve
/// engine holds it across append + epoch publish so the compactor can
/// capture a (state, sealed-seq) pair that agree. The contract is
/// machine-checked: every mutator and counter is REQUIRES(commit_mutex_),
/// so a call without the lock is a compile error under -Wthread-safety.

enum class FsyncPolicy : std::uint8_t { kNone, kOnRotation, kEveryAppend };

const char* Name(FsyncPolicy p);
/// Parses "none" | "on-rotation" | "every-append" (the --fsync values).
bool ParseFsyncPolicy(const std::string& text, FsyncPolicy* out);

struct ChangelogOptions {
  FsyncPolicy fsync = FsyncPolicy::kOnRotation;
  /// Seal + rotate after this many update records (--segment-blocks), or
  /// once the segment file reaches 4 MiB.
  std::size_t segment_blocks = 64;
};

/// What recovery found and did, plus live counters (bccs_update/bccs_serve
/// print this as the recovery report).
struct ChangelogStatus {
  /// Live (seq > watermark) segments present after recovery.
  std::size_t segments = 0;
  std::size_t sealed_segments = 0;
  /// Records / updates replayable from the live segments.
  std::size_t records = 0;
  std::size_t updates = 0;
  /// Stale segments (seq <= watermark, already folded) deleted at open.
  std::size_t stale_segments_removed = 0;
  /// Bytes cut off the tail segment (torn by a crash mid-append).
  std::uint64_t truncated_bytes = 0;
  /// A whole tail segment file dropped (torn before its header was
  /// durable).
  bool dropped_tail_segment = false;
};

/// Read-only scan result: what LoadSnapshot replays on top of the base
/// payload. Mirrors recovery exactly but never mutates the files.
struct ChangelogReplay {
  std::vector<EdgeUpdate> updates;
  /// Stamp of the last replayed update record; meaningful when has_stamp.
  SourceGraphInfo effective;
  bool has_stamp = false;
  std::size_t segments = 0;
  std::size_t sealed_segments = 0;
  std::size_t records = 0;
  std::size_t stale_segments = 0;
  std::uint64_t torn_tail_bytes = 0;

  /// Per-segment detail for auditors (common/validate.h, bccs_fsck).
  struct SegmentInfo {
    std::uint64_t seq = 0;
    std::string path;
    bool sealed = false;
    std::size_t records = 0;  // update records (seal excluded)
    bool torn = false;        // tail tear (tolerated on the last segment)
  };
  /// Live segments in ascending sequence order (a dropped torn tail file is
  /// still listed, with torn=true and zero records).
  std::vector<SegmentInfo> segment_details;
  /// Segments at or below the watermark (already folded; recovery deletes
  /// them on sight, so their presence in a read-only scan is suspicious).
  std::vector<SegmentInfo> stale_details;
};

/// Scans the changelog next to `snapshot_path` without mutating anything:
/// stale segments (seq <= base_seq) are skipped, a torn tail is tolerated
/// (its bytes reported, not replayed). Returns false on hard corruption
/// (sealed-segment checksum failure, sequence gap). No segments at all is
/// success with an empty replay.
bool ScanChangelog(const std::string& snapshot_path, std::uint64_t base_seq,
                   ChangelogReplay* out, std::string* error);

/// Deletes every `<snapshot_path>.log.NNNNNN` segment — used when the base
/// is rebuilt from scratch (the text graph is authoritative, leftover
/// segments would replay stale updates onto the fresh payload). Returns
/// false if the directory could not be listed or a segment could not be
/// removed — leftover segments on a fresh base are a replay hazard, so
/// callers must not treat the cleanup as best-effort.
bool RemoveChangelogSegments(const std::string& snapshot_path,
                             std::string* error = nullptr);

/// fsync a file / the parent directory of `path` (directory sync is what
/// makes a create/rename/unlink durable). Returns false and sets `error`
/// when the open or the fsync fails.
bool FsyncFile(const std::string& path, std::string* error = nullptr);
bool FsyncParentDir(const std::string& path, std::string* error = nullptr);

class Changelog {
 public:
  /// Opens (creating nothing yet — segments appear on first Append) the
  /// changelog next to `snapshot_path`, REPAIRING the tail: stale segments
  /// are unlinked, the torn tail truncated (or the whole torn tail file
  /// dropped), and the tail segment reopened for appending. `base_seq` is
  /// the snapshot's base_changelog_seq watermark. Returns nullptr + error
  /// on hard corruption. `status` (optional) receives the recovery report.
  ///
  /// The caller replays the recovered updates via LoadSnapshot (which
  /// performs the identical scan read-only); Open itself does not touch
  /// the snapshot payload.
  static std::unique_ptr<Changelog> Open(const std::string& snapshot_path,
                                         std::uint64_t base_seq,
                                         const ChangelogOptions& opts,
                                         ChangelogStatus* status = nullptr,
                                         std::string* error = nullptr);
  ~Changelog();

  Changelog(const Changelog&) = delete;
  Changelog& operator=(const Changelog&) = delete;

  /// Appends one update record stamped with `stamp`, making it durable per
  /// the fsync policy before returning — a true return IS the durable
  /// acknowledgment. Rotates (seal + new segment on next append) past the
  /// thresholds. On failure the partial record is truncated away (and the
  /// truncation synced) so the segment stays replayable and the next
  /// append continues at the rolled-back offset; if even the rollback
  /// fails the log is marked broken and every later Append fails fast.
  /// Residual caveat, conventional for WALs: if the truncation's own sync
  /// fails and the process then crashes, a fully-written record whose
  /// batch was REJECTED to the caller may still replay.
  bool Append(std::span<const EdgeUpdate> updates, const SourceGraphInfo& stamp,
              std::string* error = nullptr) REQUIRES(commit_mutex_);

  /// Seals the tail segment if it has any records (so every appended
  /// update sits in a sealed segment and can be folded). No-op otherwise.
  bool SealTail(std::string* error = nullptr) REQUIRES(commit_mutex_);

  /// Unlinks sealed segments with seq <= through_seq (after a fold
  /// published a base with that watermark) and syncs the directory.
  bool DropSegmentsThrough(std::uint64_t through_seq, std::string* error = nullptr)
      REQUIRES(commit_mutex_);

  /// Highest segment sequence number on disk (0 = none yet beyond the
  /// base watermark).
  std::uint64_t last_seq() const REQUIRES(commit_mutex_) { return last_seq_; }
  /// Highest sealed sequence number (everything at or below is foldable).
  std::uint64_t sealed_seq() const REQUIRES(commit_mutex_) { return sealed_seq_; }
  /// Sealed segments not yet dropped by compaction.
  std::size_t sealed_segments() const REQUIRES(commit_mutex_);
  /// Update records appended through this handle (not counting recovery).
  std::size_t updates_appended() const REQUIRES(commit_mutex_) {
    return updates_appended_;
  }
  std::uint64_t base_seq() const { return base_seq_; }
  const ChangelogOptions& options() const { return opts_; }
  const std::string& snapshot_path() const { return snapshot_path_; }

  /// The commit lock: callers hold it across Append + state publish (and
  /// the compactor across SealTail + state capture) so the log and the
  /// published serving state never disagree.
  Mutex& commit_mutex() RETURN_CAPABILITY(commit_mutex_) { return commit_mutex_; }

 private:
  Changelog(std::string snapshot_path, std::uint64_t base_seq, ChangelogOptions opts);

  bool OpenNewTail(std::string* error) REQUIRES(commit_mutex_);
  bool SealTailLocked(std::string* error) REQUIRES(commit_mutex_);
  bool Broken(std::string* error) const REQUIRES(commit_mutex_);
  /// Truncates the tail back to tail_bytes_ after a failed write/sync and
  /// syncs the truncation; marks the log broken if the truncate fails.
  /// Always returns false, reporting `what` through `error`.
  bool RollbackTail(std::string* error, const std::string& what) REQUIRES(commit_mutex_);

  struct Segment {
    std::uint64_t seq = 0;
    std::string path;
    bool sealed = false;
  };

  std::string snapshot_path_;
  std::uint64_t base_seq_ = 0;
  ChangelogOptions opts_;
  std::vector<Segment> segments_ GUARDED_BY(commit_mutex_);  // live, ascending seq
  std::uint64_t last_seq_ GUARDED_BY(commit_mutex_) = 0;
  std::uint64_t sealed_seq_ GUARDED_BY(commit_mutex_) = 0;
  std::size_t updates_appended_ GUARDED_BY(commit_mutex_) = 0;
  int tail_fd_ GUARDED_BY(commit_mutex_) = -1;
  std::uint64_t tail_bytes_ GUARDED_BY(commit_mutex_) = 0;
  std::size_t tail_records_ GUARDED_BY(commit_mutex_) = 0;
  /// Running checksum of every tail byte written, so the seal record's
  /// whole-segment body checksum needs no re-read.
  Fnv1a64 tail_hash_ GUARDED_BY(commit_mutex_);
  bool broken_ GUARDED_BY(commit_mutex_) = false;
  Mutex commit_mutex_;
};

/// One-stop recovery entry for tools: removes a leftover compaction temp
/// file, loads the snapshot with the changelog replayed (LoadSnapshot),
/// then opens the changelog for appending (repairing the tail). The
/// returned Changelog must outlive anything that appends through it.
struct RecoveredSnapshot {
  SnapshotBundle bundle;
  std::unique_ptr<Changelog> log;
  ChangelogStatus status;
};

std::optional<RecoveredSnapshot> OpenSnapshotWithChangelog(
    const std::string& path, const ChangelogOptions& opts,
    const SnapshotLoadOptions& load_opts = {}, std::string* error = nullptr);

/// The compaction temp file SaveSnapshot+rename publishes through; exposed
/// so recovery and the tools agree on what to clean up.
std::string CompactionTempPath(const std::string& snapshot_path);

}  // namespace bccs

#endif  // BCCS_GRAPH_CHANGELOG_H_
