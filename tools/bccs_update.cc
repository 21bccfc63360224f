// bccs_update: apply an edge-update batch to a persisted snapshot.
//
//   bccs_update --snapshot g.snap --updates u.txt [--graph g.txt]
//               [--write-graph out.txt] [--no-verify]
//               [--fsync none|on-rotation|every-append]
//               [--segment-blocks N] [--compact] [--compact-threshold N]
//               [--recover-only] [--ack-file FILE] [--validate]
//
// Loads the snapshot — recovering it first: a leftover compaction temp file
// is removed, stale (already-folded) changelog segments are deleted, and a
// torn changelog tail is truncated to the last complete record — replays
// the rotated changelog segments, validates the update batch against that
// state, and appends it as one record to the changelog next to the
// snapshot (graph/changelog.h). The base payload is not rewritten; the next
// load replays the record through the dynamic-graph layer
// (graph/graph_delta.h, BcIndex::ApplyUpdates). The append is crash-safe
// per --fsync and rotates into sealed segments every --segment-blocks
// records. A zero exit IS the durable acknowledgment (durable per the
// policy).
//
//   --compact        after the append, folds every segment into a new base
//                    payload (graph/compactor.h: seal, fsync'd tmp +
//                    rename + directory fsync, drop the folded segments,
//                    advancing the watermark; idempotent across crashes).
//   --compact-threshold N
//                    fold only once N sealed segments have accumulated.
//
// --recover-only performs the recovery + replay and exits without reading
// updates (what bccs_serve does at startup, as a standalone step). After the
// append, --ack-file FILE appends one fsync'd "acked <count>" line there —
// the fault-injection harness reads it back to know how many updates were
// acknowledged before a crash.
//
// Re-stamping: --graph names the text graph file that reflects the
// POST-update graph; its size/mtime is stamped into the record so
// bccs_query --graph accepts the snapshot as fresh. --write-graph FILE
// writes the updated graph there as text (and stamps it when --graph is
// absent). Without either, the record is stamped "unknown source"
// (staleness checking disabled).
//
// Unless --no-verify is given, the tool re-loads the snapshot and checks
// the replayed state against the in-memory updated index. --validate runs
// the deep structural audits (common/validate.h) on the updated graph and
// index, plus the changelog-chain audit, before exiting.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bcc/bc_index.h"
#include "common/validate.h"
#include "eval/timer.h"
#include "graph/changelog.h"
#include "graph/compactor.h"
#include "graph/graph_delta.h"
#include "graph/graph_io.h"
#include "graph/posix_io.h"
#include "graph/snapshot.h"
#include "tools/arg_parser.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: bccs_update --snapshot FILE --updates FILE [--graph FILE]\n"
               "                   [--write-graph FILE] [--no-verify]\n"
               "                   [--fsync none|on-rotation|every-append]\n"
               "                   [--segment-blocks N] [--compact] [--compact-threshold N]\n"
               "                   [--recover-only] [--ack-file FILE] [--validate]\n");
}

bool VerifyReload(const bccs::LabeledGraph& updated, const bccs::BcIndex& repaired,
                  const std::string& path) {
  std::string error;
  auto reloaded = bccs::LoadSnapshot(path, &error);
  if (!reloaded) {
    std::fprintf(stderr, "verify: reload failed: %s\n", error.c_str());
    return false;
  }
  const bccs::LabeledGraph& rg = *reloaded->graph;
  if (rg.NumVertices() != updated.NumVertices() || rg.NumEdges() != updated.NumEdges() ||
      rg.NumLabels() != updated.NumLabels()) {
    std::fprintf(stderr, "verify: graph shape mismatch after reload\n");
    return false;
  }
  for (bccs::VertexId v = 0; v < updated.NumVertices(); ++v) {
    if (rg.LabelOf(v) != updated.LabelOf(v) ||
        reloaded->index->Coreness(v) != repaired.Coreness(v)) {
      std::fprintf(stderr, "verify: vertex %u disagrees after reload\n", v);
      return false;
    }
    const auto a = updated.Neighbors(v);
    const auto b = rg.Neighbors(v);
    if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin())) {
      std::fprintf(stderr, "verify: adjacency of vertex %u disagrees after reload\n", v);
      return false;
    }
  }
  if (reloaded->index->CachedPairCount() != repaired.CachedPairCount()) {
    std::fprintf(stderr, "verify: cached pair count mismatch after reload\n");
    return false;
  }
  return true;
}

/// Appends one fsync'd "acked <count>" line — the harness's ground truth
/// for how many updates were acknowledged durable before a crash.
bool AppendAckLine(const std::string& path, std::size_t count) {
  char line[64];
  const int len = std::snprintf(line, sizeof(line), "acked %zu\n", count);
  if (len <= 0) return false;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return false;
  bool ok = bccs::internal::FullWrite(fd, line, static_cast<std::size_t>(len));
  if (::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  return ok;
}

// The "snapshot: N vertices, E edges" prefix is parsed by
// tests/fault_fs/crash_matrix.sh; keep it stable.
void PrintRecovery(const bccs::SnapshotBundle& bundle, const bccs::ChangelogStatus& st,
                   double seconds) {
  std::printf("snapshot: %zu vertices, %zu edges, %zu cached pairs, %zu replayed updates "
              "(%zu changelog records in %zu live segments) in %.4fs\n",
              bundle.graph->NumVertices(), bundle.graph->NumEdges(),
              bundle.index->CachedPairCount(), bundle.replayed_updates, st.records,
              st.segments, seconds);
  if (st.segments > 0 || st.stale_segments_removed > 0 || st.truncated_bytes > 0) {
    std::printf("recovery: %zu live segments (%zu sealed, watermark %llu), "
                "%zu stale removed, %llu torn changelog bytes truncated%s\n",
                st.segments, st.sealed_segments,
                static_cast<unsigned long long>(bundle.base_changelog_seq),
                st.stale_segments_removed,
                static_cast<unsigned long long>(st.truncated_bytes),
                st.dropped_tail_segment ? " (tail segment dropped)" : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bccs::ArgParser args = bccs::ArgParser::Parse(argc, argv);
  auto unknown = args.UnknownFlags({"snapshot", "updates", "graph", "compact", "write-graph",
                                    "no-verify", "fsync", "segment-blocks",
                                    "compact-threshold", "recover-only", "ack-file",
                                    "validate", "help"});
  if (!unknown.empty() || args.Has("help")) {
    for (const auto& u : unknown) std::fprintf(stderr, "unknown flag: --%s\n", u.c_str());
    PrintUsage();
    return args.Has("help") ? 0 : 2;
  }
  auto snapshot_path = args.GetString("snapshot");
  auto updates_path = args.GetString("updates");
  if (!snapshot_path || (!updates_path && !args.Has("recover-only"))) {
    PrintUsage();
    return 2;
  }

  bccs::ChangelogOptions copts;
  if (auto fsync_text = args.GetString("fsync")) {
    if (!bccs::ParseFsyncPolicy(*fsync_text, &copts.fsync)) {
      std::fprintf(stderr, "--fsync must be none, on-rotation, or every-append\n");
      return 2;
    }
  }
  bool flags_valid = true;
  const std::int64_t segment_blocks =
      args.GetPositiveIntOr("segment-blocks", 0, &flags_valid);
  const std::int64_t compact_threshold =
      args.GetPositiveIntOr("compact-threshold", 0, &flags_valid);
  if (!flags_valid) {
    std::fprintf(stderr,
                 "--segment-blocks and --compact-threshold must be positive integers\n");
    return 2;
  }
  if (segment_blocks > 0) copts.segment_blocks = static_cast<std::size_t>(segment_blocks);

  bccs::Timer load_timer;
  std::string error;
  auto recovered = bccs::OpenSnapshotWithChangelog(*snapshot_path, copts, {}, &error);
  if (!recovered) {
    std::fprintf(stderr, "cannot load snapshot %s: %s\n", snapshot_path->c_str(),
                 error.c_str());
    return 1;
  }
  bccs::SnapshotBundle& bundle = recovered->bundle;
  PrintRecovery(bundle, recovered->status, load_timer.Seconds());

  if (args.Has("recover-only")) {
    std::printf("recover-only: snapshot is consistent (fsync %s)\n", Name(copts.fsync));
    return 0;
  }

  auto updates = bccs::ReadEdgeUpdatesFromFile(*updates_path, &error);
  if (!updates) {
    std::fprintf(stderr, "cannot read updates from %s: %s\n", updates_path->c_str(),
                 error.c_str());
    return 1;
  }
  const auto delta = bccs::BuildGraphDelta(*bundle.graph, *updates, &error);
  if (!delta) {
    std::fprintf(stderr, "invalid update batch: %s\n", error.c_str());
    return 1;
  }

  // Apply in memory: needed for the fold / --write-graph / verify, and it
  // reports what the incremental repair did.
  bccs::Timer apply_timer;
  auto updated = std::make_shared<const bccs::LabeledGraph>(
      bccs::ApplyGraphDelta(*bundle.graph, *delta));
  bccs::UpdateRepairStats repair;
  std::shared_ptr<const bccs::BcIndex> repaired =
      bundle.index->ApplyUpdates(*updated, *delta, {}, &repair);
  std::printf("updates: %zu (%zu inserts, %zu deletes net) applied in %.4fs\n",
              updates->size(), delta->inserts.size(), delta->deletes.size(),
              apply_timer.Seconds());
  std::printf("repair: labels %zu incremental / %zu rebuilt (%zu passes), "
              "pairs %zu incremental / %zu recounted (%zu cross edges)\n",
              repair.labels_incremental, repair.labels_rebuilt, repair.core_passes,
              repair.pairs_incremental, repair.pairs_recounted, repair.cross_edges_applied);

  // The re-stamp source: the text graph reflecting the post-update state.
  auto write_graph = args.GetString("write-graph");
  if (write_graph) {
    if (!bccs::WriteLabeledGraphToFile(*updated, *write_graph)) {
      std::fprintf(stderr, "cannot write updated graph to %s\n", write_graph->c_str());
      return 1;
    }
    std::printf("wrote updated graph to %s\n", write_graph->c_str());
  }
  bccs::SourceGraphInfo source;  // unknown unless a post-update graph file exists
  if (auto graph_path = args.GetString("graph")) {
    source = bccs::StatSourceGraph(*graph_path);
  } else if (write_graph) {
    source = bccs::StatSourceGraph(*write_graph);
  }

  // The durable append: Changelog::Append returning true IS the
  // acknowledgment, durable per --fsync.
  bccs::Timer append_timer;
  std::uint64_t appended_seq = 0;
  {
    // The tool is single-threaded, but Append requires the commit lock.
    bccs::MutexLock commit(recovered->log->commit_mutex());
    if (!recovered->log->Append(*updates, source, &error)) {
      std::fprintf(stderr, "cannot append to changelog: %s\n", error.c_str());
      return 1;
    }
    appended_seq = recovered->log->last_seq();
  }
  std::printf("changelog: %zu updates acknowledged (policy %s) into segment %llu "
              "in %.4fs\n",
              updates->size(), Name(copts.fsync),
              static_cast<unsigned long long>(appended_seq), append_timer.Seconds());
  if (auto ack_file = args.GetString("ack-file")) {
    if (!AppendAckLine(*ack_file, updates->size())) {
      std::fprintf(stderr, "cannot record ack in %s\n", ack_file->c_str());
      return 1;
    }
  }

  if (args.Has("compact") || compact_threshold > 0) {
    bccs::CompactorOptions copt;
    if (compact_threshold > 0) {
      copt.threshold_segments = static_cast<std::size_t>(compact_threshold);
    }
    bccs::Compactor::State cstate{updated, repaired, source};
    bccs::Compactor compactor(*recovered->log, [&cstate] { return cstate; }, copt);
    bccs::Timer fold_timer;
    bool folded = false;
    if (!compactor.RunOnce(args.Has("compact"), &error, &folded)) {
      std::fprintf(stderr, "compaction failed: %s\n", error.c_str());
      return 1;
    }
    if (folded) {
      std::uint64_t folded_seq = 0;
      {
        bccs::MutexLock commit(recovered->log->commit_mutex());
        folded_seq = recovered->log->sealed_seq();
      }
      std::printf("compacted: folded segments through %llu into %s in %.4fs\n",
                  static_cast<unsigned long long>(folded_seq), snapshot_path->c_str(),
                  fold_timer.Seconds());
    }
  }

  if (!args.Has("no-verify")) {
    bccs::Timer verify_timer;
    if (!VerifyReload(*updated, *repaired, *snapshot_path)) return 1;
    std::printf("verify: snapshot reload matches the updated index (%.4fs)\n",
                verify_timer.Seconds());
  }

  if (args.Has("validate")) {
    bccs::Timer validate_timer;
    if (bccs::ValidationResult r = bccs::ValidateGraph(*updated); !r.ok) {
      std::fprintf(stderr, "validate: graph audit failed: %s\n", r.reason.c_str());
      return 1;
    }
    if (bccs::ValidationResult r = bccs::ValidateIndex(*repaired); !r.ok) {
      std::fprintf(stderr, "validate: index audit failed: %s\n", r.reason.c_str());
      return 1;
    }
    // The chain audit re-reads the watermark from the (possibly compacted)
    // snapshot header rather than trusting this process's view.
    std::uint64_t watermark = 0;
    std::string peek_error;
    if (auto peeked = bccs::LoadSnapshot(*snapshot_path, &peek_error)) {
      watermark = peeked->base_changelog_seq;
    } else {
      std::fprintf(stderr, "validate: cannot reload snapshot: %s\n", peek_error.c_str());
      return 1;
    }
    if (bccs::ValidationResult r = bccs::ValidateChangelogChain(*snapshot_path, watermark);
        !r.ok) {
      std::fprintf(stderr, "validate: changelog audit failed: %s\n", r.reason.c_str());
      return 1;
    }
    std::printf("validate: graph, index, and changelog audits passed (%.4fs)\n",
                validate_timer.Seconds());
  }
  return 0;
}
