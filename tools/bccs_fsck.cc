// bccs_fsck: offline format and invariant checker for a persisted snapshot
// and its rotated changelog.
//
//   bccs_fsck --snapshot g.snap [--sample-pairs N] [--quiet]
//
// Read-only: nothing is repaired, truncated, or deleted — point it at live
// data freely. Four sections run in order and the tool reports each:
//
//   load       the snapshot payload checksum scan plus the changelog
//              replay (LoadSnapshot with verify_checksum on)
//   graph      CSR well-formedness of the replayed graph
//              (common/validate.h ValidateGraph)
//   index      BcIndex consistency against the graph — exact coreness
//              recomputation, butterfly recounts on --sample-pairs cached
//              pairs (default 4, 0 = skip recounts)
//   changelog  chain invariants of the on-disk segments against the
//              snapshot's watermark (ValidateChangelogChain)
//
// Exit codes, distinct per failing section so scripts can triage:
//   0  clean
//   2  usage error
//   3  snapshot load / checksum failure
//   4  graph invariant violation
//   5  index invariant violation
//   6  changelog chain violation

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/validate.h"
#include "eval/timer.h"
#include "graph/changelog.h"
#include "graph/snapshot.h"
#include "tools/arg_parser.h"

namespace {

constexpr int kExitUsage = 2;
constexpr int kExitLoad = 3;
constexpr int kExitGraph = 4;
constexpr int kExitIndex = 5;
constexpr int kExitChangelog = 6;

void PrintUsage() {
  std::fprintf(stderr, "usage: bccs_fsck --snapshot FILE [--sample-pairs N] [--quiet]\n");
}

struct Reporter {
  bool quiet = false;

  void Section(const char* name, const char* detail, double seconds) const {
    if (quiet) return;
    std::printf("%-9s ok: %s (%.4fs)\n", name, detail, seconds);
  }
  int Fail(const char* name, const std::string& reason, int code) const {
    std::fprintf(stderr, "%-9s FAILED: %s\n", name, reason.c_str());
    return code;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bccs::ArgParser args = bccs::ArgParser::Parse(argc, argv);
  auto unknown = args.UnknownFlags({"snapshot", "sample-pairs", "quiet", "help"});
  if (!unknown.empty() || args.Has("help")) {
    for (const auto& u : unknown) std::fprintf(stderr, "unknown flag: --%s\n", u.c_str());
    PrintUsage();
    return args.Has("help") ? 0 : kExitUsage;
  }
  auto snapshot_path = args.GetString("snapshot");
  if (!snapshot_path) {
    PrintUsage();
    return kExitUsage;
  }
  bool flags_valid = true;
  const std::size_t sample_pairs = static_cast<std::size_t>(
      args.GetNonNegativeIntOr("sample-pairs", 4, &flags_valid));
  if (!flags_valid) {
    std::fprintf(stderr, "--sample-pairs must be a non-negative integer\n");
    return kExitUsage;
  }
  Reporter report{args.Has("quiet")};

  // Section 1: load. verify_checksum walks the whole payload; the load also
  // replays the changelog segments, so a corrupt sealed
  // segment or a sequence gap already fails here (reported as the changelog
  // section, which is what actually broke).
  bccs::Timer load_timer;
  std::string error;
  bccs::SnapshotLoadOptions load_opts;
  load_opts.verify_checksum = true;
  auto bundle = bccs::LoadSnapshot(*snapshot_path, &error, load_opts);
  if (!bundle) {
    if (error.find("changelog") != std::string::npos) {
      return report.Fail("changelog", error, kExitChangelog);
    }
    return report.Fail("load", error, kExitLoad);
  }
  char detail[256];
  std::snprintf(detail, sizeof(detail),
                "%zu vertices, %zu edges, %zu labels, %zu replayed updates, watermark %llu",
                bundle->graph->NumVertices(), bundle->graph->NumEdges(),
                bundle->graph->NumLabels(), bundle->replayed_updates,
                static_cast<unsigned long long>(bundle->base_changelog_seq));
  report.Section("load", detail, load_timer.Seconds());

  // Section 2: graph invariants.
  bccs::Timer graph_timer;
  if (bccs::ValidationResult r = bccs::ValidateGraph(*bundle->graph); !r.ok) {
    return report.Fail("graph", r.reason, kExitGraph);
  }
  report.Section("graph", "CSR well-formed, adjacency symmetric, labels partition",
                 graph_timer.Seconds());

  // Section 3: index invariants.
  bccs::Timer index_timer;
  if (bccs::ValidationResult r = bccs::ValidateIndex(*bundle->index, sample_pairs);
      !r.ok) {
    return report.Fail("index", r.reason, kExitIndex);
  }
  std::snprintf(detail, sizeof(detail),
                "coreness exact, %zu cached pairs (%zu recounted)",
                bundle->index->CachedPairCount(),
                std::min(sample_pairs, bundle->index->CachedPairCount()));
  report.Section("index", detail, index_timer.Seconds());

  // Section 4: changelog chain against the header watermark.
  bccs::Timer chain_timer;
  if (bccs::ValidationResult r =
          bccs::ValidateChangelogChain(*snapshot_path, bundle->base_changelog_seq);
      !r.ok) {
    return report.Fail("changelog", r.reason, kExitChangelog);
  }
  std::snprintf(detail, sizeof(detail), "%zu live segments, %zu replayed changelog updates",
                bundle->changelog_segments, bundle->replayed_updates);
  report.Section("changelog", detail, chain_timer.Seconds());

  if (!report.quiet) std::printf("clean: %s\n", snapshot_path->c_str());
  return 0;
}
