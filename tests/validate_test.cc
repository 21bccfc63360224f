// Deep-audit subsystem tests (common/validate.h): every validator accepts a
// clean structure and rejects seeded corruptions with a reason naming the
// violated invariant. The corruptions go in through ValidateAccess raw
// construction (the public constructors normalize them away) or by editing
// changelog bytes on disk.

#include "common/validate.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bcc/bc_index.h"
#include "butterfly/butterfly_counting.h"
#include "graph/changelog.h"
#include "graph/graph_delta.h"
#include "test_util.h"

namespace bccs {
namespace {

namespace fs = std::filesystem;
using testing::MakeRandomGraph;

// ---------------------------------------------------------------------------
// Graph audits.
// ---------------------------------------------------------------------------

TEST(ValidateGraphTest, AcceptsCleanGraphs) {
  EXPECT_TRUE(ValidateGraph(LabeledGraph{}).ok);
  EXPECT_TRUE(ValidateGraph(testing::MakeClique(6)).ok);
  const ValidationResult r = ValidateGraph(MakeRandomGraph(60, 0.1, 3, 7));
  EXPECT_TRUE(r.ok) << r.reason;
}

// A small well-formed 3-vertex raw graph the corruption tests perturb:
// edges {0,1} and {1,2}, labels {0, 0, 1}.
struct RawParts {
  std::vector<std::uint64_t> offsets{0, 1, 3, 4};
  std::vector<VertexId> adjacency{1, 0, 2, 1};
  std::vector<Label> labels{0, 0, 1};
  std::vector<std::uint64_t> label_offsets{0, 2, 3};
  std::vector<VertexId> label_members{0, 1, 2};

  LabeledGraph Build() const {
    return ValidateAccess::RawGraph(offsets, adjacency, labels, label_offsets,
                                    label_members);
  }
};

TEST(ValidateGraphTest, AcceptsCleanRawGraph) {
  const ValidationResult r = ValidateGraph(RawParts{}.Build());
  EXPECT_TRUE(r.ok) << r.reason;
}

TEST(ValidateGraphTest, RejectsAsymmetricAdjacency) {
  RawParts parts;
  parts.adjacency[3] = 0;  // vertex 2 now claims neighbor 0; 0 has no edge back
  const ValidationResult r = ValidateGraph(parts.Build());
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("missing its reverse"), std::string::npos) << r.reason;
}

TEST(ValidateGraphTest, RejectsUnsortedAdjacency) {
  RawParts parts;
  std::swap(parts.adjacency[1], parts.adjacency[2]);  // vertex 1's list: {2, 0}
  const ValidationResult r = ValidateGraph(parts.Build());
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("not strictly ascending"), std::string::npos) << r.reason;
}

TEST(ValidateGraphTest, RejectsSelfLoop) {
  RawParts parts;
  parts.offsets = {0, 1, 2, 3};
  parts.adjacency = {1, 0, 2};  // vertex 2's only neighbor is itself
  const ValidationResult r = ValidateGraph(parts.Build());
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("self-loop"), std::string::npos) << r.reason;
}

TEST(ValidateGraphTest, RejectsOffsetAdjacencyMismatch) {
  RawParts parts;
  parts.offsets.back() = 3;  // offsets claim 3 entries, adjacency has 4
  const ValidationResult r = ValidateGraph(parts.Build());
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("adjacency has"), std::string::npos) << r.reason;
}

TEST(ValidateGraphTest, RejectsOutOfRangeNeighbor) {
  RawParts parts;
  parts.adjacency[3] = 9;
  const ValidationResult r = ValidateGraph(parts.Build());
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("out of range"), std::string::npos) << r.reason;
}

TEST(ValidateGraphTest, RejectsLabelMembershipMismatch) {
  RawParts parts;
  parts.label_offsets = {0, 1, 3};
  parts.label_members = {0, 1, 2};  // vertex 1 (label 0) listed under label 1
  const ValidationResult r = ValidateGraph(parts.Build());
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("carries label"), std::string::npos) << r.reason;
}

// ---------------------------------------------------------------------------
// Index audits.
// ---------------------------------------------------------------------------

TEST(ValidateIndexTest, AcceptsFreshIndex) {
  const LabeledGraph g = MakeRandomGraph(50, 0.12, 3, 11);
  BcIndex index(g);
  index.MaterializeAllPairs();
  const ValidationResult r = ValidateIndex(index);
  EXPECT_TRUE(r.ok) << r.reason;
}

TEST(ValidateIndexTest, AcceptsRepairedIndex) {
  const LabeledGraph g = MakeRandomGraph(40, 0.15, 2, 5);
  BcIndex index(g);
  index.MaterializeAllPairs();
  std::vector<EdgeUpdate> updates;
  for (VertexId v = 0; v < 6; ++v) {
    const Edge e{v, static_cast<VertexId>(v + 20)};
    updates.push_back({g.HasEdge(e.u, e.v) ? EdgeUpdateKind::kDelete
                                           : EdgeUpdateKind::kInsert,
                       e});
  }
  std::string error;
  const auto delta = BuildGraphDelta(g, updates, &error);
  ASSERT_TRUE(delta.has_value()) << error;
  const LabeledGraph updated = ApplyGraphDelta(g, *delta);
  const auto repaired = index.ApplyUpdates(updated, *delta);
  const ValidationResult r = ValidateIndex(*repaired);
  EXPECT_TRUE(r.ok) << r.reason;
}

TEST(ValidateIndexTest, RejectsCorruptCoreness) {
  const LabeledGraph g = MakeRandomGraph(30, 0.2, 2, 3);
  const BcIndex reference(g);
  std::vector<std::uint32_t> coreness, max_core;
  for (VertexId v = 0; v < g.NumVertices(); ++v) coreness.push_back(reference.Coreness(v));
  for (Label l = 0; l < g.NumLabels(); ++l) max_core.push_back(reference.MaxCoreness(l));

  std::vector<std::uint32_t> bad = coreness;
  bad[7] += 1;
  const auto index = ValidateAccess::RawIndex(g, bad, max_core);
  const ValidationResult r = ValidateIndex(*index);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("coreness mismatch at vertex 7"), std::string::npos)
      << r.reason;
}

TEST(ValidateIndexTest, RejectsCorruptMaxCoreness) {
  const LabeledGraph g = MakeRandomGraph(30, 0.2, 2, 3);
  const BcIndex reference(g);
  std::vector<std::uint32_t> coreness, max_core;
  for (VertexId v = 0; v < g.NumVertices(); ++v) coreness.push_back(reference.Coreness(v));
  for (Label l = 0; l < g.NumLabels(); ++l) max_core.push_back(reference.MaxCoreness(l));

  max_core[1] += 3;
  const auto index = ValidateAccess::RawIndex(g, coreness, max_core);
  const ValidationResult r = ValidateIndex(*index);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("max coreness of label 1"), std::string::npos) << r.reason;
}

TEST(ValidateIndexTest, RejectsWrongCorenessArraySize) {
  const LabeledGraph g = MakeRandomGraph(20, 0.2, 2, 9);
  const auto index =
      ValidateAccess::RawIndex(g, std::vector<std::uint32_t>(g.NumVertices() - 1, 0),
                               std::vector<std::uint32_t>(g.NumLabels(), 0));
  const ValidationResult r = ValidateIndex(*index);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("one per vertex"), std::string::npos) << r.reason;
}

TEST(ValidateIndexTest, RejectsCorruptCachedButterflies) {
  const LabeledGraph g = MakeRandomGraph(40, 0.25, 2, 13);
  BcIndex index(g);
  index.MaterializeAllPairs();
  ASSERT_TRUE(ValidateIndex(index).ok);

  ButterflyCounts bogus = index.PairButterflies(0, 1);
  bogus.total += 5;
  bogus.chi[0] += 5;
  ValidateAccess::SetCachedPair(index, 0, 1, std::move(bogus));
  const ValidationResult r = ValidateIndex(index);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("disagree with an exact recount"), std::string::npos)
      << r.reason;
}

// ---------------------------------------------------------------------------
// Changelog-chain audits (real segments written through the real writer).
// ---------------------------------------------------------------------------

class ValidateChangelogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "validate_changelog_test.snap";
    Cleanup();
  }
  void TearDown() override { Cleanup(); }

  void Cleanup() {
    std::error_code ec;
    fs::remove(path_, ec);
    RemoveChangelogSegments(path_);
  }

  /// Appends `batches` one-update batches with rotation after every record,
  /// so batch i lands sealed in segment i+1 (the last one stays the tail
  /// unless it, too, rotated).
  void WriteSegments(std::size_t batches) {
    ChangelogOptions opts;
    opts.segment_blocks = 1;
    std::string error;
    auto log = Changelog::Open(path_, 0, opts, nullptr, &error);
    ASSERT_NE(log, nullptr) << error;
    MutexLock commit(log->commit_mutex());
    for (std::size_t i = 0; i < batches; ++i) {
      const EdgeUpdate u{EdgeUpdateKind::kInsert,
                         {static_cast<VertexId>(i), static_cast<VertexId>(i + 100)}};
      ASSERT_TRUE(log->Append({&u, 1}, {}, &error)) << error;
    }
  }

  std::string SegPath(std::uint64_t seq) const {
    char buf[16];
    std::snprintf(buf, sizeof(buf), ".log.%06llu", static_cast<unsigned long long>(seq));
    return path_ + buf;
  }

  std::string path_;
};

TEST_F(ValidateChangelogTest, AcceptsCleanChain) {
  WriteSegments(3);
  const ValidationResult r = ValidateChangelogChain(path_, 0);
  EXPECT_TRUE(r.ok) << r.reason;
}

TEST_F(ValidateChangelogTest, AcceptsEmptyChain) {
  EXPECT_TRUE(ValidateChangelogChain(path_, 0).ok);
}

TEST_F(ValidateChangelogTest, RejectsSequenceGap) {
  WriteSegments(3);
  ASSERT_TRUE(fs::remove(SegPath(2)));
  const ValidationResult r = ValidateChangelogChain(path_, 0);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("changelog sequence gap"), std::string::npos) << r.reason;
}

TEST_F(ValidateChangelogTest, RejectsBitFlipInSealedSegment) {
  WriteSegments(3);
  // Flip one byte in the middle of sealed (non-tail) segment 1.
  std::fstream f(SegPath(1), std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  ASSERT_GT(size, 40);
  f.seekp(size / 2);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(size / 2);
  f.write(&byte, 1);
  f.close();

  const ValidationResult r = ValidateChangelogChain(path_, 0);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("changelog"), std::string::npos) << r.reason;
}

TEST_F(ValidateChangelogTest, RejectsStaleSegmentBelowWatermark) {
  WriteSegments(3);
  // A watermark of 2 says segments 1 and 2 are folded into the base; their
  // files still existing means a fold forgot (or resurrected) its inputs.
  const ValidationResult r = ValidateChangelogChain(path_, 2);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("stale changelog segment"), std::string::npos) << r.reason;
}

TEST_F(ValidateChangelogTest, ToleratesTornTail) {
  WriteSegments(3);
  // Chop bytes off the LAST segment: a legitimate crash artifact recovery
  // truncates away, not corruption.
  const std::string tail = SegPath(3);
  const auto size = fs::file_size(tail);
  fs::resize_file(tail, size - 5);
  const ValidationResult r = ValidateChangelogChain(path_, 0);
  EXPECT_TRUE(r.ok) << r.reason;
}

}  // namespace
}  // namespace bccs
