#include "graph/snapshot.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bcc/local_search.h"
#include "bcc/online_search.h"
#include "eval/batch_runner.h"
#include "eval/query_gen.h"
#include "graph/generators.h"
#include "test_util.h"

namespace bccs {
namespace {

PlantedGraph MakePlanted(std::size_t communities = 6, std::size_t labels = 3) {
  PlantedConfig cfg;
  cfg.num_communities = communities;
  cfg.groups_per_community = labels;
  cfg.num_labels = labels;
  cfg.min_group_size = 8;
  cfg.max_group_size = 12;
  cfg.seed = 13;
  return GeneratePlanted(cfg);
}

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

void ExpectSameGraph(const LabeledGraph& a, const LabeledGraph& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  ASSERT_EQ(a.NumLabels(), b.NumLabels());
  EXPECT_EQ(a.MaxDegree(), b.MaxDegree());
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    EXPECT_EQ(a.LabelOf(v), b.LabelOf(v));
    auto na = a.Neighbors(v);
    auto nb = b.Neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin()));
  }
  for (Label l = 0; l < a.NumLabels(); ++l) {
    auto ma = a.VerticesWithLabel(l);
    auto mb = b.VerticesWithLabel(l);
    ASSERT_EQ(ma.size(), mb.size());
    EXPECT_TRUE(std::equal(ma.begin(), ma.end(), mb.begin()));
  }
}

void ExpectSameIndex(const BcIndex& a, const BcIndex& b) {
  const LabeledGraph& g = a.graph();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(a.Coreness(v), b.Coreness(v));
  }
  for (Label l = 0; l < g.NumLabels(); ++l) {
    EXPECT_EQ(a.MaxCoreness(l), b.MaxCoreness(l));
  }
  EXPECT_EQ(a.CachedPairCount(), b.CachedPairCount());
  a.ForEachCachedPair([&](Label la, Label lb, const ButterflyCounts& ca) {
    const ButterflyCounts& cb = b.PairButterflies(la, lb);
    EXPECT_EQ(ca.total, cb.total);
    EXPECT_EQ(ca.max_left, cb.max_left);
    EXPECT_EQ(ca.max_right, cb.max_right);
    EXPECT_EQ(ca.argmax_left, cb.argmax_left);
    EXPECT_EQ(ca.argmax_right, cb.argmax_right);
    EXPECT_EQ(ca.chi, cb.chi);
  });
}

TEST(SnapshotTest, RoundTripIsBitIdentical) {
  PlantedGraph pg = MakePlanted();
  BcIndex built(pg.graph);
  built.MaterializeAllPairs();
  ASSERT_GT(built.CachedPairCount(), 0u);

  const std::string path = TempPath("roundtrip.snap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(built, path, &error)) << error;

  auto loaded = LoadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(loaded->loaded_from_snapshot);
  EXPECT_GT(loaded->snapshot_bytes, 0u);
  ExpectSameGraph(pg.graph, *loaded->graph);
  ExpectSameIndex(built, *loaded->index);
  std::remove(path.c_str());
}

TEST(SnapshotTest, LoadedIndexAnswersQueriesIdentically) {
  PlantedGraph pg = MakePlanted();
  BcIndex built(pg.graph);
  built.MaterializeAllPairs();
  const std::string path = TempPath("queries.snap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(built, path, &error)) << error;
  auto loaded = LoadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  std::remove(path.c_str());

  QueryGenConfig qcfg;
  auto gt = SampleGroundTruthQueries(pg, 24, qcfg);
  ASSERT_FALSE(gt.empty());
  BccParams params;  // auto k, b = 1
  std::size_t non_empty = 0;
  for (const auto& q : gt) {
    // LP-BCC / Online-BCC depend only on the graph; L2P also on the index.
    Community lp_a = LpBcc(pg.graph, q.query, params);
    Community lp_b = LpBcc(*loaded->graph, q.query, params);
    EXPECT_EQ(lp_a.vertices, lp_b.vertices);
    Community on_a = OnlineBcc(pg.graph, q.query, params);
    Community on_b = OnlineBcc(*loaded->graph, q.query, params);
    EXPECT_EQ(on_a.vertices, on_b.vertices);
    Community l2p_a = L2pBcc(pg.graph, built, q.query, params);
    Community l2p_b = L2pBcc(*loaded->graph, *loaded->index, q.query, params);
    EXPECT_EQ(l2p_a.vertices, l2p_b.vertices);
    non_empty += lp_a.Empty() ? 0 : 1;
  }
  EXPECT_GT(non_empty, 0u);
}

TEST(SnapshotTest, BatchRunnerSharesOneLoadedIndexAcrossWorkers) {
  PlantedGraph pg = MakePlanted();
  BcIndex built(pg.graph);
  built.MaterializeAllPairs();
  const std::string path = TempPath("batch.snap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(built, path, &error)) << error;
  auto loaded = LoadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  std::remove(path.c_str());

  QueryGenConfig qcfg;
  auto gt = SampleGroundTruthQueries(pg, 32, qcfg);
  std::vector<BccQuery> queries;
  for (const auto& q : gt) queries.push_back(q.query);
  BccParams params;

  BatchRunner seq(1);
  BatchRunner par(4);
  BatchResult a = seq.RunL2pBatch(pg.graph, built, queries, params);
  BatchResult b = par.RunL2pBatch(*loaded->graph, *loaded->index, queries, params);
  ASSERT_EQ(a.communities.size(), b.communities.size());
  for (std::size_t i = 0; i < a.communities.size(); ++i) {
    EXPECT_EQ(a.communities[i].vertices, b.communities[i].vertices);
  }
}

TEST(SnapshotTest, LazyPairsStillComputeAfterLoad) {
  // A snapshot saved with no materialized pairs must still serve L2P: pairs
  // fault in lazily against the mapped graph.
  PlantedGraph pg = MakePlanted(4, 2);
  BcIndex built(pg.graph);  // no MaterializeAllPairs
  const std::string path = TempPath("lazy.snap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(built, path, &error)) << error;
  auto loaded = LoadSnapshot(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  std::remove(path.c_str());
  EXPECT_EQ(loaded->index->CachedPairCount(), 0u);
  const ButterflyCounts& fresh = built.PairButterflies(0, 1);
  const ButterflyCounts& lazy = loaded->index->PairButterflies(0, 1);
  EXPECT_EQ(fresh.total, lazy.total);
  EXPECT_EQ(fresh.chi, lazy.chi);
}

TEST(SnapshotTest, BuildOrLoadBuildsThenLoads) {
  PlantedGraph pg = MakePlanted(4, 2);
  const std::string path = TempPath("build_or_load.snap");
  std::remove(path.c_str());

  std::string error;
  SnapshotBundle first = BcIndex::BuildOrLoad(pg.graph, path, &error);
  EXPECT_FALSE(first.loaded_from_snapshot);
  EXPECT_GT(first.snapshot_bytes, 0u) << error;
  ASSERT_NE(first.index, nullptr);
  EXPECT_GT(first.index->CachedPairCount(), 0u);  // materialized before save

  SnapshotBundle second = BcIndex::BuildOrLoad(pg.graph, path, &error);
  EXPECT_TRUE(second.loaded_from_snapshot) << error;
  ExpectSameGraph(*first.graph, *second.graph);
  ExpectSameIndex(*first.index, *second.index);
  std::remove(path.c_str());
}

TEST(SnapshotTest, BuildOrLoadRebuildsWhenSourceChanges) {
  PlantedGraph pg = MakePlanted(4, 2);
  const std::string path = TempPath("build_or_load_stale.snap");
  std::remove(path.c_str());

  std::string error;
  const SourceGraphInfo v1{100, 200};
  SnapshotBundle first = BcIndex::BuildOrLoad(pg.graph, path, &error, v1);
  EXPECT_FALSE(first.loaded_from_snapshot);
  SnapshotBundle again = BcIndex::BuildOrLoad(pg.graph, path, &error, v1);
  EXPECT_TRUE(again.loaded_from_snapshot) << error;

  // A changed source identity makes the snapshot stale: rebuilt and
  // restamped, after which loads succeed again.
  const SourceGraphInfo v2{101, 201};
  SnapshotBundle rebuilt = BcIndex::BuildOrLoad(pg.graph, path, &error, v2);
  EXPECT_FALSE(rebuilt.loaded_from_snapshot);
  SnapshotBundle reloaded = BcIndex::BuildOrLoad(pg.graph, path, &error, v2);
  EXPECT_TRUE(reloaded.loaded_from_snapshot) << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, StatSourceGraphTracksFileChanges) {
  const std::string path = TempPath("stat_source.txt");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "v 0 0\n";
  }
  const SourceGraphInfo a = StatSourceGraph(path);
  EXPECT_TRUE(a.Known());
  {
    std::ofstream out(path, std::ios::app);
    out << "v 1 0\n";
  }
  const SourceGraphInfo b = StatSourceGraph(path);
  EXPECT_TRUE(b.Known());
  EXPECT_FALSE(a == b);  // size changed
  EXPECT_FALSE(StatSourceGraph(path + ".absent").Known());
  std::remove(path.c_str());
}

class SnapshotRejectionTest : public ::testing::Test {
 protected:
  // Mirrors the on-disk constants in snapshot.cc: the 88-byte v3 header and
  // the 64-byte section alignment (so the first section starts at 128).
  static constexpr std::size_t kHeaderBytes = 88;
  static std::size_t Align64(std::size_t o) { return (o + 63) / 64 * 64; }

  void SetUp() override {
    PlantedGraph pg = MakePlanted(3, 2);
    graph_ = std::make_unique<LabeledGraph>(pg.graph);
    BcIndex index(*graph_);
    index.MaterializeAllPairs();
    path_ = TempPath("reject.snap");
    std::string error;
    ASSERT_TRUE(SaveSnapshot(index, path_, &error)) << error;
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), kHeaderBytes);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  void WriteBytes(const std::string& data) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  /// Expect the load to reject, with the reason mentioning `needle`.
  void ExpectRejected(const std::string& needle) {
    std::string error;
    EXPECT_FALSE(LoadSnapshot(path_, &error).has_value());
    EXPECT_NE(error.find(needle), std::string::npos) << error;
  }

  /// Byte offset of the first SnapshotPairEntry (walks the 64-byte-aligned
  /// section layout up to the pair table).
  std::size_t FirstPairEntryOffset() const {
    const std::size_t n = graph_->NumVertices();
    const std::size_t m2 = 2 * graph_->NumEdges();
    const std::size_t num_labels = graph_->NumLabels();
    std::size_t off = kHeaderBytes;
    off = Align64(off) + (n + 1) * 8;   // offsets
    off = Align64(off) + m2 * 4;        // adjacency
    off = Align64(off) + n * 4;         // labels
    off = Align64(off) + (num_labels + 1) * 8;  // label_offsets
    off = Align64(off) + n * 4;         // label_members
    off = Align64(off) + n * 4;         // coreness
    off = Align64(off) + num_labels * 4;  // max_core_per_label
    return Align64(off);
  }

  std::unique_ptr<LabeledGraph> graph_;
  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotRejectionTest, MissingFile) {
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path_ + ".absent", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST_F(SnapshotRejectionTest, TruncatedHeader) {
  WriteBytes(bytes_.substr(0, 40));
  ExpectRejected("truncated");
  // An empty file has nothing to map; it is rejected the same way.
  WriteBytes("");
  ExpectRejected("truncated");
}

TEST_F(SnapshotRejectionTest, TruncatedPayload) {
  WriteBytes(bytes_.substr(0, bytes_.size() - 9));
  ExpectRejected("truncated");
}

TEST_F(SnapshotRejectionTest, TrailingGarbage) {
  // The file ends where the payload does; updates live in the changelog.
  WriteBytes(bytes_ + "extra");
  ExpectRejected("trailing bytes");
}

TEST_F(SnapshotRejectionTest, LegacyDeltaChainNamesTheRemedy) {
  // An older writer's in-file delta chain: one 40-byte block header with
  // magic "BCCSDLT1" and zero entries. It is rejected by name, with the
  // rebuild remedy, rather than as anonymous garbage.
  std::string block(40, '\0');
  block.replace(0, 8, "BCCSDLT1");
  WriteBytes(bytes_ + block);
  ExpectRejected("legacy in-file delta chain");
  ExpectRejected("bccs_build");
}

TEST_F(SnapshotRejectionTest, BadMagic) {
  std::string corrupt = bytes_;
  corrupt[0] = 'X';
  WriteBytes(corrupt);
  ExpectRejected("magic");
}

TEST_F(SnapshotRejectionTest, WrongVersion) {
  std::string corrupt = bytes_;
  corrupt[8] = static_cast<char>(kSnapshotFormatVersion + 1);  // version field
  WriteBytes(corrupt);
  ExpectRejected("version");
}

TEST_F(SnapshotRejectionTest, ChecksumMismatch) {
  std::string corrupt = bytes_;
  corrupt[bytes_.size() - 1] = static_cast<char>(corrupt[bytes_.size() - 1] ^ 0x5a);
  WriteBytes(corrupt);
  ExpectRejected("checksum");
}

TEST_F(SnapshotRejectionTest, StructuralChecksCatchOutOfRangeAdjacency) {
  // Even with checksum verification off, values used as indices must be
  // range-checked: plant an out-of-range vertex id in the adjacency section
  // (which starts 64-byte aligned after the (n+1)*8-byte offsets section).
  const std::size_t offsets_end = Align64(kHeaderBytes) + (graph_->NumVertices() + 1) * 8;
  const std::size_t adjacency_off = Align64(offsets_end);
  std::string corrupt = bytes_;
  ASSERT_LT(adjacency_off + 4, corrupt.size());
  for (std::size_t i = 0; i < 4; ++i) corrupt[adjacency_off + i] = '\xff';
  WriteBytes(corrupt);
  for (bool verify : {true, false}) {
    SnapshotLoadOptions opts;
    opts.verify_checksum = verify;
    std::string error;
    EXPECT_FALSE(LoadSnapshot(path_, &error, opts).has_value());
    if (!verify) {
      EXPECT_NE(error.find("adjacency"), std::string::npos) << error;
    }
  }
}

TEST_F(SnapshotRejectionTest, MaxDegreeHeaderCorruptionRejected) {
  // max_degree lives at header bytes 48-55 and is outside the payload
  // checksum; the loader must cross-check it against the offsets.
  std::string corrupt = bytes_;
  corrupt[48] = static_cast<char>(corrupt[48] ^ 0x01);
  WriteBytes(corrupt);
  ExpectRejected("max degree");
}

TEST_F(SnapshotRejectionTest, OutOfGroupPairArgmaxRejected) {
  // Plant an argmax_left that is no group member (it indexes chi at query
  // time); pair-entry field offset: label_a 0, label_b 4, chi_len 8,
  // total 16, max_left 24, max_right 32, argmax_left 40.
  const std::size_t argmax_left_off = FirstPairEntryOffset() + 40;

  std::string corrupt = bytes_;
  ASSERT_LT(argmax_left_off + 4, corrupt.size());
  corrupt[argmax_left_off] = '\xfe';
  corrupt[argmax_left_off + 1] = '\xff';
  corrupt[argmax_left_off + 2] = '\xff';
  corrupt[argmax_left_off + 3] = '\xff';
  WriteBytes(corrupt);
  SnapshotLoadOptions opts;
  opts.verify_checksum = false;  // structural check must catch it on its own
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path_, &error, opts).has_value());
  EXPECT_NE(error.find("argmax"), std::string::npos) << error;
}

TEST_F(SnapshotRejectionTest, ChiLenSumOverflowRejected) {
  // Regression: add 2^61 to the first pair's chi_len. The chi_total sum then
  // wraps 2^64 (2^61 * 8 == 0 mod 2^64), so the whole-file expected-size
  // check still passes, but reading chi_len*8 bytes for that pair would run
  // ~2^64 bytes past EOF — the loader must reject on the per-entry bound.
  const std::size_t chi_len_off = FirstPairEntryOffset() + 8;
  std::string corrupt = bytes_;
  ASSERT_LT(chi_len_off + 8, corrupt.size());
  corrupt[chi_len_off + 7] = '\x20';  // top byte of the little-endian uint64
  WriteBytes(corrupt);
  SnapshotLoadOptions opts;
  opts.verify_checksum = false;  // the size checks must catch it on their own
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path_, &error, opts).has_value());
  EXPECT_NE(error.find("chi lengths"), std::string::npos) << error;
}

TEST_F(SnapshotRejectionTest, StaleSourceGraphRejected) {
  const SourceGraphInfo source{1234, 5678};
  std::string error;
  {
    BcIndex index(*graph_);
    index.MaterializeAllPairs();
    ASSERT_TRUE(SaveSnapshot(index, path_, &error, source)) << error;
  }

  SnapshotLoadOptions opts;
  opts.expected_source = source;  // matching stamp loads
  EXPECT_TRUE(LoadSnapshot(path_, &error, opts).has_value()) << error;

  opts.expected_source = {source.size_bytes + 1, source.mtime_ns};  // graph grew
  EXPECT_FALSE(LoadSnapshot(path_, &error, opts).has_value());
  EXPECT_NE(error.find("stale"), std::string::npos) << error;
  opts.expected_source = {source.size_bytes, source.mtime_ns + 1};  // graph touched
  EXPECT_FALSE(LoadSnapshot(path_, &error, opts).has_value());
  EXPECT_NE(error.find("stale"), std::string::npos) << error;

  opts.expected_source = {};  // caller without a graph file: no check
  EXPECT_TRUE(LoadSnapshot(path_, &error, opts).has_value()) << error;
}

TEST_F(SnapshotRejectionTest, UnstampedSnapshotSkipsStalenessCheck) {
  // The fixture snapshot was saved without a source stamp (in-memory graph):
  // an expected_source cannot prove it stale, so it still loads.
  SnapshotLoadOptions opts;
  opts.expected_source = {1234, 5678};
  std::string error;
  EXPECT_TRUE(LoadSnapshot(path_, &error, opts).has_value()) << error;
}

TEST_F(SnapshotRejectionTest, ChecksumCanBeSkipped) {
  // Same corruption as ChecksumMismatch, but verification disabled: the
  // structural checks alone accept the file (the flipped chi byte is data).
  std::string corrupt = bytes_;
  corrupt[bytes_.size() - 1] = static_cast<char>(corrupt[bytes_.size() - 1] ^ 0x5a);
  WriteBytes(corrupt);
  SnapshotLoadOptions opts;
  opts.verify_checksum = false;
  std::string error;
  EXPECT_TRUE(LoadSnapshot(path_, &error, opts).has_value()) << error;
}

}  // namespace
}  // namespace bccs
