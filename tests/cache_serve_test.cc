// Caching layer: BcIndex's lazily filled pair and forest tables, the
// epoch-keyed result cache, and their serving-engine wiring.
// The load-bearing property is DESIGN.md serving contract 6: a cache hit is
// indistinguishable from re-executing the query at its pinned epoch —
// mixed query/update streams must answer bit-identically with the cache on
// and off, including epoch_of. The concurrency stress tests are
// mutex-based throughout and run under the `sanitize` ctest label
// (ASan+UBSan and TSan presets).

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "bcc/bc_index.h"
#include "eval/query_gen.h"
#include "eval/result_cache.h"
#include "eval/serve_engine.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"

namespace bccs {
namespace {

PlantedGraph MakeGraph(std::size_t communities = 5, std::uint64_t seed = 77,
                       std::size_t num_labels = 3) {
  PlantedConfig cfg;
  cfg.num_communities = communities;
  cfg.groups_per_community = 3;  // enough groups for 3-vertex mBCC queries
  cfg.num_labels = num_labels;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.intra_edge_prob = 0.5;
  cfg.seed = seed;
  return GeneratePlanted(cfg);
}

std::vector<BccQuery> SampleQueries(const PlantedGraph& pg, std::size_t count) {
  QueryGenConfig qcfg;
  std::vector<GroundTruthQuery> gt = SampleGroundTruthQueries(pg, count, qcfg);
  std::vector<BccQuery> out;
  for (const auto& g : gt) out.push_back(g.query);
  return out;
}

// --------------------------------------------------------------------------
// BcIndex pair table: lazily filled, first insert wins.
// --------------------------------------------------------------------------

// Threads that fault the same pairs in concurrently (half of them asking
// with the labels swapped) converge on one resident block per pair, whose
// counts equal an eagerly materialized index, and every call is counted as
// exactly one hit or miss.
TEST(PairTableTest, ConcurrentFaultsConvergeOnOneBlock) {
  PlantedGraph pg = MakeGraph(6, 21, /*num_labels=*/6);
  const auto num_labels = static_cast<Label>(pg.graph.NumLabels());
  BcIndex fresh(pg.graph);
  fresh.MaterializeAllPairs();
  BcIndex lazy(pg.graph);

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<const ButterflyCounts*>> seen(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        for (Label a = 0; a + 1 < num_labels; ++a) {
          for (Label b = a + 1; b < num_labels; ++b) {
            const ButterflyCounts& got =
                t % 2 == 0 ? lazy.PairButterflies(a, b) : lazy.PairButterflies(b, a);
            if (round == 0) seen[t].push_back(&got);
          }
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  std::size_t i = 0;
  for (Label a = 0; a + 1 < num_labels; ++a) {
    for (Label b = a + 1; b < num_labels; ++b, ++i) {
      const ButterflyCounts* block = seen[0][i];
      for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][i], block) << a << "," << b;
      EXPECT_EQ(&lazy.PairButterflies(a, b), block);
      const ButterflyCounts& want = fresh.PairButterflies(a, b);
      EXPECT_EQ(block->total, want.total) << a << "," << b;
      EXPECT_EQ(block->chi, want.chi) << a << "," << b;
    }
  }
  const std::size_t pairs = i;
  EXPECT_EQ(lazy.CachedPairCount(), pairs);
  const BlockCacheStats s = lazy.PairCacheStats();
  EXPECT_EQ(s.entries, pairs);
  EXPECT_EQ(s.hits + s.misses, kThreads * kRounds * pairs + pairs);
  EXPECT_GE(s.misses, pairs);
}

// Threads that make the first use of one label's core forest at once
// converge on one resident forest, and every component they read from it
// equals a fresh index's.
TEST(ForestTableTest, ConcurrentFirstUseConvergesOnOneForest) {
  PlantedGraph pg = MakeGraph(6, 23);
  const LabeledGraph& g = pg.graph;
  const auto group = g.VerticesWithLabel(0);
  BcIndex fresh(g);
  const CoreForest& want_forest = fresh.LabelForest(0);
  BcIndex lazy(g);

  constexpr int kThreads = 4;
  std::vector<const CoreForest*> seen(kThreads, nullptr);
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const CoreForest& forest = lazy.LabelForest(0);
      seen[t] = &forest;
      std::vector<VertexId> got, want;
      for (VertexId q : group) {
        for (std::uint32_t k = 1; k <= lazy.Coreness(q); ++k) {
          forest.Component(group, q, k, &got);
          want_forest.Component(group, q, k, &want);
          mismatches[t] += got != want;
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], &lazy.LabelForest(0)) << "thread " << t;
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
  EXPECT_EQ(lazy.ForestCount(), 1u);
}

// --------------------------------------------------------------------------
// ResultCache: the epoch-window validity rule.
// --------------------------------------------------------------------------

ResultCacheKey MakeKey(VertexId ql, VertexId qr) {
  ResultCacheKey key;
  key.method = 1;
  key.vertices = {ql, qr};
  key.ks = {0, 0};
  key.b = 1;
  return key;
}

TEST(ResultCacheTest, EpochWindowRule) {
  ResultCache cache(64);
  const ResultCacheKey key = MakeKey(3, 9);
  const std::vector<Label> labels = {0, 1};
  Community community;
  community.vertices = {3, 5, 9};
  SearchStats stats;

  Community got;
  SearchStats got_stats;
  // Cold miss, then insert at epoch 1.
  EXPECT_FALSE(cache.Lookup(key, 1, 0, &got, &got_stats));
  cache.Insert(key, labels, 1, community, stats);

  // Valid at its own epoch and any later epoch while untouched.
  EXPECT_TRUE(cache.Lookup(key, 1, 0, &got, &got_stats));
  EXPECT_EQ(got, community);
  EXPECT_TRUE(cache.Lookup(key, 5, 1, &got, &got_stats));

  // A cross repair of an unrelated pair does not invalidate it...
  const std::vector<std::pair<Label, Label>> other_pair = {{2, 3}};
  cache.NoteRepairs({}, other_pair, 6);
  EXPECT_TRUE(cache.Lookup(key, 6, 0, &got, &got_stats));

  // ...but a repair of the entry's own pair after its compute epoch does.
  const std::vector<std::pair<Label, Label>> own_pair = {{0, 1}};
  cache.NoteRepairs({}, own_pair, 7);
  EXPECT_FALSE(cache.Lookup(key, 7, 0, &got, &got_stats));
  EXPECT_EQ(cache.Stats().stale_drops, 1u);

  // An insert that lost the race with that repair is rejected.
  cache.Insert(key, labels, 6, community, stats);
  EXPECT_EQ(cache.Stats().rejected_inserts, 1u);
  EXPECT_FALSE(cache.Lookup(key, 7, 0, &got, &got_stats));

  // Recomputed at epoch 8 it is valid again — but never for a query still
  // pinned before its compute epoch.
  cache.Insert(key, labels, 8, community, stats);
  EXPECT_FALSE(cache.Lookup(key, 7, 0, &got, &got_stats));
  EXPECT_TRUE(cache.Lookup(key, 8, 0, &got, &got_stats));

  // An intra-label repair of one of the entry's labels invalidates too.
  const std::vector<Label> intra = {1};
  cache.NoteRepairs(intra, {}, 9);
  EXPECT_FALSE(cache.Lookup(key, 9, 0, &got, &got_stats));

  const ResultCacheStats s = cache.Stats();
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.stale_drops, 2u);
  EXPECT_EQ(s.lane_hits[0] + s.lane_hits[1], s.hits);
}

// Capacity is enforced per shard with LRU eviction.
TEST(ResultCacheTest, EvictsAtCapacity) {
  ResultCache cache(8);  // one entry per shard
  Community community;
  community.vertices = {1};
  SearchStats stats;
  const std::vector<Label> labels = {0};
  for (VertexId v = 0; v < 64; ++v) {
    cache.Insert(MakeKey(v, v + 1), labels, 1, community, stats);
  }
  const ResultCacheStats s = cache.Stats();
  EXPECT_EQ(s.insertions, 64u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.entries, s.capacity);
}

// Concurrent lookups, inserts, and invalidations: exercised for the
// sanitizer presets (TSan race-freedom, ASan/UBSan memory safety). The
// only assertion is that every observed hit carries a community consistent
// with what some insert stored for that key.
TEST(ResultCacheTest, ConcurrentHitMissInvalidate) {
  ResultCache cache(128);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::atomic<bool> bad{false};

  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &bad, t] {
      SearchStats stats;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto v = static_cast<VertexId>((t * 7 + i) % 32);
        const ResultCacheKey key = MakeKey(v, v + 1);
        const std::vector<Label> labels = {static_cast<Label>(v % 4)};
        Community community;
        community.vertices = {v};
        Community got;
        SearchStats got_stats;
        if (cache.Lookup(key, /*query_epoch=*/1000, static_cast<std::size_t>(t % 2), &got,
                         &got_stats)) {
          if (got.vertices != community.vertices) bad.store(true);
        } else {
          cache.Insert(key, labels, /*compute_epoch=*/1, community, stats);
        }
      }
    });
  }
  workers.emplace_back([&cache] {
    for (std::uint64_t epoch = 2; epoch < 100; ++epoch) {
      const std::vector<Label> intra = {static_cast<Label>(epoch % 4)};
      cache.NoteRepairs(intra, {}, epoch);
    }
  });
  for (auto& w : workers) w.join();
  EXPECT_FALSE(bad.load());
  const ResultCacheStats s = cache.Stats();
  EXPECT_EQ(s.hits + s.misses,
            static_cast<std::uint64_t>(kThreads) * static_cast<std::uint64_t>(kOpsPerThread));
}

// --------------------------------------------------------------------------
// ServeEngine wiring: contract 6 end to end.
// --------------------------------------------------------------------------

std::vector<ServeItem> MixedStream(const PlantedGraph& pg,
                                   std::span<const BccQuery> queries) {
  std::vector<Edge> edges = pg.graph.AllEdges();
  std::vector<ServeItem> items;
  // Three passes over the query pool with an update between passes: pass 2
  // re-asks pass 1's queries (hits or stale recomputes), and the deleted
  // edge comes back before pass 3 (answers really change in between).
  for (std::size_t pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      QueryRequest req;
      req.query = queries[i];
      req.method = QueryMethod::kLpBcc;
      req.lane = i % 3 == 0 ? Lane::kInteractive : Lane::kBulk;
      items.emplace_back(req);
    }
    if (pass + 1 < 3) {
      UpdateRequest update;
      if (pass == 0) {
        update.updates.push_back({EdgeUpdateKind::kDelete, edges[0]});
      } else {
        update.updates.push_back({EdgeUpdateKind::kInsert, edges[0]});
      }
      items.emplace_back(update);
    }
  }
  return items;
}

// The acceptance criterion of the PR: a mixed query/update stream answers
// bit-identically (communities AND epoch_of) with the result cache on and
// off, while the cached run actually serves hits and drops stale entries.
TEST(CacheServeTest, MixedStreamBitIdenticalToUncached) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 8);
  ASSERT_FALSE(queries.empty());
  std::vector<ServeItem> items = MixedStream(pg, queries);

  BatchRunner runner(4);
  ServeEngine uncached(runner, pg.graph);
  BatchResult off = uncached.RunStream(items);

  ServeOptions opts;
  opts.result_cache_entries = 64;
  ServeEngine cached(runner, pg.graph, nullptr, opts);
  BatchResult on = cached.RunStream(items);

  ASSERT_EQ(off.communities.size(), on.communities.size());
  for (std::size_t i = 0; i < off.communities.size(); ++i) {
    EXPECT_EQ(off.communities[i].vertices, on.communities[i].vertices) << "item " << i;
  }
  EXPECT_EQ(off.epoch_of, on.epoch_of);
  EXPECT_FALSE(off.result_cache_enabled);
  EXPECT_TRUE(on.result_cache_enabled);

  const ResultCacheStats s = on.result_cache;
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.misses, 0u);
  // The deleted edge's label pair invalidated at least one stored answer.
  EXPECT_GT(s.stale_drops + s.rejected_inserts, 0u);
}

// An update whose labels are disjoint from a cached entry's labels must NOT
// invalidate it: the re-asked query is a hit, served at the new epoch, with
// the pre-update (== post-update, for this query) answer.
TEST(CacheServeTest, HitsCarryForwardAcrossUnrelatedUpdates) {
  PlantedGraph pg = MakeGraph(6, 31, /*num_labels=*/6);
  std::vector<BccQuery> queries = SampleQueries(pg, 8);
  ASSERT_FALSE(queries.empty());
  const BccQuery q = queries.front();
  const Label la = pg.graph.LabelOf(q.ql);
  const Label lb = pg.graph.LabelOf(q.qr);

  // An existing edge with both endpoint labels outside the query's labels.
  Edge unrelated{kInvalidVertex, kInvalidVertex};
  for (const Edge& e : pg.graph.AllEdges()) {
    const Label eu = pg.graph.LabelOf(e.u);
    const Label ev = pg.graph.LabelOf(e.v);
    if (eu != la && eu != lb && ev != la && ev != lb) {
      unrelated = e;
      break;
    }
  }
  ASSERT_NE(unrelated.u, kInvalidVertex) << "planted graph has no label-disjoint edge";

  QueryRequest req;
  req.query = q;
  req.method = QueryMethod::kLpBcc;
  UpdateRequest update;
  update.updates.push_back({EdgeUpdateKind::kDelete, unrelated});

  std::vector<ServeItem> items;
  items.emplace_back(req);     // epoch 1: miss + insert
  items.emplace_back(update);  // publishes epoch 2
  items.emplace_back(req);     // epoch 2: must be a carried-forward hit

  BatchRunner runner(1);
  ServeOptions opts;
  opts.result_cache_entries = 16;
  ServeEngine engine(runner, pg.graph, nullptr, opts);
  BatchResult result = engine.RunStream(items);

  EXPECT_EQ(result.epoch_of[2], 2u);
  EXPECT_EQ(result.communities[0].vertices, result.communities[2].vertices);
  const ResultCacheStats s = result.result_cache;
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.stale_drops, 0u);
}

// Deadline-bearing requests bypass the cache entirely (timing-dependent
// partial answers are not reusable).
TEST(CacheServeTest, DeadlineRequestsNotCached) {
  PlantedGraph pg = MakeGraph();
  std::vector<BccQuery> queries = SampleQueries(pg, 4);
  ASSERT_FALSE(queries.empty());

  BatchRunner runner(1);
  ServeOptions opts;
  opts.result_cache_entries = 16;
  ServeEngine engine(runner, pg.graph, nullptr, opts);

  std::vector<ServeItem> items;
  for (int rep = 0; rep < 2; ++rep) {
    QueryRequest deadline;
    deadline.query = queries[0];
    deadline.method = QueryMethod::kLpBcc;
    deadline.deadline_seconds = 30.0;  // deadline-bearing → uncacheable
    items.emplace_back(deadline);
  }
  BatchResult result = engine.RunStream(items);
  const ResultCacheStats s = result.result_cache;
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.insertions, 0u);
}

}  // namespace
}  // namespace bccs
