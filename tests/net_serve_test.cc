// Socket-level integration tests of the TCP front-end (src/net/server.h):
// a real NetServer on an ephemeral loopback port, driven by real sockets.
// THE acceptance property: a mixed query/update workload over 100
// concurrent connections returns answers bit-identical — community hash,
// size, and epoch_of — to a serialized single-stream replay of the same
// items, with every response streamed back on its originating connection
// while the server is still serving (not at drain). Plus the satellite
// guarantees: per-connection epoch views are monotone, a resent request id
// is applied exactly once (idempotent retries), the response keeper evicts
// at capacity, over-limit connections are rejected, and torn/oversize input
// closes cleanly without partial apply. Runs under the `sanitize` ctest
// label (ASan+UBSan and TSan presets).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "eval/serve_engine.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/line_protocol.h"
#include "net/server.h"

namespace bccs {
namespace {

PlantedGraph MakeGraph(std::size_t communities = 5, std::uint64_t seed = 77) {
  PlantedConfig cfg;
  cfg.num_communities = communities;
  cfg.groups_per_community = 2;
  cfg.num_labels = 3;
  cfg.min_group_size = 8;
  cfg.max_group_size = 14;
  cfg.intra_edge_prob = 0.5;
  cfg.seed = seed;
  return GeneratePlanted(cfg);
}

/// A live server over its own engine: Run() on a background thread,
/// RequestShutdown + join on Stop(). The engine/runner/graph live here so a
/// test is one object.
struct ServerHarness {
  explicit ServerHarness(const PlantedGraph& pg, NetServerOptions nopts = {},
                         std::size_t threads = 2, ServeOptions sopts = {})
      : runner(threads), engine(runner, pg.graph, nullptr, sopts), server(engine, nopts) {
    std::string error;
    if (!server.Start(&error)) {
      ADD_FAILURE() << "server start: " << error;
      return;
    }
    started = true;
    loop = std::thread([this] { result = server.Run(); });
  }

  ~ServerHarness() { Stop(); }

  const StreamSummary& Stop() {
    if (started && loop.joinable()) {
      server.RequestShutdown();
      loop.join();
    }
    return result;
  }

  NetClient Connect() {
    NetClient client;
    std::string error;
    EXPECT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
    return client;
  }

  BatchRunner runner;
  ServeEngine engine;
  NetServer server;
  std::thread loop;
  StreamSummary result;
  bool started = false;
};

/// One parsed response line of the wire protocol.
struct WireResponse {
  std::string status;  // "ok" | "rej" | "err" | "pong"
  std::uint64_t id = 0;
  char kind = '?';  // 'q' | 'u'
  std::uint64_t epoch = 0;
  std::uint64_t n = 0;          // queries: community size
  std::uint64_t hash = 0;       // queries: community hash
  std::uint64_t inserts = 0;    // updates
  std::uint64_t deletes = 0;    // updates
  std::string raw;
};

bool ParseKeyValue(const std::string& token, const std::string& key, std::uint64_t* out,
                   int base = 10) {
  if (token.rfind(key, 0) != 0) return false;
  *out = std::stoull(token.substr(key.size()), nullptr, base);
  return true;
}

WireResponse ParseResponse(const std::string& line) {
  WireResponse r;
  r.raw = line;
  std::istringstream ss(line);
  ss >> r.status;
  if (r.status == "pong" || r.status == "err") {
    if (r.status == "err") ss >> r.id;
    return r;
  }
  ss >> r.id >> r.kind;
  std::string token;
  while (ss >> token) {
    std::uint64_t v = 0;
    if (ParseKeyValue(token, "epoch=", &v)) {
      r.epoch = v;
    } else if (ParseKeyValue(token, "n=", &v)) {
      r.n = v;
    } else if (ParseKeyValue(token, "h=", &v, 16)) {
      r.hash = v;
    } else if (ParseKeyValue(token, "+", &v)) {
      r.inserts = v;
    } else if (ParseKeyValue(token, "-", &v)) {
      r.deletes = v;
    }
  }
  return r;
}

// --------------------------------------------------------------------------
// Basic roundtrips.

TEST(NetServeTest, PingQueryUpdatePipelinedRoundtrip) {
  PlantedGraph pg = MakeGraph();
  ServerHarness harness(pg);
  NetClient client = harness.Connect();

  // One packet, four requests: the server must frame and answer all of
  // them. Responses arrive in completion order; ids match them back.
  const Edge e = pg.graph.AllEdges()[0];
  ASSERT_TRUE(client.SendRaw("ping\nq 0 1 id=11\nu - " + std::to_string(e.u) + " " +
                             std::to_string(e.v) + " id=12\nq 0 1 id=13\n"));
  bool saw_pong = false;
  WireResponse q1, u1, q2;
  for (int i = 0; i < 4; ++i) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line)) << "response " << i;
    const WireResponse r = ParseResponse(line);
    if (r.status == "pong") {
      saw_pong = true;
    } else if (r.id == 11) {
      q1 = r;
    } else if (r.id == 12) {
      u1 = r;
    } else if (r.id == 13) {
      q2 = r;
    }
  }
  EXPECT_TRUE(saw_pong);
  EXPECT_EQ(q1.status, "ok");
  EXPECT_EQ(q1.kind, 'q');
  EXPECT_EQ(q1.epoch, 1u);  // admitted before the update
  EXPECT_EQ(u1.status, "ok");
  EXPECT_EQ(u1.epoch, 2u);
  EXPECT_EQ(u1.deletes, 1u);
  EXPECT_EQ(q2.epoch, 2u);  // same connection: sees its own update

  const StreamSummary& result = harness.Stop();
  EXPECT_EQ(result.items, 3u);
  EXPECT_EQ(result.updates_applied, 1u);
  EXPECT_EQ(result.updates_rejected, 0u);
}

// Responses must stream back while the server keeps serving — reading a
// completion and then submitting MORE work on the same connection proves
// the response did not wait for drain (drain only happens at shutdown).
TEST(NetServeTest, CompletionsStreamBeforeDrain) {
  PlantedGraph pg = MakeGraph();
  ServerHarness harness(pg);
  NetClient client = harness.Connect();
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(client.SendLine("q 0 1 id=" + std::to_string(round + 1)));
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line)) << "round " << round;
    const WireResponse r = ParseResponse(line);
    EXPECT_EQ(r.status, "ok");
    EXPECT_EQ(r.id, static_cast<std::uint64_t>(round + 1));
  }
  const StreamSummary& result = harness.Stop();
  EXPECT_EQ(result.items, 5u);
}

TEST(NetServeTest, MalformedLinesAnsweredConnectionStaysUsable) {
  PlantedGraph pg = MakeGraph();
  ServerHarness harness(pg);
  NetClient client = harness.Connect();
  ASSERT_TRUE(client.SendLine("frobnicate the graph"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(ParseResponse(line).status, "err");
  // The framing is still line-aligned: the next request works.
  ASSERT_TRUE(client.SendLine("ping"));
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(line, "pong");
}

TEST(NetServeTest, QuitFlushesResponsesThenCloses) {
  PlantedGraph pg = MakeGraph();
  ServerHarness harness(pg);
  NetClient client = harness.Connect();
  ASSERT_TRUE(client.SendRaw("q 0 1 id=1\nq 2 3 id=2\nquit\n"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  ASSERT_TRUE(client.ReadLine(&line));
  // Both responses delivered; now the server closes its end.
  EXPECT_FALSE(client.ReadLine(&line));
}

// --------------------------------------------------------------------------
// Engine-level streaming completions (no sockets): the Submit(callback)
// contract the server is built on.

TEST(NetServeTest, EngineCompletionsFireBeforeFinishMultiProducer) {
  PlantedGraph pg = MakeGraph();
  BatchRunner runner(2);
  ServeEngine engine(runner, pg.graph);
  ServeEngine::Stream stream = engine.OpenStream();

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 8;
  std::atomic<int> completed{0};
  std::atomic<std::uint64_t> order_violations{0};
  // Outlives the producer threads: completion callbacks run on workers
  // until Finish, long after the producers have returned.
  std::vector<std::atomic<std::uint64_t>> update_epochs(kProducers);
  std::vector<std::thread> producers;
  std::vector<Edge> edges = pg.graph.AllEdges();
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Program order per producer: delete an edge, then query — the
      // query's completion must observe an epoch at least as new as the
      // update's (the connection-scoped epoch view, DESIGN contract 7).
      std::atomic<std::uint64_t>& update_epoch = update_epochs[static_cast<std::size_t>(p)];
      UpdateRequest del;
      del.updates.push_back({EdgeUpdateKind::kDelete, edges[static_cast<std::size_t>(p)]});
      stream.Submit(std::move(del), [&completed, &update_epoch](const ItemCompletion& done) {
        update_epoch.store(done.epoch);
        completed.fetch_add(1);
      });
      for (int i = 0; i < kPerProducer - 1; ++i) {
        QueryRequest q;
        q.query = BccQuery{0, 1};
        q.lane = i % 2 == 0 ? Lane::kInteractive : Lane::kBulk;
        stream.Submit(std::move(q), [&completed, &update_epoch, &order_violations](
                                        const ItemCompletion& done) {
          // This query was submitted after the same producer's update, so
          // its pinned epoch includes that update — unless the update's own
          // callback has not stored its epoch yet (0), which is vacuously
          // fine.
          if (done.epoch < update_epoch.load()) order_violations.fetch_add(1);
          completed.fetch_add(1);
        });
      }
    });
  }
  for (auto& t : producers) t.join();

  // All completions observable BEFORE Finish: streaming, not batch.
  constexpr int kTotal = kProducers * kPerProducer;
  for (int spin = 0; spin < 20000 && completed.load() < kTotal; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(completed.load(), kTotal);

  const StreamSummary result = stream.Finish();
  EXPECT_EQ(result.items, static_cast<std::size_t>(kTotal));
  EXPECT_EQ(result.updates_applied + result.updates_rejected,
            static_cast<std::size_t>(kProducers));
  EXPECT_EQ(order_violations.load(), 0u);
}

// --------------------------------------------------------------------------
// THE acceptance test: 100 concurrent connections, mixed queries and
// updates, bit-identical to a serialized single-stream replay.

struct SentRequest {
  std::uint64_t id = 0;
  bool is_update = false;
  BccQuery query;      // queries
  Lane lane = Lane::kBulk;
  EdgeUpdate update;   // updates
  WireResponse response;
  bool got_response = false;
};

TEST(NetServeTest, HundredConnectionsMatchSerializedReplay) {
  PlantedGraph pg = MakeGraph(/*communities=*/6, /*seed=*/123);
  const std::vector<Edge> edges = pg.graph.AllEdges();
  constexpr std::size_t kConns = 100;
  constexpr std::size_t kPerConn = 4;
  ASSERT_GE(edges.size(), kConns);

  ServerHarness harness(pg, {}, /*threads=*/2);
  std::mutex merge_mutex;
  std::vector<SentRequest> all;  // merged after join
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  clients.reserve(kConns);
  for (std::size_t c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      NetClient client;
      std::string error;
      if (!client.Connect("127.0.0.1", harness.server.port(), &error)) {
        failures.fetch_add(1);
        return;
      }
      // Every 4th connection is a writer: delete its own planted edge, query,
      // re-insert it, query — program order over one connection guarantees
      // the re-insert is valid. The rest are readers on varying vertex pairs
      // and lanes.
      std::vector<SentRequest> mine;
      std::string wire;
      const std::uint64_t base = 1'000'000 + static_cast<std::uint64_t>(c) * 100;
      const std::size_t nv = pg.graph.NumVertices();
      for (std::size_t k = 0; k < kPerConn; ++k) {
        SentRequest req;
        req.id = base + k;
        if (c % 4 == 0 && k % 2 == 0) {
          req.is_update = true;
          req.update.kind = k == 0 ? EdgeUpdateKind::kDelete : EdgeUpdateKind::kInsert;
          req.update.edge = edges[c];
          wire += std::string("u ") + (k == 0 ? "-" : "+") + " " +
                  std::to_string(req.update.edge.u) + " " +
                  std::to_string(req.update.edge.v) + " id=" + std::to_string(req.id) +
                  "\n";
        } else {
          req.query = BccQuery{static_cast<VertexId>((c * 7 + k) % nv),
                               static_cast<VertexId>((c * 13 + k * 5) % nv)};
          req.lane = (c + k) % 2 == 0 ? Lane::kInteractive : Lane::kBulk;
          wire += "q " + std::to_string(req.query.ql) + " " + std::to_string(req.query.qr) +
                  (req.lane == Lane::kInteractive ? " interactive" : " bulk") +
                  " id=" + std::to_string(req.id) + "\n";
        }
        mine.push_back(req);
      }
      if (!client.SendRaw(wire)) {
        failures.fetch_add(1);
        return;
      }
      for (std::size_t k = 0; k < kPerConn; ++k) {
        std::string line;
        if (!client.ReadLine(&line, 120.0)) {
          failures.fetch_add(1);
          return;
        }
        const WireResponse r = ParseResponse(line);
        for (SentRequest& req : mine) {
          if (req.id == r.id) {
            req.response = r;
            req.got_response = true;
            break;
          }
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      for (SentRequest& req : mine) all.push_back(std::move(req));
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);
  const StreamSummary& live = harness.Stop();
  ASSERT_EQ(all.size(), kConns * kPerConn);
  ASSERT_EQ(live.items, kConns * kPerConn);

  // Every request got an "ok" response (all updates here are valid by
  // construction), and every applied update owns a unique epoch.
  std::vector<const SentRequest*> applied_updates;
  std::vector<const SentRequest*> queries;
  for (const SentRequest& req : all) {
    ASSERT_TRUE(req.got_response) << "id " << req.id;
    ASSERT_EQ(req.response.status, "ok") << req.response.raw;
    if (req.is_update) {
      applied_updates.push_back(&req);
    } else {
      queries.push_back(&req);
    }
  }
  std::sort(applied_updates.begin(), applied_updates.end(),
            [](const SentRequest* a, const SentRequest* b) {
              return a->response.epoch < b->response.epoch;
            });
  for (std::size_t i = 0; i < applied_updates.size(); ++i) {
    // Applied epochs are exactly 2, 3, ..., K+1: every publish is visible
    // and none is double-counted.
    ASSERT_EQ(applied_updates[i]->response.epoch, i + 2) << "update " << i;
  }

  // Serialized replay on a fresh single-worker engine: apply the updates in
  // epoch order; before each, run every query that reported the pre-update
  // epoch. Answers must match bit-for-bit (hash + size + epoch).
  BatchRunner replay_runner(1);
  ServeEngine replay(replay_runner, pg.graph);
  std::size_t checked = 0;
  const std::uint64_t final_epoch = applied_updates.size() + 1;
  for (std::uint64_t e = 1; e <= final_epoch; ++e) {
    for (const SentRequest* req : queries) {
      if (req->response.epoch != e) continue;
      QueryRequest q;
      q.query = req->query;
      q.lane = req->lane;
      ServeItem item = q;
      BatchResult one = replay.RunStream(std::span<const ServeItem>(&item, 1));
      ASSERT_EQ(one.epoch_of[0], e);
      EXPECT_EQ(one.communities[0].Size(), req->response.n) << "id " << req->id;
      EXPECT_EQ(CommunityHash(one.communities[0]), req->response.hash)
          << "id " << req->id << " at epoch " << e;
      ++checked;
    }
    if (e <= applied_updates.size()) {
      UpdateRequest u;
      u.updates.push_back(applied_updates[e - 1]->update);
      ServeItem item = std::move(u);
      BatchResult one = replay.RunStream(std::span<const ServeItem>(&item, 1));
      ASSERT_EQ(one.updates.size(), 1u);
      ASSERT_TRUE(one.updates[0].applied) << "replay update at epoch " << e + 1;
      ASSERT_EQ(one.updates[0].epoch, e + 1);
      EXPECT_EQ(one.updates[0].inserts, applied_updates[e - 1]->response.inserts);
      EXPECT_EQ(one.updates[0].deletes, applied_updates[e - 1]->response.deletes);
    }
  }
  EXPECT_EQ(checked, queries.size());  // no query reported an impossible epoch

  // Per-connection epoch view: each connection's responses, in ITS OWN
  // submission order, observe monotonically non-decreasing epochs.
  for (std::size_t c = 0; c < kConns; ++c) {
    const std::uint64_t base = 1'000'000 + static_cast<std::uint64_t>(c) * 100;
    std::uint64_t prev = 0;
    for (std::size_t k = 0; k < kPerConn; ++k) {
      for (const SentRequest& req : all) {
        if (req.id != base + k) continue;
        EXPECT_GE(req.response.epoch, prev) << "conn " << c << " item " << k;
        prev = req.response.epoch;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Idempotent retries.

// The dropped-ack scenario: the update is applied and acknowledged, but the
// client dies before reading the ack. The reconnect-and-resend of the SAME
// id must not double-apply: the keeper replays the kept response, epoch
// unchanged.
TEST(NetServeTest, ResentUpdateIdAppliesExactlyOnce) {
  PlantedGraph pg = MakeGraph();
  const Edge e = pg.graph.AllEdges()[3];
  const std::string update_line =
      "u - " + std::to_string(e.u) + " " + std::to_string(e.v) + " id=777";
  ServerHarness harness(pg);

  WireResponse first;
  {
    NetClient client = harness.Connect();
    ASSERT_TRUE(client.SendLine(update_line));
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    first = ParseResponse(line);
    ASSERT_EQ(first.status, "ok");
    ASSERT_EQ(first.epoch, 2u);
    // Abrupt close: from the client's view the ack could just as well have
    // been lost in flight.
    client.Close();
  }
  {
    NetClient retry = harness.Connect();
    ASSERT_TRUE(retry.SendLine(update_line));
    std::string line;
    ASSERT_TRUE(retry.ReadLine(&line));
    const WireResponse replayed = ParseResponse(line);
    // Bit-identical replay of the kept response — NOT a re-execution (a
    // re-executed delete of the now-missing edge would come back "rej").
    EXPECT_EQ(replayed.raw, first.raw);
  }

  const StreamSummary& result = harness.Stop();
  // Exactly one update reached the engine; the epoch advanced exactly once.
  EXPECT_EQ(result.updates_applied, 1u);
  EXPECT_EQ(result.updates_rejected, 0u);
  EXPECT_EQ(harness.engine.epoch(), 2u);
  EXPECT_EQ(harness.server.stats().keeper.replayed, 1u);
}

// The torn-send variant: the client writes the update and dies without ever
// reading. Whether or not the first copy reached the engine, the resend
// converges to exactly one apply.
TEST(NetServeTest, RetryAfterSilentDeathAppliesOnce) {
  PlantedGraph pg = MakeGraph();
  const Edge e = pg.graph.AllEdges()[4];
  const std::string update_line =
      "u - " + std::to_string(e.u) + " " + std::to_string(e.v) + " id=888";
  ServerHarness harness(pg);
  {
    NetClient client = harness.Connect();
    ASSERT_TRUE(client.SendLine(update_line));
    client.Close();  // never reads the ack
  }
  NetClient retry = harness.Connect();
  ASSERT_TRUE(retry.SendLine(update_line));
  std::string line;
  ASSERT_TRUE(retry.ReadLine(&line, 120.0));
  const WireResponse r = ParseResponse(line);
  EXPECT_EQ(r.status, "ok");
  EXPECT_EQ(r.epoch, 2u);
  retry.Close();

  const StreamSummary& result = harness.Stop();
  EXPECT_EQ(result.updates_applied, 1u);
  EXPECT_EQ(result.updates_rejected, 0u);
  EXPECT_EQ(harness.engine.epoch(), 2u);
}

// Past keeper capacity the oldest completed ids are evicted and their
// retries re-execute — the documented trade of a bounded keeper.
TEST(NetServeTest, KeeperCapacityEvictionReexecutesOldIds) {
  PlantedGraph pg = MakeGraph();
  NetServerOptions nopts;
  nopts.keeper_capacity = 2;
  ServerHarness harness(pg, nopts);
  NetClient client = harness.Connect();
  for (int id = 1; id <= 5; ++id) {
    ASSERT_TRUE(client.SendLine("q 0 1 id=" + std::to_string(id)));
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
  }
  // id=5 is still kept: replayed. id=1 was evicted: re-executed.
  std::string line;
  ASSERT_TRUE(client.SendLine("q 0 1 id=5"));
  ASSERT_TRUE(client.ReadLine(&line));
  ASSERT_TRUE(client.SendLine("q 0 1 id=1"));
  ASSERT_TRUE(client.ReadLine(&line));
  client.Close();

  harness.Stop();
  const NetServerStats& stats = harness.server.stats();
  EXPECT_EQ(stats.keeper.started, 6u);  // 5 fresh + 1 evicted re-execute
  EXPECT_EQ(stats.keeper.replayed, 1u);
  EXPECT_EQ(stats.keeper.evictions, 4u);  // capacity 2, 6 completions
}

// --------------------------------------------------------------------------
// Connection hygiene.

TEST(NetServeTest, OverCapacityConnectionsAreRejected) {
  PlantedGraph pg = MakeGraph();
  NetServerOptions nopts;
  nopts.max_connections = 2;
  ServerHarness harness(pg, nopts);
  NetClient a = harness.Connect();
  NetClient b = harness.Connect();
  // Make sure both are registered before the third knocks (the accept loop
  // must have seen them).
  std::string line;
  ASSERT_TRUE(a.SendLine("ping"));
  ASSERT_TRUE(a.ReadLine(&line));
  ASSERT_TRUE(b.SendLine("ping"));
  ASSERT_TRUE(b.ReadLine(&line));

  NetClient c = harness.Connect();
  ASSERT_TRUE(c.ReadLine(&line));
  EXPECT_EQ(line, "err 0 server at connection limit");
  EXPECT_FALSE(c.ReadLine(&line));  // closed

  // The admitted connections keep working.
  ASSERT_TRUE(a.SendLine("ping"));
  ASSERT_TRUE(a.ReadLine(&line));
  EXPECT_EQ(line, "pong");
  a.Close();
  b.Close();
  harness.Stop();
  EXPECT_EQ(harness.server.stats().rejected_over_capacity, 1u);
}

TEST(NetServeTest, OversizeLineClosesConnection) {
  PlantedGraph pg = MakeGraph();
  NetServerOptions nopts;
  nopts.max_line_bytes = 64;
  ServerHarness harness(pg, nopts);
  NetClient client = harness.Connect();
  // No terminator within the limit: the frame boundary is lost.
  ASSERT_TRUE(client.SendRaw("q " + std::string(200, '1')));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(ParseResponse(line).status, "err");
  EXPECT_FALSE(client.ReadLine(&line));  // closed after the error
  harness.Stop();
  EXPECT_EQ(harness.server.stats().overlong_closes, 1u);
}

// An abrupt disconnect mid-request: the unterminated fragment must be
// discarded, never parsed — no partial apply.
TEST(NetServeTest, TornMidRequestFragmentNeverApplies) {
  PlantedGraph pg = MakeGraph();
  const Edge e = pg.graph.AllEdges()[5];
  ServerHarness harness(pg);
  {
    NetClient client = harness.Connect();
    // A complete query, then a torn update missing its terminator.
    ASSERT_TRUE(client.SendRaw("q 0 1 id=1\nu - " + std::to_string(e.u) + " " +
                               std::to_string(e.v)));
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));  // the query's response
    EXPECT_EQ(ParseResponse(line).id, 1u);
    client.Close();  // EOF with the fragment pending
  }
  // Barrier: the torn connection's EOF arrived before this ping, and the
  // loop handles connections in registration order within a poll round, so
  // a pong means the EOF has been observed. (stats() must not be polled
  // while the loop runs.)
  {
    NetClient barrier = harness.Connect();
    ASSERT_TRUE(barrier.SendLine("ping"));
    std::string line;
    ASSERT_TRUE(barrier.ReadLine(&line));
    EXPECT_EQ(line, "pong");
  }
  const StreamSummary& result = harness.Stop();
  // The torn update never reached the engine.
  EXPECT_EQ(result.updates_applied + result.updates_rejected, 0u);
  EXPECT_EQ(harness.engine.epoch(), 1u);
  EXPECT_EQ(harness.server.stats().torn_disconnects, 1u);
}

// Graceful shutdown with live connections: in-flight items drain, their
// responses still arrive (the flushed tail), then the server closes.
TEST(NetServeTest, ShutdownDrainsAndFlushesTails) {
  PlantedGraph pg = MakeGraph();
  ServerHarness harness(pg);
  NetClient client = harness.Connect();
  std::string wire;
  for (int id = 1; id <= 10; ++id) wire += "q 0 1 id=" + std::to_string(id) + "\n";
  ASSERT_TRUE(client.SendRaw(wire));
  // Wait for the first response — the loop frames a whole packet's lines in
  // one read, so one response means every line was admitted. Then shut down
  // while later items may still be queued or executing.
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  int got = ParseResponse(line).status == "ok" ? 1 : 0;
  const StreamSummary& result = harness.Stop();
  while (client.ReadLine(&line, 5.0)) {
    if (ParseResponse(line).status == "ok") ++got;
  }
  // Every ADMITTED item drained and its response was flushed before close.
  EXPECT_EQ(got, static_cast<int>(result.items));
  EXPECT_GE(got, 1);
}

}  // namespace
}  // namespace bccs
