// The benchmark workloads and the traced per-layer replay.
//
//   lp-large-groups  LP-BCC over the socket on the orkut stand-in (two
//                    labels, ~29k vertices per label group); closed loop,
//                    nproc connections, result cache off.
//   zipf-updates     LP-BCC over the socket on the baidu1 stand-in (40
//                    labels); open Poisson loop at a fixed offered rate,
//                    Zipf(1.0) query keys, result cache on, every twentieth
//                    request a single-edge update from one writer connection.
//   mbcc-batch       3-label mBCC on the livejournal-m stand-in, run in
//                    process as ServeEngine batches (the bccs_query batch
//                    path) at nproc workers; no socket, no cache.
//
// Every workload ends its window with the same update probe (see
// ProbeUpdates), so the update metrics mean the same thing on each.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>

#include "bcc/bc_index.h"
#include "bcc/find_g0.h"
#include "bcc/online_search.h"
#include "bcc/workspace.h"
#include "eval/datasets.h"
#include "eval/query_gen.h"
#include "eval/serve_engine.h"
#include "graph/snapshot.h"
#include "net/line_protocol.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using bccs::BccQuery;
using bccs::Community;
using bccs::EdgeUpdate;
using bccs::EdgeUpdateKind;
using bccs::LabeledGraph;

enum class Drive { kClosedSocket, kOpenSocket, kBatch };

struct Workload {
  const char* name;
  const char* dataset;
  Drive drive;
  std::size_t queries_sampled;  // ground-truth queries drawn (deduplicated after)
  std::size_t cache_entries;    // bccs_serve --result-cache (0 = off)
  double offered_rate;          // open loop: requests per second
  std::size_t update_every;     // open loop: every n-th request is an update (0 = none)
  std::size_t probe_updates;    // updates in the probe after the window
};

// The offered rate of zipf-updates is fixed, a property of the workload and
// not of the machine: about a quarter of the closed-loop capacity measured
// on a 4-core Intel Xeon VM (README.md), low enough that queueing does not
// dominate its latencies.
const Workload kWorkloads[] = {
    {"lp-large-groups", "orkut", Drive::kClosedSocket, 400, 0, 0, 0, 1000},
    {"zipf-updates", "baidu1", Drive::kOpenSocket, 4096, 256, 6000, 20, 1000},
    {"mbcc-batch", "livejournal-m", Drive::kBatch, 1000, 0, 0, 0, 1000},
};

constexpr double kWarmupSeconds = 2.0;
constexpr double kGraceSeconds = 10.0;
constexpr int kSetupRepetitions = 5;
constexpr std::size_t kTraceUpdates = 1000;    // updates decomposed in the traced run
constexpr std::size_t kMbccBatch = 256;        // queries per ServeEngine batch
constexpr double kFailedLatencyMs = 1e9;       // a failed request misses every limit
constexpr double kOpenReplaySeconds = 2.0;     // zipf in-process replay after warm-up
constexpr double kStallMs = 5.0;               // open-loop generator lateness = machine stall
constexpr double kTraceSeconds = 3.0;          // sequential kernel trace budget
constexpr std::size_t kTraceMaxQueries = 10000;

struct Setup {
  std::vector<double> total_s, generate_s, index_build_s, save_s, load_s;
};

/// Everything one run holds.
struct Session {
  const Workload* w = nullptr;
  RunConfig cfg;
  bccs::PlantedGraph planted;  // generated in process, only for query sampling
  std::shared_ptr<const LabeledGraph> graph;  // the served snapshot's graph
  std::shared_ptr<const bccs::BcIndex> index;
  std::string snapshot;
  Child server;
  int port = 0;
  std::unique_ptr<bccs::BatchRunner> runner;  // batch workloads serve in process
  std::unique_ptr<bccs::ServeEngine> engine;
  Setup setup;
  double peak_rss_mb = 0;
  SpanLog spans;
  std::map<std::string, std::pair<double, std::string>> metrics;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

std::mt19937_64 Rng(std::uint64_t seed, std::uint64_t stream) {
  std::seed_seq seq{seed, stream, std::uint64_t{0x9e3779b97f4a7c15ULL}};
  return std::mt19937_64(seq);
}

double Ms(double seconds) { return seconds * 1e3; }

// ---------------------------------------------------------------------------
// Set-up: prepare (generate + index build + snapshot save) in a child, then
// start the server on the snapshot (or load it in process for batches).
// ---------------------------------------------------------------------------

double ParseField(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key + "=");
  return at == std::string::npos ? -1 : std::atof(line.c_str() + at + key.size() + 1);
}

bool RunSetups(Session& s) {
  const bool socket = s.w->drive != Drive::kBatch;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const bool last = rep + 1 == kSetupRepetitions;
    std::remove(s.snapshot.c_str());
    const double t0 = Now();
    Child prep = Spawn({SelfExe(), "prepare", "--dataset", s.w->dataset, "--snapshot", s.snapshot});
    std::string line;
    const bool prepared = WaitForLine(prep, "prepared ", 120, &line);
    if (StopChild(prep, 0, 60) != 0 || !prepared) {
      std::fprintf(stderr, "perfbench: prepare %s failed\n", s.w->dataset);
      return false;
    }
    s.setup.generate_s.push_back(ParseField(line, "generate_s"));
    s.setup.index_build_s.push_back(ParseField(line, "index_build_s"));
    s.setup.save_s.push_back(ParseField(line, "snapshot_save_s"));
    if (socket) {
      std::vector<std::string> argv = {PERFBENCH_SERVE_BINARY, "--index-file", s.snapshot,
                                       "--listen", "0", "--threads",
                                       std::to_string(s.cfg.nproc), "--method", "lp", "--quiet"};
      if (s.w->cache_entries > 0) {
        argv.insert(argv.end(), {"--result-cache", std::to_string(s.w->cache_entries)});
      }
      Child server = Spawn(argv);
      if (!WaitForLine(server, "listening on ", 120, &line)) {
        StopChild(server, SIGKILL, 10);
        std::fprintf(stderr, "perfbench: bccs_serve did not start\n");
        return false;
      }
      s.setup.total_s.push_back(Now() - t0);
      s.port = std::atoi(line.c_str() + line.rfind(':') + 1);
      if (last) {
        s.server = server;
      } else {
        StopChild(server, SIGTERM, 60);
      }
    }
    // The in-process load: the serving state of a batch workload, and for the
    // socket workloads the same file the server just loaded (the checks and
    // traced replays run on it).
    const double l0 = Now();
    std::string error;
    auto bundle = bccs::LoadSnapshot(s.snapshot, &error);
    if (!bundle) {
      std::fprintf(stderr, "perfbench: cannot load %s: %s\n", s.snapshot.c_str(), error.c_str());
      return false;
    }
    s.setup.load_s.push_back(Now() - l0);
    s.graph = bundle->graph;
    s.index = std::shared_ptr<const bccs::BcIndex>(std::move(bundle->index));
    if (!socket) {
      s.runner = std::make_unique<bccs::BatchRunner>(s.cfg.nproc);
      s.engine = std::make_unique<bccs::ServeEngine>(*s.runner, s.graph, s.index);
      s.setup.total_s.push_back(Now() - t0);
      if (!last) {
        s.engine.reset();
        s.runner.reset();
      }
    }
  }
  return true;
}

void StopServer(Session& s) {
  if (s.server.pid < 0) return;
  s.peak_rss_mb = PeakRssMb(s.server.pid);
  std::string rest;
  const int status = StopChild(s.server, SIGTERM, 60, &rest);
  if (status != 0) {
    std::fprintf(stderr, "perfbench: bccs_serve exited with status %d\n", status);
    s.correct = false;
  }
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

std::vector<BccQuery> BccPool(const Session& s) {
  bccs::QueryGenConfig qcfg;
  qcfg.seed = s.cfg.seed;
  std::vector<BccQuery> pool;
  std::set<std::pair<bccs::VertexId, bccs::VertexId>> seen;
  for (const auto& gt : bccs::SampleGroundTruthQueries(s.planted, s.w->queries_sampled, qcfg)) {
    if (seen.insert({gt.query.ql, gt.query.qr}).second) pool.push_back(gt.query);
  }
  return pool;
}

std::vector<bccs::MbccQuery> MbccPool(const Session& s) {
  std::vector<bccs::MbccQuery> pool;
  std::set<std::vector<bccs::VertexId>> seen;
  for (const auto& gt :
       bccs::SampleMbccGroundTruthQueries(s.planted, 3, s.w->queries_sampled, s.cfg.seed)) {
    if (seen.insert(gt.query.vertices).second) pool.push_back(gt.query);
  }
  return pool;
}

/// Deletes of random present edges, each later reinserted. `paired` puts the
/// reinsert right after its delete (the probe); otherwise a deleted edge is
/// reinserted at a later update (zipf-updates keeps up to four out).
class UpdatePlanner {
 public:
  UpdatePlanner(const LabeledGraph& g, std::uint64_t seed) : g_(g), rng_(Rng(seed, 7)) {}

  EdgeUpdate Next(bool paired) {
    std::bernoulli_distribution coin(0.5);
    if (!out_.empty() && (paired || out_.size() >= 4 || coin(rng_))) {
      const bccs::Edge e = out_.front();
      out_.erase(out_.begin());
      return {EdgeUpdateKind::kInsert, e};
    }
    std::uniform_int_distribution<bccs::VertexId> pick(
        0, static_cast<bccs::VertexId>(g_.NumVertices() - 1));
    while (true) {
      const bccs::VertexId u = pick(rng_);
      const auto nbrs = g_.Neighbors(u);
      if (nbrs.empty()) continue;
      const bccs::VertexId v = nbrs[rng_() % nbrs.size()];
      const bccs::Edge e{std::min(u, v), std::max(u, v)};
      if (std::find(out_.begin(), out_.end(), e) != out_.end()) continue;
      out_.push_back(e);
      return {EdgeUpdateKind::kDelete, e};
    }
  }

 private:
  const LabeledGraph& g_;
  std::mt19937_64 rng_;
  std::vector<bccs::Edge> out_;
};

/// The update probe every workload runs after its window: single-edge
/// updates (delete + reinsert pairs) sent one at a time to an otherwise idle
/// server. The planner continues from the window's updates, so every delete
/// is of a present edge.
std::vector<WireRequest> ProbeUpdates(const Session& s, UpdatePlanner& planner) {
  std::vector<WireRequest> probe(s.w->probe_updates);
  for (WireRequest& r : probe) {
    r.is_update = true;
    r.update = planner.Next(/*paired=*/true);
  }
  return probe;
}

// ---------------------------------------------------------------------------
// Reporting helpers.
// ---------------------------------------------------------------------------

/// Latency samples: (seconds since the start of the measured interval, ms).
using Samples = std::vector<std::pair<double, double>>;

/// Returns {p50, p99} in ms and prints them under `label`. The interval is cut into k
/// equal time slices holding at least 1000 samples each (so a slice's p99
/// has ten samples beyond it), and each percentile is the median of the
/// per-slice percentiles: a burst of interference from outside the
/// benchmark spoils one slice, not the figure. k = 1 (the whole interval)
/// when there are fewer than 2000 samples.
std::pair<double, double> Latency(const std::string& label, const Samples& samples,
                                  double interval) {
  const std::size_t k = std::clamp<std::size_t>(samples.size() / 1000, 1,
                                                std::max<std::size_t>(1, static_cast<std::size_t>(interval)));
  std::vector<std::vector<double>> slices(k);
  std::size_t failures = 0;
  for (const auto& [t, ms] : samples) {
    const auto slot = static_cast<std::size_t>(std::max(0.0, t) / interval * static_cast<double>(k));
    slices[std::min(slot, k - 1)].push_back(ms);
    failures += ms >= kFailedLatencyMs ? 1 : 0;
  }
  std::vector<double> p50, p99;
  for (const auto& v : slices) {
    if (v.empty()) continue;  // a second left out as a stall
    p50.push_back(Percentile(v, 0.50));
    p99.push_back(Percentile(v, 0.99));
  }
  std::vector<double> all;
  for (const auto& v : slices) all.insert(all.end(), v.begin(), v.end());
  std::printf("%s latency: %zu samples (%zu failed), p50 %.4f ms, p99 %.4f ms over %zu slices "
              "(whole interval: p50 %.4f ms, p99 %.4f ms); per-slice p99:",
              label.c_str(), samples.size(), failures, Percentile(p50, 0.5),
              Percentile(p99, 0.5), k, Percentile(all, 0.5), Percentile(all, 0.99));
  for (double v : p99) std::printf(" %.3g", v);
  std::printf("\n");
  return {Percentile(p50, 0.5), Percentile(p99, 0.5)};
}

void SetLatency(Session& s, const std::string& prefix, const Samples& samples, double interval) {
  const auto [p50, p99] = Latency(prefix, samples, interval);
  s.Set(prefix + "_p50_ms", p50, "ms");
  s.Set(prefix + "_p99_ms", p99, "ms");
}

void Account(Session& s, const CheckResult& check, std::size_t attempted, std::size_t failed) {
  s.attempted += attempted;
  s.failed += failed;
  if (check.wrong > 0 || check.invalid > 0 || check.bad_acks > 0 || failed > 0) {
    s.correct = false;
  }
  std::printf("check: %zu answers checked, %zu wrong, %zu fail verification, %zu bad update "
              "acks; %zu distinct non-empty answers, %zu empty\n",
              check.checked, check.wrong, check.invalid, check.bad_acks, check.distinct_answers,
              check.empty_answers);
  for (const std::string& m : check.messages) std::printf("check: %s\n", m.c_str());
}

/// Update acks of a closed-loop probe issued after `prior_updates` updates.
CheckResult CheckProbeAcks(const std::vector<WireReply>& replies, std::size_t prior_updates,
                           std::size_t* failed) {
  CheckResult r;
  for (std::size_t k = 0; k < replies.size(); ++k) {
    if (!replies[k].received || replies[k].status != 'o' ||
        replies[k].epoch != prior_updates + k + 2) {
      ++r.bad_acks;
      ++*failed;
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// In-process replays (traced run).
// ---------------------------------------------------------------------------

struct Replay {
  double qps = 0;
  std::vector<double> latency_ms, wait_ms, exec_ms;
  double block_hit_rate = 0;  // pair block cache of the replay's engine
};

/// Closed loop in process: `clients` threads each keep one query outstanding
/// on a fresh ServeEngine with `workers` workers (result cache off).
Replay ClosedReplay(const Session& s, const std::vector<bccs::QueryRequest>& reqs,
                    std::size_t workers, SpanLog* spans) {
  bccs::BatchRunner runner(workers);
  bccs::ServeEngine engine(runner, s.graph, s.index);
  Replay out;
  out.latency_ms.assign(reqs.size(), 0);
  out.wait_ms.assign(reqs.size(), 0);
  out.exec_ms.assign(reqs.size(), 0);
  auto stream = engine.OpenStream();
  std::atomic<std::size_t> cursor{0};
  const double t0 = Now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < s.cfg.nproc; ++c) {
    clients.emplace_back([&] {
      for (std::size_t i; (i = cursor.fetch_add(1)) < reqs.size();) {
        auto done = std::make_shared<std::promise<double>>();
        std::future<double> ready = done->get_future();
        const double submitted = Now();
        stream.Submit(reqs[i], [done, &out, i](const bccs::ItemCompletion& c) {
          out.wait_ms[i] = Ms(c.sojourn_seconds - c.seconds);
          out.exec_ms[i] = Ms(c.seconds);
          done->set_value(Now());
        });
        const double end = ready.get();
        out.latency_ms[i] = Ms(end - submitted);
        if (spans != nullptr) {
          const int root = spans->Add("eval.request", submitted, end, -1, i + 1);
          spans->AddDerived(root, {{"eval.admission_wait", out.wait_ms[i] / 1e3},
                                   {"eval.exec", out.exec_ms[i] / 1e3}});
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  out.qps = static_cast<double>(reqs.size()) / (Now() - t0);
  stream.Finish();
  const bccs::BlockCacheStats pairs = engine.pair_cache_stats();
  out.block_hit_rate = pairs.hits + pairs.misses > 0
                           ? static_cast<double>(pairs.hits) /
                                 static_cast<double>(pairs.hits + pairs.misses)
                           : 0;
  return out;
}

/// The closed in-process replays of one query sequence: untraced at 1 and at
/// nproc workers (parallel efficiency), then traced at nproc workers (the
/// tracing overhead). Returns the untraced nproc replay.
Replay ClosedReplays(Session& s, const std::vector<bccs::QueryRequest>& reqs) {
  const Replay one = ClosedReplay(s, reqs, 1, nullptr);
  Replay many = ClosedReplay(s, reqs, s.cfg.nproc, nullptr);
  const Replay traced = ClosedReplay(s, reqs, s.cfg.nproc, &s.spans);
  s.Set("eval.parallel_efficiency", many.qps / (static_cast<double>(s.cfg.nproc) * one.qps),
        "frac");
  s.Set("trace.overhead_frac", 1.0 - traced.qps / many.qps, "frac");
  return many;
}

/// eval-layer metrics of a closed workload (result cache off).
void SetClosedEvalMetrics(Session& s, const Replay& many) {
  s.Set("eval.admission_wait_ms_p50", Percentile(many.wait_ms, 0.5), "ms");
  s.Set("eval.admission_wait_ms_p99", Percentile(many.wait_ms, 0.99), "ms");
  s.Set("eval.exec_ms_p50", Percentile(many.exec_ms, 0.5), "ms");
  s.Set("eval.cache.hit_rate", 0, "frac");
  s.Set("eval.cache.stale_drops", 0, "count");
  s.Set("eval.cache.evictions", 0, "count");
  s.Set("butterfly.block_cache.hit_rate", many.block_hit_rate, "frac");
}

struct OpenReplayResult {
  Replay replay;
  std::vector<std::size_t> window_index;  // request index of each replayed query
  bccs::ResultCacheStats cache_before, cache_after;
  bccs::BlockCacheStats pairs_before, pairs_after;
};

/// Open loop in process (zipf-updates): the session's schedule, up to
/// `until`, submitted at the scheduled times into one ServeEngine stream with
/// the server's configuration; spans per item.
OpenReplayResult OpenReplay(const Session& s, const std::vector<WireRequest>& schedule,
                            double window_start, double until, SpanLog* spans) {
  bccs::ServeOptions opts;
  opts.result_cache_entries = s.w->cache_entries;
  bccs::BatchRunner runner(s.cfg.nproc);
  bccs::ServeEngine engine(runner, s.graph, s.index, opts);
  OpenReplayResult out;
  std::vector<double> done(schedule.size(), -1), wait(schedule.size(), 0),
      exec(schedule.size(), 0), submitted(schedule.size(), 0);
  auto stream = engine.OpenStream();
  const double origin = Now();
  bool in_window = false;
  std::size_t n = 0;
  for (; n < schedule.size() && schedule[n].due < until; ++n) {
    const WireRequest& r = schedule[n];
    if (!in_window && r.due >= window_start) {
      in_window = true;
      out.cache_before = engine.result_cache_stats();
      out.pairs_before = engine.pair_cache_stats();
    }
    while (Now() - origin < r.due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(r.due - (Now() - origin)));
    }
    submitted[n] = Now();
    auto on_done = [&, n](const bccs::ItemCompletion& c) {
      wait[n] = c.sojourn_seconds - c.seconds;
      exec[n] = c.seconds;
      done[n] = Now();
    };
    if (r.is_update) {
      bccs::UpdateRequest u;
      u.updates.push_back(r.update);
      stream.Submit(std::move(u), on_done);
    } else {
      bccs::QueryRequest q;
      q.query = r.query;
      stream.Submit(std::move(q), on_done);
    }
  }
  stream.Finish();
  out.cache_after = engine.result_cache_stats();
  out.pairs_after = engine.pair_cache_stats();
  for (std::size_t i = 0; i < n; ++i) {
    const WireRequest& r = schedule[i];
    if (spans != nullptr && r.due >= window_start) {
      const int root = spans->Add(r.is_update ? "eval.update" : "eval.request", submitted[i],
                                  done[i], -1, i + 1);
      spans->AddDerived(root, {{"eval.admission_wait", wait[i]}, {"eval.exec", exec[i]}});
    }
    if (r.is_update || r.due < window_start) continue;
    out.window_index.push_back(i);
    out.replay.latency_ms.push_back(Ms(done[i] - origin - r.due));
    out.replay.wait_ms.push_back(Ms(wait[i]));
    out.replay.exec_ms.push_back(Ms(exec[i]));
  }
  return out;
}

/// Per-query kernel accumulators of the sequential trace.
struct KernelTotals {
  std::size_t queries = 0;
  double group_size = 0, g0_size = 0, community = 0, rounds = 0, removed = 0;
  double counting_calls = 0, delta_rounds = 0, delta_fallbacks = 0;
  double search_seconds = 0;
};

/// Sequential two-label trace: FindG0 -> PeelToBcc per query on one thread,
/// the SearchStats phases laid out as derived child spans. Stops after
/// kTraceSeconds or kTraceMaxQueries.
KernelTotals TraceBcc(Session& s, const std::vector<BccQuery>& queries) {
  KernelTotals k;
  bccs::QueryWorkspace ws;
  const LabeledGraph& g = *s.graph;
  const double stop = Now() + kTraceSeconds;
  for (std::size_t i = 0; i < queries.size() && i < kTraceMaxQueries && Now() < stop; ++i) {
    const BccQuery& q = queries[i];
    bccs::BccParams params;
    bccs::SearchStats g0_stats, peel_stats;
    const double t0 = Now();
    const int root = s.spans.Add("bcc.search", t0, t0, -1, i + 1);
    bccs::G0Result g0 = bccs::FindG0(g, q, params, &g0_stats, &ws);
    const double t1 = Now();
    const int find = s.spans.Add("bcc.find_g0", t0, t1, root, i + 1);
    s.spans.AddDerived(find, {{"butterfly.seed", g0_stats.butterfly_seconds}});
    const Community c =
        bccs::PeelToBcc(g, g0, q, bccs::LpBccOptions(), params.b, &peel_stats, &ws);
    const double t2 = Now();
    const int peel = s.spans.Add("bcc.peel", t1, t2, root, i + 1);
    s.spans.AddDerived(peel, {{"bcc.query_distance", peel_stats.query_distance_seconds},
                              {"butterfly.delta", peel_stats.butterfly_delta_seconds},
                              {"butterfly.recount", peel_stats.butterfly_seconds},
                              {"bcc.leader", peel_stats.leader_update_seconds}});
    bccs::ReleaseG0Counts(&ws, &g0);
    const double t3 = Now();
    s.spans.SetEnd(root, t3);
    ++k.queries;
    k.search_seconds += t3 - t0;
    k.group_size += static_cast<double>(g.VerticesWithLabel(g.LabelOf(q.ql)).size() +
                                        g.VerticesWithLabel(g.LabelOf(q.qr)).size());
    k.g0_size += static_cast<double>(peel_stats.g0_size);
    k.community += static_cast<double>(c.Size());
    k.rounds += static_cast<double>(peel_stats.rounds);
    k.removed += static_cast<double>(peel_stats.vertices_removed);
    k.counting_calls += static_cast<double>(g0_stats.butterfly_counting_calls +
                                            peel_stats.butterfly_counting_calls);
    k.delta_rounds += static_cast<double>(peel_stats.delta_rounds);
    k.delta_fallbacks += static_cast<double>(peel_stats.delta_fallbacks);
  }
  return k;
}

/// Sequential mBCC trace: ResolveMbccCores + MbccSearch per query.
KernelTotals TraceMbcc(Session& s, const std::vector<bccs::MbccQuery>& queries) {
  KernelTotals k;
  bccs::QueryWorkspace ws;
  const LabeledGraph& g = *s.graph;
  const double stop = Now() + kTraceSeconds;
  for (std::size_t i = 0; i < queries.size() && i < kTraceMaxQueries && Now() < stop; ++i) {
    const bccs::MbccQuery& q = queries[i];
    bccs::MbccParams params;
    bccs::SearchStats st;
    const double t0 = Now();
    const int root = s.spans.Add("bcc.search", t0, t0, -1, i + 1);
    bccs::ResolveMbccCores(g, q, params, &ws);
    const double t1 = Now();
    s.spans.Add("bcc.mbcc.resolve_cores", t0, t1, root, i + 1);
    const Community c =
        bccs::MbccSearch(g, q, params, bccs::LpBccOptions(), &st, nullptr, &ws);
    const double t2 = Now();
    const int search = s.spans.Add("bcc.mbcc.search", t1, t2, root, i + 1);
    s.spans.AddDerived(search, {{"bcc.find_g0", st.find_g0_seconds},
                                {"butterfly.seed", st.butterfly_seconds},
                                {"butterfly.delta", st.butterfly_delta_seconds},
                                {"bcc.leader", st.leader_update_seconds},
                                {"bcc.query_distance", st.query_distance_seconds}});
    s.spans.SetEnd(root, t2);
    ++k.queries;
    k.search_seconds += t2 - t0;
    for (bccs::VertexId v : q.vertices) {
      k.group_size += static_cast<double>(g.VerticesWithLabel(g.LabelOf(v)).size());
    }
    k.g0_size += static_cast<double>(st.g0_size);
    k.community += static_cast<double>(c.Size());
    k.rounds += static_cast<double>(st.rounds);
    k.removed += static_cast<double>(st.vertices_removed);
    k.counting_calls += static_cast<double>(st.butterfly_counting_calls);
    k.delta_rounds += static_cast<double>(st.delta_rounds);
    k.delta_fallbacks += static_cast<double>(st.delta_fallbacks);
  }
  return k;
}

/// Each update decomposed into BuildGraphDelta -> ApplyGraphDelta ->
/// BcIndex::ApplyUpdates, applied in order on one thread.
void TraceUpdates(Session& s, const std::vector<EdgeUpdate>& updates) {
  std::shared_ptr<const LabeledGraph> g = s.graph;
  std::shared_ptr<const bccs::BcIndex> idx = s.index;
  double labels_touched = 0, labels_inc = 0, pairs_touched = 0, pairs_inc = 0;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const double t0 = Now();
    auto delta = bccs::BuildGraphDelta(*g, std::span<const EdgeUpdate>(&updates[i], 1));
    const double t1 = Now();
    if (!delta) {
      s.correct = false;
      std::printf("trace: update %zu rejected in replay\n", i);
      return;
    }
    auto next = std::make_shared<const LabeledGraph>(bccs::ApplyGraphDelta(*g, *delta));
    const double t2 = Now();
    bccs::UpdateRepairStats rs;
    std::shared_ptr<const bccs::BcIndex> repaired = idx->ApplyUpdates(*next, *delta, {}, &rs);
    const double t3 = Now();
    const int root = s.spans.Add("graph.update", t0, t3, -1, i + 1);
    s.spans.Add("graph.build_delta", t0, t1, root, i + 1);
    s.spans.Add("graph.apply_delta", t1, t2, root, i + 1);
    s.spans.Add("bcc.index.apply_updates", t2, t3, root, i + 1);
    labels_touched += static_cast<double>(rs.labels_touched);
    labels_inc += static_cast<double>(rs.labels_incremental);
    pairs_touched += static_cast<double>(rs.pairs_touched);
    pairs_inc += static_cast<double>(rs.pairs_incremental);
    idx = std::move(repaired);  // before g: the old index refers to the old graph
    g = std::move(next);
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, updates.size()));
  s.Set("graph.build_delta_ms", Ms(s.spans.TotalsOf("graph.build_delta").total) / n, "ms");
  s.Set("graph.apply_delta_ms", Ms(s.spans.TotalsOf("graph.apply_delta").total) / n, "ms");
  s.Set("bcc.index.apply_updates_ms", Ms(s.spans.TotalsOf("bcc.index.apply_updates").total) / n,
        "ms");
  s.Set("bcc.index.labels_incremental_frac",
        labels_touched > 0 ? labels_inc / labels_touched : 0, "frac");
  s.Set("bcc.index.pairs_incremental_frac", pairs_touched > 0 ? pairs_inc / pairs_touched : 0,
        "frac");
}

void SetKernelMetrics(Session& s, const KernelTotals& k) {
  const double n = static_cast<double>(std::max<std::size_t>(1, k.queries));
  auto self_ms = [&](const char* name) { return Ms(s.spans.TotalsOf(name).self) / n; };
  const bool mbcc = s.w->drive == Drive::kBatch;
  s.Set("bcc.find_g0.self_ms", self_ms("bcc.find_g0"), "ms");
  s.Set("bcc.find_g0.group_size", k.group_size / n, "count");
  s.Set("bcc.find_g0.g0_size", k.g0_size / n, "count");
  s.Set("bcc.find_g0.g0_per_group", k.group_size > 0 ? k.g0_size / k.group_size : 0, "frac");
  s.Set("butterfly.seed_ms", self_ms("butterfly.seed"), "ms");
  s.Set("butterfly.delta_ms", self_ms("butterfly.delta"), "ms");
  s.Set("butterfly.recount_calls", k.counting_calls / n, "count");
  s.Set("butterfly.delta_rounds", k.delta_rounds / n, "count");
  s.Set("butterfly.delta_fallbacks", k.delta_fallbacks / n, "count");
  const double checks = k.delta_rounds + k.delta_fallbacks;
  s.Set("butterfly.delta_hit_frac", checks > 0 ? k.delta_rounds / checks : 0, "frac");
  s.Set("bcc.query_distance.self_ms", self_ms("bcc.query_distance"), "ms");
  s.Set("bcc.leader_ms", self_ms("bcc.leader"), "ms");
  s.Set("bcc.peel.self_ms", self_ms("bcc.peel"), "ms");
  s.Set("bcc.peel.rounds", k.rounds / n, "count");
  s.Set("bcc.peel.removed_per_g0", k.g0_size > 0 ? k.removed / k.g0_size : 0, "frac");
  s.Set("bcc.community_per_g0", k.g0_size > 0 ? k.community / k.g0_size : 0, "frac");
  s.Set("bcc.mbcc.search_ms", mbcc ? Ms(s.spans.TotalsOf("bcc.mbcc.search").total) / n : 0, "ms");
  s.Set("bcc.mbcc.resolve_cores_ms",
        mbcc ? Ms(s.spans.TotalsOf("bcc.mbcc.resolve_cores").total) / n : 0, "ms");
  s.Set("bcc.mbcc.rounds", mbcc ? k.rounds / n : 0, "count");
  // Self time of every phase below the search root, against the root spans.
  double phase_self = 0;
  for (const char* name : {"bcc.find_g0", "butterfly.seed", "bcc.peel", "bcc.query_distance",
                           "butterfly.delta", "butterfly.recount", "bcc.leader",
                           "bcc.mbcc.resolve_cores", "bcc.mbcc.search"}) {
    phase_self += s.spans.TotalsOf(name).self;
  }
  const double span = s.spans.TotalsOf("bcc.search").total;
  s.Set("bcc.unaccounted_frac", span > 0 ? 1.0 - phase_self / span : 0, "frac");
}

void PrintSelfTimes(const Session& s) {
  std::printf("self-time table (all spans of the traced run):\n");
  std::printf("  %-28s %8s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms",
              "self/call");
  for (const auto& [name, t] : s.spans.Totals()) {
    std::printf("  %-28s %8zu %12.3f %12.3f %10.4f\n", name.c_str(), t.count, Ms(t.total),
                Ms(t.self), t.count > 0 ? Ms(t.self) / static_cast<double>(t.count) : 0.0);
  }
}

/// Mean microseconds of `fn` over `items`, repeated to at least 20000 calls.
template <typename T, typename Fn>
double MeanMicros(const std::vector<T>& items, Fn fn) {
  if (items.empty()) return 0;
  std::size_t calls = 0;
  const double t0 = Now();
  while (calls < 20000) {
    for (const T& item : items) fn(item);
    calls += items.size();
  }
  return (Now() - t0) * 1e6 / static_cast<double>(calls);
}

void SetNetCodecMetrics(Session& s, const std::vector<WireRequest>& requests,
                        const std::vector<Community>& answers) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < requests.size() && lines.size() < 4096; ++i) {
    std::string line = FormatWireRequest(requests[i], i + 1);
    line.pop_back();
    lines.push_back(std::move(line));
  }
  const std::size_t n = s.graph->NumVertices();
  // Results feed a printed total so the timed calls cannot be optimized out.
  std::size_t parsed = 0, bytes = 0;
  const double parse_us = MeanMicros(lines, [&](const std::string& line) {
    bccs::NetRequest req;
    std::string err;
    parsed += bccs::ParseNetRequest(line, n, &req, &err) == bccs::NetParseStatus::kOk ? 1 : 0;
  });
  const double format_us = MeanMicros(answers, [&](const Community& c) {
    bytes += bccs::FormatQueryResponse(bytes, 1, c).size();
  });
  s.Set("net.parse_us", parse_us, "us");
  s.Set("net.format_us", format_us, "us");
  std::printf("net codec: %.3f us per parse (%zu parsed), %.3f us per response (%zu bytes)\n",
              parse_us, parsed, format_us, bytes);
}

void PrintLayerSplit(double socket_ms, double inproc_ms, double kernel_ms) {
  const double total = socket_ms > 0 ? socket_ms : inproc_ms;
  const double net = socket_ms > 0 ? std::max(0.0, socket_ms - inproc_ms) : 0.0;
  const double eval = std::max(0.0, inproc_ms - kernel_ms);
  std::printf("layer split of mean request time (%.4f ms): net %.4f ms (%.1f%%), eval %.4f ms "
              "(%.1f%%), search kernels bcc+butterfly+core %.4f ms (%.1f%%)\n",
              total, net, 100 * net / total, eval, 100 * eval / total, kernel_ms,
              100 * kernel_ms / total);
}

// ---------------------------------------------------------------------------
// Workload drivers.
// ---------------------------------------------------------------------------

void RunSocketWorkload(Session& s) {
  const bool open = s.w->drive == Drive::kOpenSocket;
  const std::vector<BccQuery> pool = BccPool(s);
  std::printf("query pool: %zu distinct ground-truth queries\n", pool.size());
  const double window_start = kWarmupSeconds;
  const double stop = kWarmupSeconds + s.cfg.seconds;

  // Inputs.
  std::vector<WireRequest> requests;
  std::vector<std::size_t> update_order;
  std::mt19937_64 rng = Rng(s.cfg.seed, 1);
  UpdatePlanner planner(*s.graph, s.cfg.seed);
  if (open) {
    // Zipf(1.0) keys over a shuffled pool; Poisson arrivals; updates on
    // connection 0 (the writer), queries spread over all connections.
    std::vector<std::size_t> rank(pool.size());
    for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
    std::shuffle(rank.begin(), rank.end(), rng);
    std::vector<double> weights(pool.size());
    for (std::size_t i = 0; i < weights.size(); ++i) weights[i] = 1.0 / static_cast<double>(i + 1);
    std::discrete_distribution<std::size_t> zipf(weights.begin(), weights.end());
    std::exponential_distribution<double> gap(s.w->offered_rate);
    std::uniform_int_distribution<int> conn(0, static_cast<int>(s.cfg.nproc) - 1);
    for (double t = gap(rng); t < stop; t += gap(rng)) {
      WireRequest r;
      r.due = t;
      r.in_window = t >= window_start;
      // Every n-th request: updates arrive about evenly spaced (Erlang gaps),
      // so they rarely queue behind each other.
      if (s.w->update_every > 0 && requests.size() % s.w->update_every == s.w->update_every - 1) {
        r.is_update = true;
        r.update = planner.Next(/*paired=*/false);
        r.connection = 0;
        update_order.push_back(requests.size());
      } else {
        r.query = pool[rank[zipf(rng)]];
        r.connection = conn(rng);
      }
      requests.push_back(r);
    }
  } else {
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    requests.resize(200000);
    for (WireRequest& r : requests) {
      r.query = pool[pick(rng)];
    }
  }

  // The session: warm-up then the timed window, on one continuous stream.
  std::vector<WireReply> replies;
  const double origin = Now();
  if (open) {
    RunOpenLoop(s.port, static_cast<int>(s.cfg.nproc), origin, kGraceSeconds, requests,
                &replies);
  } else {
    RunClosedLoop(s.port, static_cast<int>(s.cfg.nproc), origin, window_start, stop,
                  kGraceSeconds, &requests, &replies);
  }
  // Every workload ends with the same sequential update probe.
  const std::vector<WireRequest> probe = ProbeUpdates(s, planner);
  std::vector<WireReply> probe_replies;
  RunUpdateProbe(s.port, origin, requests.size() + 1, probe, &probe_replies);
  StopServer(s);

  // Answer check (after the window).
  std::vector<char> failed;
  const double c0 = Now();
  CheckResult check = CheckBccSession(*s.graph, requests, replies, update_order, s.cfg.nproc,
                                      &failed);
  std::size_t probe_failed = 0;
  const CheckResult probe_check =
      CheckProbeAcks(probe_replies, update_order.size(), &probe_failed);
  check.bad_acks += probe_check.bad_acks;
  std::printf("check took %.2f s\n", Now() - c0);

  // End-to-end metrics over the window.
  Samples query_ms, update_ms, probe_ms;
  std::vector<double> late_ms;
  std::size_t completed = 0, attempted = 0, failures = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const WireRequest& r = requests[i];
    const WireReply& rep = replies[i];
    attempted += rep.sent ? 1 : 0;
    failures += rep.sent && failed[i] ? 1 : 0;
    if (!rep.sent) continue;
    if (!r.is_update && !failed[i] && rep.done_time >= window_start && rep.done_time <= stop) {
      ++completed;
    }
    if (!r.in_window) continue;
    if (open) late_ms.push_back(Ms(rep.send_time - r.due));
    (r.is_update ? update_ms : query_ms)
        .emplace_back(rep.send_time - window_start,
                      failed[i] ? kFailedLatencyMs : Ms(rep.done_time - rep.send_time));
  }
  if (open && std::count_if(replies.begin(), replies.end(),
                            [](const WireReply& r) { return !r.sent; }) > 0) {
    std::printf("loadgen: some requests were never sent\n");
    s.correct = false;
  }
  const double probe_start = probe_replies.empty() ? 0 : probe_replies.front().send_time;
  for (std::size_t k = 0; k < probe.size(); ++k) {
    const WireReply& rep = probe_replies[k];
    const bool ok = rep.received && rep.status == 'o';
    probe_ms.emplace_back(rep.send_time - probe_start,
                          ok ? Ms(rep.done_time - rep.send_time) : kFailedLatencyMs);
  }
  const double probe_seconds =
      probe_replies.empty() ? 1 : probe_replies.back().done_time - probe_start;
  attempted += probe.size();
  failures += probe_failed;
  Account(s, check, attempted, failures);
  if (open) {
    // A second in which the generator itself sent more than kStallMs late
    // was a stall of the whole machine (the generator is one thread doing
    // little work); its latencies measure the machine, not the server, and
    // are left out. Failed requests always count.
    const auto seconds = static_cast<std::size_t>(s.cfg.seconds);
    std::vector<double> worst(seconds, 0);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (!requests[i].in_window || !replies[i].sent) continue;
      const auto sec = static_cast<std::size_t>(requests[i].due - window_start);
      if (sec < seconds) worst[sec] = std::max(worst[sec], Ms(replies[i].send_time - requests[i].due));
    }
    auto stalled = [&](const std::pair<double, double>& sample) {
      const auto sec = static_cast<std::size_t>(sample.first);
      return sample.second < kFailedLatencyMs && sec < seconds && worst[sec] > kStallMs;
    };
    const auto excluded = static_cast<std::size_t>(
        std::count_if(worst.begin(), worst.end(), [](double w) { return w > kStallMs; }));
    if (excluded < seconds) {
      std::erase_if(query_ms, stalled);
      std::erase_if(update_ms, stalled);
    }
    std::printf("loadgen: %zu of %zu seconds left out (generator more than %.0f ms late); "
                "per-second worst lateness ms:",
                excluded < seconds ? excluded : 0, seconds, kStallMs);
    for (double w : worst) std::printf(" %.3g", w);
    std::printf("\n");
  }
  SetLatency(s, "query", query_ms, s.cfg.seconds);
  SetLatency(s, "update", probe_ms, probe_seconds);
  if (open) {
    // The writer's updates beside the reads: not an end-to-end figure (it
    // moves with the machine's noise far more than the idle probe), but the
    // number that shows a change trading update speed for read speed.
    const auto [p50, p99] = Latency("update under load", update_ms, s.cfg.seconds);
    s.Set("eval.update_under_load_p50_ms", p50, "ms");
    s.Set("eval.update_under_load_p99_ms", p99, "ms");
  } else {
    s.Set("eval.update_under_load_p50_ms", 0, "ms");
    s.Set("eval.update_under_load_p99_ms", 0, "ms");
  }
  s.Set("qps", static_cast<double>(completed) / s.cfg.seconds, "1/s");
  s.Set("failed_frac", attempted > 0 ? static_cast<double>(failures) / static_cast<double>(attempted) : 0,
        "frac");
  s.Set("loadgen.late_ms_p99", Percentile(late_ms, 0.99), "ms");
  std::printf("qps: %.2f (%zu queries completed in the %.0f s window; %s, %zu connections%s)\n",
              static_cast<double>(completed) / s.cfg.seconds, completed, s.cfg.seconds,
              open ? "open loop" : "closed loop", s.cfg.nproc,
              open ? (", offered " + std::to_string(static_cast<int>(s.w->offered_rate)) + "/s")
                         .c_str()
                   : "");
  if (!s.cfg.trace) return;

  // ---- Traced replay of the same inputs. ----
  std::vector<BccQuery> window_queries;
  std::vector<bccs::QueryRequest> replay_reqs;
  std::vector<double> window_socket_ms;  // socket latency of the same requests, in order
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].is_update || !requests[i].in_window || failed[i]) continue;
    window_queries.push_back(requests[i].query);
  }
  const KernelTotals k = TraceBcc(s, window_queries);
  SetKernelMetrics(s, k);
  for (std::size_t i = 0; i < std::max<std::size_t>(k.queries, 2 * s.cfg.nproc); ++i) {
    bccs::QueryRequest q;
    q.query = window_queries[i % window_queries.size()];
    replay_reqs.push_back(q);
  }
  const Replay many = ClosedReplays(s, replay_reqs);

  if (open) {
    const OpenReplayResult r =
        OpenReplay(s, requests, window_start,
                   window_start + std::min(s.cfg.seconds, kOpenReplaySeconds), &s.spans);
    for (std::size_t i : r.window_index) {
      if (!failed[i]) window_socket_ms.push_back(Ms(replies[i].done_time - requests[i].due));
    }
    s.Set("eval.admission_wait_ms_p50", Percentile(r.replay.wait_ms, 0.5), "ms");
    s.Set("eval.admission_wait_ms_p99", Percentile(r.replay.wait_ms, 0.99), "ms");
    s.Set("eval.exec_ms_p50", Percentile(r.replay.exec_ms, 0.5), "ms");
    const double hits = static_cast<double>(r.cache_after.hits - r.cache_before.hits);
    const double misses = static_cast<double>(r.cache_after.misses - r.cache_before.misses);
    s.Set("eval.cache.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0, "frac");
    s.Set("eval.cache.stale_drops",
          static_cast<double>(r.cache_after.stale_drops - r.cache_before.stale_drops), "count");
    s.Set("eval.cache.evictions",
          static_cast<double>(r.cache_after.evictions - r.cache_before.evictions), "count");
    const double phits = static_cast<double>(r.pairs_after.hits - r.pairs_before.hits);
    const double pmiss = static_cast<double>(r.pairs_after.misses - r.pairs_before.misses);
    s.Set("butterfly.block_cache.hit_rate", phits + pmiss > 0 ? phits / (phits + pmiss) : 0,
          "frac");
    s.Set("net.overhead_ms_p50",
          Percentile(window_socket_ms, 0.5) - Percentile(r.replay.latency_ms, 0.5), "ms");
    // Search kernels run only on cache misses; their cost per search is the
    // sequential trace's.
    const double miss_rate = hits + misses > 0 ? misses / (hits + misses) : 1.0;
    PrintLayerSplit(Mean(window_socket_ms), Mean(r.replay.latency_ms),
                    Ms(k.search_seconds) / static_cast<double>(std::max<std::size_t>(1, k.queries)) *
                        miss_rate);
  } else {
    std::size_t taken = 0;
    for (std::size_t i = 0; i < requests.size() && taken < replay_reqs.size(); ++i) {
      if (requests[i].is_update || !requests[i].in_window || failed[i]) continue;
      window_socket_ms.push_back(Ms(replies[i].done_time - replies[i].send_time));
      ++taken;
    }
    SetClosedEvalMetrics(s, many);
    s.Set("net.overhead_ms_p50",
          Percentile(window_socket_ms, 0.5) - Percentile(many.latency_ms, 0.5), "ms");
    PrintLayerSplit(Mean(window_socket_ms), Mean(many.latency_ms), Mean(many.exec_ms));
  }
  // The session's updates in order (the writer's, then the probe), cut to
  // kTraceUpdates: a prefix, so every update applies to the graph before it.
  std::vector<EdgeUpdate> updates;
  for (std::size_t i : update_order) updates.push_back(requests[i].update);
  for (const WireRequest& r : probe) updates.push_back(r.update);
  updates.resize(std::min(updates.size(), kTraceUpdates));
  TraceUpdates(s, updates);
  SetNetCodecMetrics(s, requests, check.samples);
}

void RunBatchWorkload(Session& s) {
  const std::vector<bccs::MbccQuery> pool = MbccPool(s);
  std::printf("query pool: %zu distinct 3-label ground-truth queries\n", pool.size());
  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng = Rng(s.cfg.seed, 2);
  std::shuffle(order.begin(), order.end(), rng);
  std::size_t cursor = 0;
  auto next_batch = [&] {
    std::vector<bccs::QueryRequest> batch(kMbccBatch);
    std::vector<std::size_t> keys(kMbccBatch);
    for (std::size_t i = 0; i < kMbccBatch; ++i) {
      keys[i] = order[cursor++ % order.size()];
      batch[i].query = pool[keys[i]];
      batch[i].method = bccs::QueryMethod::kMbcc;
    }
    return std::make_pair(batch, keys);
  };

  // Warm-up, then the timed window of back-to-back batches.
  for (const double warm_end = Now() + kWarmupSeconds; Now() < warm_end;) {
    s.engine->Serve(next_batch().first);
  }
  std::vector<std::size_t> keys;
  std::vector<ServedAnswer> answers;
  Samples query_ms;                  // (batch end, execution time) per query
  std::vector<double> batch_qps;     // per-batch throughput
  const double t0 = Now();
  while (Now() - t0 < s.cfg.seconds) {
    auto [batch, batch_keys] = next_batch();
    const double b0 = Now();
    bccs::BatchResult r = s.engine->Serve(batch);
    const double b1 = Now();
    batch_qps.push_back(static_cast<double>(batch.size()) / (b1 - b0));
    keys.insert(keys.end(), batch_keys.begin(), batch_keys.end());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      answers.push_back({r.communities[i].Size(), bccs::CommunityHash(r.communities[i])});
      query_ms.emplace_back(b1 - t0, Ms(r.seconds[i]));
    }
  }
  const double elapsed = Now() - t0;

  // Updates: a sequential in-process probe after the window.
  UpdatePlanner planner(*s.graph, s.cfg.seed);
  const std::vector<WireRequest> probe = ProbeUpdates(s, planner);
  Samples update_ms;
  std::size_t probe_failed = 0;
  double probe_seconds = 1;
  {
    auto stream = s.engine->OpenStream();
    const double probe_start = Now();
    for (std::size_t k = 0; k < probe.size(); ++k) {
      bccs::UpdateRequest u;
      u.updates.push_back(probe[k].update);
      auto done = std::make_shared<std::promise<bccs::UpdateOutcome>>();
      std::future<bccs::UpdateOutcome> ready = done->get_future();
      const double sent = Now();
      stream.Submit(std::move(u), [done](const bccs::ItemCompletion& c) {
        done->set_value(c.outcome != nullptr ? *c.outcome : bccs::UpdateOutcome{});
      });
      const bccs::UpdateOutcome outcome = ready.get();
      const bool ok = outcome.applied && outcome.epoch == k + 2;
      update_ms.emplace_back(sent - probe_start, ok ? Ms(Now() - sent) : kFailedLatencyMs);
      probe_failed += ok ? 0 : 1;
    }
    probe_seconds = Now() - probe_start;
    stream.Finish();
  }
  s.peak_rss_mb = PeakRssMb(getpid());

  std::vector<char> failed;
  const double c0 = Now();
  CheckResult check = CheckMbccAnswers(*s.graph, pool, keys, answers, s.cfg.nproc, &failed);
  check.bad_acks += probe_failed;
  std::printf("check took %.2f s\n", Now() - c0);
  const std::size_t query_fail =
      static_cast<std::size_t>(std::count(failed.begin(), failed.end(), 1));
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (failed[i]) query_ms[i].second = kFailedLatencyMs;
  }
  Account(s, check, answers.size() + probe.size(), query_fail + probe_failed);
  SetLatency(s, "query", query_ms, elapsed);
  SetLatency(s, "update", update_ms, probe_seconds);
  // The median batch's throughput: like the slice medians above, robust to a
  // burst of outside interference during a few batches.
  const double qps = query_fail > 0 ? 0 : Percentile(batch_qps, 0.5);
  s.Set("qps", qps, "1/s");
  s.Set("failed_frac",
        static_cast<double>(query_fail + probe_failed) /
            static_cast<double>(answers.size() + probe.size()),
        "frac");
  s.Set("loadgen.late_ms_p99", 0, "ms");
  s.Set("eval.update_under_load_p50_ms", 0, "ms");
  s.Set("eval.update_under_load_p99_ms", 0, "ms");
  std::printf("qps: %.2f median over %zu batches of %zu on %zu workers (%zu queries in %.3f s: "
              "%.2f/s overall)\n",
              qps, batch_qps.size(), kMbccBatch, s.cfg.nproc, answers.size(), elapsed,
              static_cast<double>(answers.size()) / elapsed);
  if (!s.cfg.trace) return;

  std::vector<bccs::MbccQuery> window_queries;
  for (std::size_t k : keys) window_queries.push_back(pool[k]);
  const KernelTotals k = TraceMbcc(s, window_queries);
  SetKernelMetrics(s, k);
  std::vector<bccs::QueryRequest> replay_reqs;
  for (std::size_t i = 0; i < std::max<std::size_t>(k.queries, 2 * s.cfg.nproc); ++i) {
    bccs::QueryRequest q;
    q.query = window_queries[i % window_queries.size()];
    q.method = bccs::QueryMethod::kMbcc;
    replay_reqs.push_back(q);
  }
  const Replay many = ClosedReplays(s, replay_reqs);
  SetClosedEvalMetrics(s, many);
  // No socket on this path: the net layer does no work.
  s.Set("net.overhead_ms_p50", 0, "ms");
  s.Set("net.parse_us", 0, "us");
  s.Set("net.format_us", 0, "us");
  PrintLayerSplit(0, Mean(many.latency_ms), Mean(many.exec_ms));
  std::vector<EdgeUpdate> updates;
  for (const WireRequest& r : probe) updates.push_back(r.update);
  TraceUpdates(s, updates);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Workload& w : kWorkloads) out.push_back(w.name);
    return out;
  }();
  return names;
}

RunOutput RunWorkload(const RunConfig& cfg) {
  Session s;
  s.cfg = cfg;
  for (const Workload& w : kWorkloads) {
    if (cfg.workload == w.name) s.w = &w;
  }
  RunOutput out;
  if (s.w == nullptr) {
    out.correct = false;
    return out;
  }
  s.snapshot = cfg.out_dir + "/" + s.w->name + ".snap";
  s.planted = bccs::MakeDataset(*bccs::FindSpec(s.w->dataset));
  if (!RunSetups(s)) {
    StopServer(s);
    out.correct = false;
    return out;
  }
  const LabeledGraph& g = *s.graph;
  std::size_t largest = 0;
  for (bccs::Label l = 0; l < g.NumLabels(); ++l) {
    largest = std::max(largest, g.VerticesWithLabel(l).size());
  }
  std::printf("record: workload=%s seed=%llu seconds=%.0f trace=%d nproc=%zu cpu=\"%s\" "
              "build_type=%s compiler=\"%s\" dataset=%s V=%zu E=%zu labels=%zu "
              "largest_label_group=%zu\n",
              s.w->name, static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, cfg.nproc, CpuModel().c_str(), PERFBENCH_BUILD_TYPE,
              "gcc " __VERSION__, s.w->dataset, g.NumVertices(), g.NumEdges(), g.NumLabels(),
              largest);
  if (g.NumEdges() != s.planted.graph.NumEdges()) {
    std::printf("record: snapshot graph differs from the generated graph\n");
    s.correct = false;
  }
  const Setup& st = s.setup;
  s.Set("setup_s", Percentile(st.total_s, 0.5), "s");
  s.Set("setup.generate_s", Percentile(st.generate_s, 0.5), "s");
  s.Set("setup.index_build_s", Percentile(st.index_build_s, 0.5), "s");
  s.Set("setup.snapshot_save_s", Percentile(st.save_s, 0.5), "s");
  s.Set("setup.snapshot_load_s", Percentile(st.load_s, 0.5), "s");
  std::printf("setup: median %.4f s over %zu set-ups (generate %.4f, index %.4f, save %.4f, "
              "load %.4f)\n",
              Percentile(st.total_s, 0.5), st.total_s.size(), Percentile(st.generate_s, 0.5),
              Percentile(st.index_build_s, 0.5), Percentile(st.save_s, 0.5),
              Percentile(st.load_s, 0.5));

  if (s.w->drive == Drive::kBatch) {
    RunBatchWorkload(s);
  } else {
    RunSocketWorkload(s);
  }
  StopServer(s);
  s.Set("peak_rss_mb", s.peak_rss_mb, "MB");
  std::printf("peak_rss_mb: %.2f (serving process)\n", s.peak_rss_mb);
  if (cfg.trace) {
    PrintSelfTimes(s);
    const std::string path = cfg.out_dir + "/" + s.w->name + "-seed" +
                             std::to_string(cfg.seed) + "-spans.jsonl";
    if (s.spans.WriteJsonLines(path)) {
      std::printf("spans: %zu written to %s\n", s.spans.size(), path.c_str());
    }
  }
  out.correct = s.correct;
  out.attempted = s.attempted;
  out.failed = s.failed;
  for (const auto& [name, value] : s.metrics) out.metrics.push_back({name, value.first, value.second});
  return out;
}

int PrepareMain(const std::string& dataset, const std::string& snapshot_path) {
  const bccs::DatasetSpec* spec = bccs::FindSpec(dataset);
  if (spec == nullptr) {
    std::fprintf(stderr, "prepare: unknown dataset %s\n", dataset.c_str());
    return 2;
  }
  const double t0 = Now();
  bccs::PlantedGraph pg = bccs::MakeDataset(*spec);
  const double t1 = Now();
  bccs::BcIndex index(pg.graph);
  index.MaterializeAllPairs();
  const double t2 = Now();
  std::string error;
  if (!bccs::SaveSnapshot(index, snapshot_path, &error)) {
    std::fprintf(stderr, "prepare: cannot save %s: %s\n", snapshot_path.c_str(), error.c_str());
    return 1;
  }
  const double t3 = Now();
  std::printf("prepared generate_s=%.9f index_build_s=%.9f snapshot_save_s=%.9f\n", t1 - t0,
              t2 - t1, t3 - t2);
  return 0;
}

}  // namespace perfbench
