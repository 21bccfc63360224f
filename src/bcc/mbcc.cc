#include "bcc/mbcc.h"

#include <algorithm>
#include <memory>

#include "bcc/candidate.h"
#include "bcc/candidate_graph.h"
#include "bcc/find_g0.h"
#include "bcc/leader_pair.h"
#include "bcc/query_distance.h"
#include "butterfly/butterfly_counting.h"
#include "butterfly/butterfly_update.h"
#include "common/check.h"
#include "eval/timer.h"
#include "graph/union_find.h"

namespace bccs {
namespace {

// State of one label pair (i, j), i < j: its latest butterfly counts and the
// pair of leaders. A pair is "active" while both sides still have a vertex
// with chi >= b; inactive pairs can never reactivate because deletions only
// lower butterfly degrees.
struct PairState {
  std::size_t i = 0, j = 0;
  bool active = false;
  LeaderState leader_i, leader_j;
};

}  // namespace

std::vector<std::uint32_t> ResolveMbccCores(const LabeledGraph& g, const MbccQuery& q,
                                            const MbccParams& p, QueryWorkspace* ws,
                                            const BcIndex* index) {
  const ScopedWorkspace scoped(ws);
  const std::size_t m = q.vertices.size();
  std::vector<std::uint32_t> ks(m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t k = i < p.k.size() ? p.k[i] : 0;
    ks[i] = ResolveQueryGroup(g, q.vertices[i], k, nullptr, index, *scoped, nullptr);
  }
  return ks;
}

Community PeelToMbcc(const CandidateGraph& cg, std::vector<std::uint32_t> ks,
                     const std::vector<VertexId>& queries, const SearchOptions& opts,
                     std::uint64_t b, SearchStats* stats, QueryWorkspace& ws,
                     const ButterflyCounts* seed) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Community out;
  const std::size_t m = cg.NumGroups();
  BCCS_CHECK_EQ(queries.size(), m);
  BCCS_CHECK(seed == nullptr || m == 2) << "a seed count needs exactly one label pair";

  // Every id below is local to the candidate; `g` is its LabeledGraph view
  // for the kernels that read whole adjacency lists (distances and their
  // audit).
  const LabeledGraph& g = cg.graph();
  const std::size_t n = cg.NumVertices();
  std::vector<VertexId> lq(m);
  for (std::size_t i = 0; i < m; ++i) {
    lq[i] = cg.ToLocal(queries[i]);
    BCCS_CHECK(lq[i] != kInvalidVertex && cg.GroupOf(lq[i]) == i)
        << "query " << queries[i] << " is not in candidate group " << i;
  }
  const Deadline& deadline = ws.deadline();
  const Deadline* cascade_deadline = deadline.unlimited() ? nullptr : &deadline;

  // Phase-boundary deadline check: a query that already expired during
  // Find-G0 skips the candidate build and pairwise counting entirely.
  if (deadline.Expired()) {
    stats->timed_out = true;
    return out;
  }

  GroupedCandidate cand(cg, std::move(ks), ws);

  // --- Pair states and initial cross-group connectivity. ---
  // One pooled counts buffer serves every per-pair (re)count; chi entries
  // are only ever written for candidate members and scrubbed on release.
  ButterflyCounts counts;
  counts.chi = ws.U64ZeroPool().Acquire(n);
  std::vector<PairState> pairs;
  auto count_pair = [&](std::size_t i, std::size_t j) {
    ScopedAccumulator t(&stats->butterfly_seconds);
    ++stats->butterfly_counting_calls;
    CountButterfliesInto(cg, i, j, &cand.alive(), ws, &counts);
  };
  auto meta_connected = [&]() {
    UnionFind uf(m);
    for (const PairState& ps : pairs) {
      if (ps.active) uf.Union(static_cast<std::uint32_t>(ps.i), static_cast<std::uint32_t>(ps.j));
    }
    for (std::size_t i = 1; i < m; ++i) {
      if (!uf.Connected(0, static_cast<std::uint32_t>(i))) return false;
    }
    return true;
  };

  auto release_buffers = [&] {
    ws.U64ZeroPool().Release(std::move(counts.chi), cg.Vertices());
  };
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      // Phase-boundary check: the initial O(m^2) pairwise counts are the
      // most expensive pre-peel step, so an expiring query bails between
      // pairs instead of finishing the whole matrix.
      if (deadline.Expired()) {
        stats->timed_out = true;
        release_buffers();
        return out;
      }
      PairState ps;
      ps.i = i;
      ps.j = j;
      if (seed == nullptr) count_pair(i, j);
      const ButterflyCounts& initial = seed != nullptr ? *seed : counts;
      ps.active = initial.max_left >= b && initial.max_right >= b;
      if (ps.active && opts.use_leader_pair) {
        ScopedAccumulator t(&stats->leader_update_seconds);
        ps.leader_i = IdentifyLeader(cg, cand.alive(), lq[i], opts.leader_rho, b, initial,
                                     initial.max_left, initial.argmax_left, ws);
        ps.leader_j = IdentifyLeader(cg, cand.alive(), lq[j], opts.leader_rho, b, initial,
                                     initial.max_right, initial.argmax_right, ws);
      }
      pairs.push_back(ps);
    }
  }
  if (!meta_connected()) {
    release_buffers();
    return out;
  }
  // The candidate counts as G0 only once it passes the butterfly and
  // meta-connectivity check, as in the two-label Find-G0.
  stats->g0_size += cand.NumAlive();

  // --- Query distances (one BFS tree per query vertex). ---
  std::vector<DistanceMap*> dist(m);
  {
    ScopedAccumulator t(&stats->query_distance_seconds);
    for (std::size_t i = 0; i < m; ++i) {
      dist[i] = ws.AcquireDistance();
      BfsDistances(g, cand.alive(), lq[i], dist[i]);
    }
  }
  // Query distance of one vertex (Definition 5): max distance to any query.
  auto query_distance = [&](VertexId v) {
    std::uint32_t d = 0;
    for (std::size_t i = 0; i < m; ++i) {
      std::uint32_t di = dist[i]->Get(v);
      if (di == kInfDistance) return kInfDistance;
      d = std::max(d, di);
    }
    return d;
  };
  auto queries_connected = [&]() {
    for (std::size_t i = 1; i < m; ++i) {
      if (dist[0]->Get(lq[i]) == kInfDistance) return false;
    }
    return true;
  };

  LeaderButterflyUpdater updater(cg, ws.LeaderStamp(n), ws.LeaderStampCounter());
  // removal_round defaults to 0xffffffff = "never removed" (the pool default).
  std::vector<std::uint32_t> removal_round = ws.U32InfPool().Acquire(n);
  std::vector<std::uint32_t> round_qd;

  // Bucketed farthest-vertex selection: every alive member is queued at its
  // query distance; each round pops the maximum level.
  PeelQueue& queue = ws.peel_queue();
  queue.Reset(n);
  for (VertexId v = 0; v < n; ++v) queue.Update(v, query_distance(v));
  auto is_query = [&](VertexId v) {
    return std::find(lq.begin(), lq.end(), v) != lq.end();
  };

  std::vector<VertexId> batch;
  std::vector<VertexId> changed, changed_any;

  while (true) {
    if (deadline.Expired()) {
      stats->timed_out = true;
      break;
    }
    std::uint32_t qd = 0;
    if (!queue.PopFarthest(cand.alive(), is_query, &batch, &qd)) break;
    round_qd.push_back(qd);
    ++stats->rounds;
    if (batch.empty()) break;  // only the queries remain at max distance
    if (!opts.bulk_delete) {
      // Single-vertex deletion: peel the smallest global id for determinism
      // and requeue the untouched remainder.
      std::size_t min_idx = 0;
      for (std::size_t i = 1; i < batch.size(); ++i) {
        if (cg.ToGlobal(batch[i]) < cg.ToGlobal(batch[min_idx])) min_idx = i;
      }
      std::swap(batch[0], batch[min_idx]);
      for (std::size_t i = 1; i < batch.size(); ++i) queue.Requeue(batch[i]);
      batch.resize(1);
    }

    const auto round_idx = static_cast<std::uint32_t>(round_qd.size() - 1);

    // Delete + core maintenance (Algorithm 4); with leaders, Algorithm 7 runs
    // per removed vertex while the bipartite graph is still consistent.
    auto on_remove = [&](VertexId v) {
      const std::uint32_t gv = cand.GroupOf(v);
      for (PairState& ps : pairs) {
        if (!ps.active || (ps.i != gv && ps.j != gv)) continue;
        const auto gi = static_cast<std::uint32_t>(ps.i);
        const auto gj = static_cast<std::uint32_t>(ps.j);
        for (LeaderState* lead : {&ps.leader_i, &ps.leader_j}) {
          if (v == lead->leader || !cand.IsAlive(lead->leader)) continue;
          std::uint64_t loss =
              updater.LossOnDeletion(cand.alive(), gi, gj, lead->leader, v);
          lead->chi = loss > lead->chi ? 0 : lead->chi - loss;
        }
      }
    };
    bool cascade_expired = false;
    std::vector<VertexId> removed;
    if (opts.use_leader_pair) {
      ScopedAccumulator t(&stats->leader_update_seconds);
      removed = cand.RemoveAndMaintain(batch, on_remove, cascade_deadline, &cascade_expired);
    } else {
      removed = cand.RemoveAndMaintain(batch, [](VertexId) {}, cascade_deadline,
                                       &cascade_expired);
    }
    for (VertexId v : removed) removal_round[v] = round_idx;
    stats->vertices_removed += removed.size();
    if (cascade_expired) {
      // The cascade was cut short, so the surviving candidate may violate
      // its cores; every earlier recorded round is still a valid state.
      stats->timed_out = true;
      break;
    }

    bool query_dead = false;
    for (VertexId v : lq) query_dead |= !cand.IsAlive(v);
    if (query_dead) break;

    // Butterfly / cross-group-connectivity maintenance, validated exactly
    // every round. Leaderless peels recount every active pair (Algorithm 3).
    // Leader chi is maintained exactly (Algorithm 7), so two live leaders at
    // chi >= b validate a pair without a recount.
    bool deactivated = false;
    for (PairState& ps : pairs) {
      if (!ps.active) continue;
      if (opts.use_leader_pair) {
        bool i_ok = cand.IsAlive(ps.leader_i.leader) && ps.leader_i.chi >= b;
        bool j_ok = cand.IsAlive(ps.leader_j.leader) && ps.leader_j.chi >= b;
        if (i_ok && j_ok) continue;
        ++stats->leader_rebuilds;
      }
      count_pair(ps.i, ps.j);
      if (counts.max_left < b || counts.max_right < b) {
        ps.active = false;  // never maintained or examined again
        deactivated = true;
        continue;
      }
      if (opts.use_leader_pair) {
        ScopedAccumulator t(&stats->leader_update_seconds);
        ps.leader_i = IdentifyLeader(cg, cand.alive(), lq[ps.i], opts.leader_rho, b, counts,
                                     counts.max_left, counts.argmax_left, ws);
        ps.leader_j = IdentifyLeader(cg, cand.alive(), lq[ps.j], opts.leader_rho, b, counts,
                                     counts.max_right, counts.argmax_right, ws);
      }
    }
    // The meta-graph only loses edges, so it can disconnect only in a round
    // that deactivated a pair.
    if (deactivated && !meta_connected()) break;

    // Query distance maintenance. Only vertices whose distance changed need
    // a queue update; the incremental repair reports exactly those. The
    // queue is updated once every map is repaired, so each update sees the
    // final distance.
    {
      ScopedAccumulator t(&stats->query_distance_seconds);
      if (opts.fast_query_distance) {
        changed_any.clear();
        for (std::size_t i = 0; i < m; ++i) {
          UpdateDistancesAfterDeletion(g, cand.alive(), removed, dist[i], &changed);
#if BCCS_DCHECK_IS_ON
          // Debug-level audit (DESIGN.md contract 9): repaired distances and
          // level counts must match a fresh BFS after every round, with no
          // repair mark left.
          AuditDistanceMap(g, cand.alive(), lq[i], *dist[i]);
#endif
          changed_any.insert(changed_any.end(), changed.begin(), changed.end());
        }
        for (VertexId v : changed_any) {
          if (cand.IsAlive(v)) queue.Update(v, query_distance(v));
        }
      } else {
        for (std::size_t i = 0; i < m; ++i) {
          BfsDistances(g, cand.alive(), lq[i], dist[i]);
        }
        for (VertexId v = 0; v < n; ++v) {
          if (cand.IsAlive(v)) queue.Update(v, query_distance(v));
        }
      }
    }
    if (!queries_connected()) break;
  }

  if (!round_qd.empty()) {
    // Answer: the intermediate community with the smallest query distance
    // (latest such round, which is the smallest such graph).
    std::size_t best = 0;
    for (std::size_t i = 1; i < round_qd.size(); ++i) {
      if (round_qd[i] <= round_qd[best]) best = i;
    }
    // Alive in round `best` = removed later or never (the pool default).
    // Counted first so that the answer, which callers such as the serving
    // stream keep, is allocated at its exact size.
    std::size_t size = 0;
    for (VertexId v = 0; v < n; ++v) size += removal_round[v] >= best ? 1 : 0;
    out.vertices.reserve(size);
    for (VertexId v = 0; v < n; ++v) {
      if (removal_round[v] >= best) out.vertices.push_back(cg.ToGlobal(v));
    }
    std::sort(out.vertices.begin(), out.vertices.end());
  }

  release_buffers();
  ws.U32InfPool().Release(std::move(removal_round), cg.Vertices());
  for (std::size_t i = 0; i < m; ++i) ws.ReleaseDistance(dist[i]);
  return out;
}

Community MbccSearch(const LabeledGraph& g, const MbccQuery& q, const MbccParams& p,
                     const SearchOptions& opts, SearchStats* stats,
                     const std::vector<char>* restrict_to, QueryWorkspace* ws,
                     const BcIndex* index) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Timer total;
  Community out;

  const std::size_t m = q.vertices.size();
  if (m < 2) return out;
  for (VertexId v : q.vertices) {
    if (v >= g.NumVertices()) return out;
    if (restrict_to != nullptr && !(*restrict_to)[v]) return out;
  }
  // Labels must be pairwise distinct.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      if (g.LabelOf(q.vertices[i]) == g.LabelOf(q.vertices[j])) return out;
    }
  }

  const ScopedWorkspace scoped(ws);

  // --- Find G0 (Algorithm 9 line 1): per-group k_i-core components, and
  // G[G0] over them. ---
  std::vector<std::vector<VertexId>> groups(m);
  std::vector<std::uint32_t> ks(m, 0);
  std::unique_ptr<CandidateGraph> cg;
  {
    ScopedAccumulator t(&stats->find_g0_seconds);
    bool dead_end = false;
    for (std::size_t i = 0; i < m && !dead_end; ++i) {
      const std::uint32_t k = i < p.k.size() ? p.k[i] : 0;
      ks[i] = ResolveQueryGroup(g, q.vertices[i], k, restrict_to, index, *scoped, &groups[i]);
      dead_end = groups[i].empty();
    }
    if (!dead_end) {
      const std::vector<std::span<const VertexId>> spans(groups.begin(), groups.end());
      cg = scoped->AcquireCandidateGraph();
      cg->Build(g, spans, *scoped);
    }
  }
  if (cg != nullptr) {
    out = PeelToMbcc(*cg, std::move(ks), q.vertices, opts, p.b, stats, *scoped);
    scoped->ReleaseCandidateGraph(std::move(cg));
  }
  stats->total_seconds += total.Seconds();
  return out;
}

}  // namespace bccs
