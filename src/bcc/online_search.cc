#include "bcc/online_search.h"

#include <algorithm>
#include <memory>

#include "bcc/candidate.h"
#include "bcc/leader_pair.h"
#include "bcc/query_distance.h"
#include "butterfly/butterfly_counting.h"
#include "butterfly/butterfly_update.h"
#include "butterfly/peel_counter.h"
#include "common/check.h"
#include "eval/timer.h"

namespace bccs {
namespace {

// Query distance of one vertex (Definition 5): max distance to any query.
inline std::uint32_t QueryDistance(std::uint32_t dl, std::uint32_t dr) {
  if (dl == kInfDistance || dr == kInfDistance) return kInfDistance;
  return std::max(dl, dr);
}

}  // namespace

Community PeelToBcc(const LabeledGraph& g, const G0Result& g0, const BccQuery& q,
                    const SearchOptions& opts, std::uint64_t b, SearchStats* stats,
                    QueryWorkspace* ws) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Community out;
  if (!g0.found) return out;

  // Callers without a warm workspace still run through the same engine on a
  // scoped one (cold start costs what the old per-query allocations did).
  std::unique_ptr<QueryWorkspace> scoped_ws;
  if (ws == nullptr) {
    scoped_ws = std::make_unique<QueryWorkspace>();
    ws = scoped_ws.get();
  }
  const std::size_t n = g.NumVertices();

  // Phase-boundary deadline check: a query that already expired during
  // Find-G0 skips the candidate build and initial BFS entirely.
  if (ws->deadline().Expired()) {
    stats->timed_out = true;
    return out;
  }

  GroupedCandidate cand(g, {g0.left, g0.right}, {g0.k1, g0.k2}, ws);
  stats->g0_size += cand.NumAlive();

  // All initial members, used to scope resets and the final answer scan.
  std::vector<VertexId> members = g0.left;
  members.insert(members.end(), g0.right.begin(), g0.right.end());

  DistanceMap* dist_l = ws->AcquireDistance();
  DistanceMap* dist_r = ws->AcquireDistance();
  {
    ScopedAccumulator t(&stats->query_distance_seconds);
    BfsDistances(g, cand.alive(), q.ql, dist_l);
    BfsDistances(g, cand.alive(), q.qr, dist_r);
  }

  // Leader pair state (LP strategy).
  LeaderButterflyUpdater updater(g, ws->LeaderStamp(n), ws->LeaderStampCounter());
  const ButterflyCounts* counts = &g0.counts;
  ButterflyCounts recount;
  recount.chi = ws->U64ZeroPool().Acquire(n);
  LeaderState lead_l, lead_r;
  if (opts.use_leader_pair) {
    ScopedAccumulator t(&stats->leader_update_seconds);
    lead_l = IdentifyLeader(g, cand.GroupMask(0), q.ql, opts.leader_rho, b, *counts,
                            counts->max_left, counts->argmax_left, ws);
    lead_r = IdentifyLeader(g, cand.GroupMask(1), q.qr, opts.leader_rho, b, *counts,
                            counts->max_right, counts->argmax_right, ws);
  }

  // Incremental delta-chi maintenance for leaderless peels: seeded from
  // Find-G0's exact counts (same candidate, all members alive) and debited
  // per removed vertex inside the cascade. chi is exact integer arithmetic
  // both ways, so every validity decision below is bit-identical with the
  // counter on or off. Leader-pair peels keep only the leaders' chi
  // (Algorithm 7) and recount on a leader rebuild, as Algorithms 6-7 do.
  PeelButterflyCounter* pc = nullptr;
  if (opts.incremental_butterflies && !opts.use_leader_pair && g0.counts.chi.size() == n) {
    pc = ws->AcquirePeelCounter();
    pc->Init(g, g0.left, g0.right, cand.GroupMask(0), cand.GroupMask(1), ws);
    pc->SeedFrom(g0.counts);
  }

  // removal_round defaults to 0xffffffff = "never removed" (the pool default).
  std::vector<std::uint32_t> removal_round = ws->U32InfPool().Acquire(n);
  std::vector<std::uint32_t> round_qd;

  const Deadline& deadline = ws->deadline();
  const Deadline* cascade_deadline = deadline.unlimited() ? nullptr : &deadline;

  // Bucketed farthest-vertex selection: every alive member is queued at its
  // query distance; each round pops the maximum level.
  PeelQueue& queue = ws->peel_queue();
  queue.Reset(n);
  for (VertexId v : members) {
    queue.Update(v, QueryDistance(dist_l->Get(v), dist_r->Get(v)));
  }
  auto is_query = [&](VertexId v) { return v == q.ql || v == q.qr; };

  std::vector<VertexId> batch;
  std::vector<VertexId> changed_l, changed_r;

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
      // Single-vertex deletion: peel the smallest id for determinism and
      // requeue the untouched remainder.
      std::size_t min_idx = 0;
      for (std::size_t i = 1; i < batch.size(); ++i) {
        if (batch[i] < batch[min_idx]) min_idx = i;
      }
      std::swap(batch[0], batch[min_idx]);
      for (std::size_t i = 1; i < batch.size(); ++i) queue.Requeue(batch[i]);
      batch.resize(1);
    }

    const auto round_idx = static_cast<std::uint32_t>(round_qd.size() - 1);

    // Delete + core maintenance (Algorithm 4); incremental chi debits or
    // Algorithm 7 run per removed vertex while the bipartite graph is still
    // consistent.
    bool cascade_expired = false;
    std::vector<VertexId> removed;
    if (pc != nullptr) {
      ScopedAccumulator t(&stats->butterfly_delta_seconds);
      removed = cand.RemoveAndMaintain(
          batch, [&](VertexId v) { pc->OnRemove(v); }, cascade_deadline, &cascade_expired);
    } else if (opts.use_leader_pair) {
      ScopedAccumulator t(&stats->leader_update_seconds);
      removed = cand.RemoveAndMaintain(
          batch,
          [&](VertexId v) {
            for (LeaderState* lead : {&lead_l, &lead_r}) {
              if (v == lead->leader || !cand.IsAlive(lead->leader)) continue;
              std::uint64_t loss = updater.LossOnDeletion(cand.GroupMask(0), cand.GroupMask(1),
                                                          lead->leader, v);
              lead->chi = loss > lead->chi ? 0 : lead->chi - loss;
            }
          },
          cascade_deadline, &cascade_expired);
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

    if (!cand.IsAlive(q.ql) || !cand.IsAlive(q.qr)) break;

    // Butterfly condition maintenance, validated exactly every round. Counts
    // come from the maintained delta-chi when the counter runs (recount
    // avoided, SearchStats::delta_rounds), otherwise from a full recount.
    // Identical values either way.
    auto exact_counts = [&]() -> const ButterflyCounts& {
      if (pc != nullptr) {
        ++stats->delta_rounds;
        return pc->RefreshMaxes();
      }
      {
        ScopedAccumulator t(&stats->butterfly_seconds);
        CountButterfliesInto(g, g0.left, g0.right, cand.GroupMask(0), cand.GroupMask(1), ws,
                             &recount);
      }
      ++stats->butterfly_counting_calls;
      return recount;
    };
    bool valid = true;
    if (opts.use_leader_pair) {
      // Leader chi is maintained exactly, so two live leaders at chi >= b
      // validate the round without a recount.
      bool left_ok = cand.IsAlive(lead_l.leader) && lead_l.chi >= b;
      bool right_ok = cand.IsAlive(lead_r.leader) && lead_r.chi >= b;
      if (!left_ok || !right_ok) {
        const ButterflyCounts& rc = exact_counts();
        ++stats->leader_rebuilds;
        if (rc.max_left < b || rc.max_right < b) {
          valid = false;
        } else {
          ScopedAccumulator t(&stats->leader_update_seconds);
          lead_l = IdentifyLeader(g, cand.GroupMask(0), q.ql, opts.leader_rho, b, rc,
                                  rc.max_left, rc.argmax_left, ws);
          lead_r = IdentifyLeader(g, cand.GroupMask(1), q.qr, opts.leader_rho, b, rc,
                                  rc.max_right, rc.argmax_right, ws);
        }
      }
    } else {
      const ButterflyCounts& rc = exact_counts();
      if (rc.max_left < b || rc.max_right < b) valid = false;
    }
#if BCCS_DCHECK_IS_ON
    // Debug-level equivalence audit (DESIGN.md contract 8): maintained chi
    // must match a from-scratch recount after every round.
    if (pc != nullptr) pc->AuditAgainstRecount();
#endif
    if (!valid) break;

    // Query distance maintenance. Only vertices whose distance changed need
    // a queue update; the incremental repair reports exactly those.
    {
      ScopedAccumulator t(&stats->query_distance_seconds);
      if (opts.fast_query_distance) {
        UpdateDistancesAfterDeletion(g, cand.alive(), removed, dist_l, &changed_l);
        UpdateDistancesAfterDeletion(g, cand.alive(), removed, dist_r, &changed_r);
#if BCCS_DCHECK_IS_ON
        // Debug-level audit (DESIGN.md contract 9): repaired distances and
        // support counts must match a fresh BFS after every round.
        AuditDistanceMap(g, cand.alive(), q.ql, *dist_l);
        AuditDistanceMap(g, cand.alive(), q.qr, *dist_r);
#endif
        for (VertexId v : changed_l) {
          if (cand.IsAlive(v)) queue.Update(v, QueryDistance(dist_l->Get(v), dist_r->Get(v)));
        }
        for (VertexId v : changed_r) {
          if (cand.IsAlive(v)) queue.Update(v, QueryDistance(dist_l->Get(v), dist_r->Get(v)));
        }
      } else {
        BfsDistances(g, cand.alive(), q.ql, dist_l);
        BfsDistances(g, cand.alive(), q.qr, dist_r);
        for (VertexId v : members) {
          if (cand.IsAlive(v)) queue.Update(v, QueryDistance(dist_l->Get(v), dist_r->Get(v)));
        }
      }
    }
    if (dist_l->Get(q.qr) == kInfDistance) break;  // queries disconnected
  }

  if (!round_qd.empty()) {
    // Answer: the intermediate BCC with the smallest query distance (latest
    // such round, which is the smallest such graph).
    std::size_t best = 0;
    for (std::size_t i = 1; i < round_qd.size(); ++i) {
      if (round_qd[i] <= round_qd[best]) best = i;
    }
    for (VertexId v : members) {
      if (removal_round[v] >= best) out.vertices.push_back(v);  // alive = never removed
    }
    std::sort(out.vertices.begin(), out.vertices.end());
  }

  if (pc != nullptr) ws->ReleasePeelCounter(pc);
  ws->U32InfPool().Release(std::move(removal_round), members);
  ws->U64ZeroPool().Release(std::move(recount.chi), members);
  ws->ReleaseDistance(dist_l);
  ws->ReleaseDistance(dist_r);
  return out;
}

Community BccSearch(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                    const SearchOptions& opts, SearchStats* stats, QueryWorkspace* ws,
                    const BcIndex* index) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Timer total;
  G0Result g0;
  {
    ScopedAccumulator t(&stats->find_g0_seconds);
    g0 = FindG0(g, q, p, stats, ws, index);
  }
  Community out = PeelToBcc(g, g0, q, opts, p.b, stats, ws);
  ReleaseG0Counts(ws, &g0);
  stats->total_seconds += total.Seconds();
  return out;
}

Community OnlineBcc(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                    SearchStats* stats, QueryWorkspace* ws) {
  return BccSearch(g, q, p, OnlineBccOptions(), stats, ws);
}

Community LpBcc(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                SearchStats* stats, QueryWorkspace* ws) {
  return BccSearch(g, q, p, LpBccOptions(), stats, ws);
}

}  // namespace bccs
