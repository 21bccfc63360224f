#include "bcc/find_g0.h"

#include <algorithm>
#include <memory>

#include "bcc/bc_index.h"
#include "common/check.h"
#include "core/core_decomposition.h"
#include "eval/timer.h"

namespace bccs {
namespace {

#if BCCS_DCHECK_IS_ON
// Recomputes an index-resolved group with the paper's routines (bucket
// peel for auto-k, k-core peel, component) and CHECKs equality — DESIGN.md
// contract 10. Uses the allocating variants so the workspace is untouched.
void AuditIndexGroup(const LabeledGraph& g, VertexId q, std::uint32_t k_arg,
                     std::uint32_t k, const std::vector<VertexId>* side) {
  std::span<const VertexId> group = g.VerticesWithLabel(g.LabelOf(q));
  if (k_arg == 0) {
    BCCS_DCHECK_EQ(k, SubsetCoreness(g, group)[q]) << "index coreness audit: vertex " << q;
  }
  if (side == nullptr || k == 0) return;
  BCCS_DCHECK(*side == ComponentContaining(g, KCoreOfSubset(g, group, k), q))
      << "index k-core audit: vertex " << q << " k=" << k;
}
#endif

}  // namespace

std::uint32_t ResolveQueryGroup(const LabeledGraph& g, VertexId q, std::uint32_t k,
                                const std::vector<char>* restrict_to, const BcIndex* index,
                                QueryWorkspace* ws, std::vector<VertexId>* side) {
  if (side != nullptr) side->clear();
  std::span<const VertexId> group = g.VerticesWithLabel(g.LabelOf(q));
  CoreScratch& cs = ws->core_scratch();
  std::vector<VertexId>* members = ws->AcquireIdVec();
  if (index != nullptr && restrict_to == nullptr) {
    const std::uint32_t k_arg = k;
    if (k == 0) k = index->Coreness(q);
    if (k > 0 && side != nullptr) {
      for (VertexId v : group) {
        if (index->Coreness(v) >= k) members->push_back(v);
      }
      ComponentContainingScoped(g, *members, q, &cs, side);
    }
#if BCCS_DCHECK_IS_ON
    AuditIndexGroup(g, q, k_arg, k, side);
#else
    (void)k_arg;
#endif
  } else {
    if (restrict_to != nullptr) {
      for (VertexId v : group) {
        if ((*restrict_to)[v]) members->push_back(v);
      }
      group = *members;
    }
    if (k == 0) k = SubsetCorenessOfScoped(g, group, q, &cs);
    if (k > 0 && side != nullptr) {
      std::vector<VertexId>* core = ws->AcquireIdVec();
      KCoreOfSubsetScoped(g, group, k, &cs, core);
      ComponentContainingScoped(g, *core, q, &cs, side);
      ws->ReleaseIdVec(core);
    }
  }
  ws->ReleaseIdVec(members);
  return k;
}

G0Result FindG0Restricted(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                          const std::vector<char>* restrict_to, SearchStats* stats,
                          QueryWorkspace* ws, const BcIndex* index) {
  SearchStats local;
  if (stats == nullptr) stats = &local;
  G0Result out;
  if (q.ql >= g.NumVertices() || q.qr >= g.NumVertices()) return out;
  if (g.LabelOf(q.ql) == g.LabelOf(q.qr)) return out;

  // Without a caller workspace, run on a scoped one (same engine, cold
  // cost comparable to the old per-call allocations). The chi buffer it
  // pools into out.counts is simply owned by the result afterwards —
  // ReleaseG0Counts with a null ws is a no-op.
  std::unique_ptr<QueryWorkspace> scoped_ws;
  QueryWorkspace* active_ws = ws;
  if (active_ws == nullptr) {
    scoped_ws = std::make_unique<QueryWorkspace>();
    active_ws = scoped_ws.get();
  }

  // Left and right cores, restricted to the component containing the
  // query; auto core parameters resolve to the query coreness inside its
  // group (paper Section 3.5). The right side is skipped once the left one
  // is empty.
  out.k1 = ResolveQueryGroup(g, q.ql, p.k1, restrict_to, index, active_ws, &out.left);
  out.k2 = ResolveQueryGroup(g, q.qr, p.k2, restrict_to, index, active_ws,
                             out.left.empty() ? nullptr : &out.right);
  if (out.left.empty() || out.right.empty()) {
    out.left.clear();
    out.right.clear();
    return out;
  }

  // Butterfly check over B = cross edges between the two cores.
  {
    std::vector<char> in_left = active_ws->CharPool().Acquire(g.NumVertices());
    std::vector<char> in_right = active_ws->CharPool().Acquire(g.NumVertices());
    for (VertexId v : out.left) in_left[v] = 1;
    for (VertexId v : out.right) in_right[v] = 1;
    out.counts.chi = active_ws->U64ZeroPool().Acquire(g.NumVertices());
    {
      ScopedAccumulator t(&stats->butterfly_seconds);
      CountButterfliesInto(g, out.left, out.right, in_left, in_right, active_ws, &out.counts);
    }
    active_ws->CharPool().Release(std::move(in_left), out.left);
    active_ws->CharPool().Release(std::move(in_right), out.right);
  }
  ++stats->butterfly_counting_calls;
  if (out.counts.max_left < p.b || out.counts.max_right < p.b) return out;

  out.found = true;
  return out;
}

G0Result FindG0(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                SearchStats* stats, QueryWorkspace* ws, const BcIndex* index) {
  return FindG0Restricted(g, q, p, nullptr, stats, ws, index);
}

void ReleaseG0Counts(QueryWorkspace* ws, G0Result* g0) {
  if (ws == nullptr || g0->counts.chi.empty()) return;
  std::vector<std::uint64_t> chi = std::move(g0->counts.chi);
  g0->counts.chi.clear();
  for (VertexId v : g0->left) chi[v] = 0;
  for (VertexId v : g0->right) chi[v] = 0;
  ws->U64ZeroPool().ReleaseClean(std::move(chi));
}

}  // namespace bccs
