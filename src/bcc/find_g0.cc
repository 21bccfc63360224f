#include "bcc/find_g0.h"

#include <algorithm>

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
                                QueryWorkspace& ws, std::vector<VertexId>* side) {
  if (side != nullptr) side->clear();
  const Label label = g.LabelOf(q);
  std::span<const VertexId> group = g.VerticesWithLabel(label);
  if (index != nullptr && restrict_to == nullptr) {
    const std::uint32_t k_arg = k;
    if (k == 0) k = index->Coreness(q);
    if (k > 0 && side != nullptr) index->LabelForest(label).Component(group, q, k, side);
#if BCCS_DCHECK_IS_ON
    AuditIndexGroup(g, q, k_arg, k, side);
#else
    (void)k_arg;
#endif
    return k;
  }
  CoreScratch& cs = ws.core_scratch();
  std::vector<VertexId>* members = ws.AcquireIdVec();
  if (restrict_to != nullptr) {
    for (VertexId v : group) {
      if ((*restrict_to)[v]) members->push_back(v);
    }
    group = *members;
  }
  if (k == 0) k = PeelCoreness(g, group, q, &cs);
  if (k > 0 && side != nullptr) {
    std::vector<VertexId>* core = ws.AcquireIdVec();
    KCoreOfSubsetScoped(g, group, k, &cs, core);
    ComponentContainingScoped(g, *core, q, &cs, side);
    ws.ReleaseIdVec(core);
  }
  ws.ReleaseIdVec(members);
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

  // Without a caller workspace, the candidate graph and chi buffer that the
  // scoped one pools into the result are simply owned by the result
  // afterwards: ReleaseG0Counts with a null ws is a no-op.
  const ScopedWorkspace scoped(ws);

  // Left and right cores, restricted to the component containing the
  // query; auto core parameters resolve to the query coreness inside its
  // group (paper Section 3.5). The right side is skipped once the left one
  // is empty. Then G[left ∪ right], which the seed count and the peel read.
  {
    ScopedAccumulator t(&stats->find_g0_seconds);
    out.k1 = ResolveQueryGroup(g, q.ql, p.k1, restrict_to, index, *scoped, &out.left);
    out.k2 = ResolveQueryGroup(g, q.qr, p.k2, restrict_to, index, *scoped,
                               out.left.empty() ? nullptr : &out.right);
    if (out.left.empty() || out.right.empty()) {
      out.left.clear();
      out.right.clear();
      return out;
    }
    const std::span<const VertexId> groups[2] = {out.left, out.right};
    out.graph = scoped->AcquireCandidateGraph();
    out.graph->Build(g, groups, *scoped);
  }

  // Butterfly check over B = cross edges between the two cores.
  out.counts.chi = scoped->U64ZeroPool().Acquire(out.graph->NumVertices());
  {
    ScopedAccumulator t(&stats->butterfly_seconds);
    CountButterfliesInto(*out.graph, 0, 1, nullptr, *scoped, &out.counts);
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
  if (ws == nullptr || g0->graph == nullptr) return;
  ws->U64ZeroPool().Release(std::move(g0->counts.chi), g0->graph->Vertices());
  g0->counts.chi.clear();
  ws->ReleaseCandidateGraph(std::move(g0->graph));
}

}  // namespace bccs
