#include "bcc/online_search.h"

#include "bcc/mbcc.h"
#include "eval/timer.h"

namespace bccs {

Community PeelToBcc(const LabeledGraph& g, const G0Result& g0, const BccQuery& q,
                    const SearchOptions& opts, std::uint64_t b, SearchStats* stats,
                    QueryWorkspace* ws) {
  static_cast<void>(g);  // FindG0 already built G[G0] from it: g0.graph
  if (!g0.found) return {};
  return PeelToMbcc(*g0.graph, {g0.k1, g0.k2}, {q.ql, q.qr}, opts, b, stats, ws,
                    &g0.counts);
}

Community BccSearch(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                    const SearchOptions& opts, SearchStats* stats, QueryWorkspace* ws,
                    const BcIndex* index) {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Timer total;
  G0Result g0 = FindG0(g, q, p, stats, ws, index);
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
