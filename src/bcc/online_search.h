#ifndef BCCS_BCC_ONLINE_SEARCH_H_
#define BCCS_BCC_ONLINE_SEARCH_H_

#include "bcc/bcc_types.h"
#include "bcc/find_g0.h"
#include "graph/labeled_graph.h"

namespace bccs {

/// Peels G0 to the two-label BCC: an adapter that runs the shared engine
/// PeelToMbcc (bcc/mbcc.h) with m = 2 on g0.graph — G[G0] of `g` as Find-G0
/// built it, groups {g0.left, g0.right} — with cores {g0.k1, g0.k2} and
/// queries {ql, qr}, seeded with Find-G0's butterfly counts, so neither the
/// candidate graph nor the initial count is redone. Returns empty when
/// !g0.found.
///
/// Used by Online-BCC, LP-BCC (this header) and L2P-BCC (local_search.h).
/// `b` is the butterfly threshold; `stats` may be null. Does not accumulate
/// total_seconds (callers own end-to-end timing). `ws` may be null (a
/// scoped workspace is used; identical results).
Community PeelToBcc(const LabeledGraph& g, const G0Result& g0, const BccQuery& q,
                    const SearchOptions& opts, std::uint64_t b, SearchStats* stats,
                    QueryWorkspace* ws = nullptr);

/// Full search: Find-G0 then peel. Respects every option combination.
/// `index` (optional, built over `g`) lets Find-G0 read the query groups'
/// coreness instead of peeling them; the result is identical.
Community BccSearch(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                    const SearchOptions& opts, SearchStats* stats,
                    QueryWorkspace* ws = nullptr, const BcIndex* index = nullptr);

/// Paper's Online-BCC: bulk deletion, full BFS distances, full butterfly
/// recount per round.
Community OnlineBcc(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                    SearchStats* stats = nullptr, QueryWorkspace* ws = nullptr);

/// Paper's LP-BCC: Online-BCC plus fast query distance (Algorithm 5) and the
/// leader-pair strategy (Algorithms 6 and 7).
Community LpBcc(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                SearchStats* stats = nullptr, QueryWorkspace* ws = nullptr);

}  // namespace bccs

#endif  // BCCS_BCC_ONLINE_SEARCH_H_
