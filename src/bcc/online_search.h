#ifndef BCCS_BCC_ONLINE_SEARCH_H_
#define BCCS_BCC_ONLINE_SEARCH_H_

#include "bcc/bcc_types.h"
#include "bcc/find_g0.h"
#include "graph/labeled_graph.h"

namespace bccs {

/// The shared greedy peeling engine (paper's Algorithm 1 plus the Section 6
/// accelerations): starting from G0, repeatedly removes the farthest
/// vertex/batch from the queries, maintains the (k1, k2, b)-BCC structure
/// (Algorithm 4), and returns the intermediate BCC with the minimum query
/// distance — a 2-approximation of the minimum-diameter BCC (Theorem 3).
///
/// Option mapping:
///   - opts.bulk_delete: remove the whole farthest level per round;
///   - opts.fast_query_distance: Algorithm 5 incremental BFS repair;
///   - opts.use_leader_pair: Algorithms 6 + 7 instead of a full Algorithm 3
///     recount per round.
///
/// Used by Online-BCC, LP-BCC (this header) and L2P-BCC (local_search.h).
/// `b` is the butterfly threshold; `stats` may be null. Does not accumulate
/// total_seconds (callers own end-to-end timing).
///
/// The engine selects each round's farthest batch through an epoch-stamped
/// bucket queue keyed by query distance, so a round costs O(batch + distance
/// changes) instead of O(|members|). Passing a warm `ws` additionally makes
/// the whole round trip free of O(n) allocations; with ws == nullptr a
/// scoped workspace is used (identical results).
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
