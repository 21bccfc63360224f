#ifndef BCCS_BCC_MBCC_H_
#define BCCS_BCC_MBCC_H_

#include <cstdint>
#include <vector>

#include "bcc/bcc_types.h"
#include "bcc/workspace.h"
#include "graph/labeled_graph.h"

namespace bccs {

class BcIndex;            // bcc/bc_index.h
class CandidateGraph;     // bcc/candidate_graph.h
struct ButterflyCounts;  // butterfly/butterfly_counting.h

/// Query of the Section 7 multi-labeled BCC model: m >= 2 vertices with
/// pairwise-distinct labels.
struct MbccQuery {
  std::vector<VertexId> vertices;
};

/// Parameters of the mBCC model. `k` is per query group (empty or zero
/// entries mean "auto" = the query's coreness within its label group);
/// `b` is the shared butterfly threshold of Definition 7/8.
struct MbccParams {
  std::vector<std::uint32_t> k;
  std::uint64_t b = 1;
};

/// Paper's Algorithm 9: finds a connected mBCC containing every query with a
/// small diameter. Find-G0 (line 1) resolves each query group's k_i-core
/// component (ResolveQueryGroup in bcc/find_g0.h) and builds G[G0] from
/// them, both charged to find_g0_seconds; PeelToMbcc then peels it.
///
/// When `restrict_to` is non-null, the whole search is confined to the
/// enabled vertices (used by the L2P local extension); auto core parameters
/// then resolve within the restriction.
///
/// Pass a warm `ws` for allocation-free steady-state execution, or nullptr
/// for a scoped one.
///
/// With an `index` built over `g` and no restriction, the per-group cores
/// resolve from its stored coreness instead of a peel; the result is
/// identical.
Community MbccSearch(const LabeledGraph& g, const MbccQuery& q, const MbccParams& p,
                     const SearchOptions& opts, SearchStats* stats = nullptr,
                     const std::vector<char>* restrict_to = nullptr,
                     QueryWorkspace* ws = nullptr, const BcIndex* index = nullptr);

/// The greedy peeling engine of every BCC search: paper's Algorithm 1 with
/// the Section 6 accelerations, run over m >= 2 groups as Algorithm 9 does.
/// `cg` is G[G0] (bcc/candidate_graph.h): group i is Find-G0's component of
/// query `queries[i]` (global ids) with core parameter `ks[i]`. Each round
/// removes the farthest vertex/batch from the queries, maintains the group
/// cores (Algorithm 4), validates every active label pair's butterflies
/// exactly and cross-group connectivity (Definition 7) over the label
/// meta-graph with union-find. Returns the intermediate community with the
/// minimum query distance (global ids) — for m = 2 the 2-approximation of
/// the minimum-diameter BCC (Theorem 3), so two-label BCC is this engine's
/// m = 2 call (PeelToBcc).
///
/// The whole peel runs on `cg`'s local ids with |G0|-sized state; the
/// choices that depend on id order compare global ids, so answers are those
/// of a peel over the whole graph (DESIGN.md contract 11).
///
/// Option mapping:
///   - opts.bulk_delete: remove the whole farthest level per round;
///   - opts.fast_query_distance: incremental BFS repair (Algorithm 5);
///   - opts.use_leader_pair: per-pair leaders (Algorithms 6 + 7) instead of
///     a full Algorithm 3 recount per round;
///   - opts.incremental_butterflies: leaderless peels debit per-pair chi
///     (PeelButterflyCounter) instead of recounting.
///
/// `seed` (m = 2 only, may be null) is the butterfly count of the initial
/// candidate over `cg`'s local ids, e.g. Find-G0's; it replaces the
/// engine's own initial count. The farthest batch comes from an
/// epoch-stamped bucket queue, so a round costs O(batch + distance
/// changes); a warm `ws` makes the run allocation-free, nullptr uses a
/// scoped one (identical results). `stats` may be null; total_seconds is
/// not accumulated (callers own end-to-end timing).
Community PeelToMbcc(const CandidateGraph& cg, std::vector<std::uint32_t> ks,
                     const std::vector<VertexId>& queries, const SearchOptions& opts,
                     std::uint64_t b, SearchStats* stats, QueryWorkspace* ws = nullptr,
                     const ButterflyCounts* seed = nullptr);

/// The resolved per-group core parameters (auto entries replaced by query
/// coreness). Exposed for verification in tests and benchmarks. `ws`
/// (optional) supplies the coreness scratch for allocation-free resolution;
/// with an `index` over `g` the auto entries are read from it.
std::vector<std::uint32_t> ResolveMbccCores(const LabeledGraph& g, const MbccQuery& q,
                                            const MbccParams& p,
                                            QueryWorkspace* ws = nullptr,
                                            const BcIndex* index = nullptr);

}  // namespace bccs

#endif  // BCCS_BCC_MBCC_H_
