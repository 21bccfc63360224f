#ifndef BCCS_BCC_LEADER_PAIR_H_
#define BCCS_BCC_LEADER_PAIR_H_

#include <cstdint>
#include <vector>

#include "bcc/candidate_graph.h"
#include "bcc/workspace.h"
#include "butterfly/butterfly_counting.h"
#include "graph/labeled_graph.h"

namespace bccs {

/// One side's leader: a vertex expected to keep a large butterfly degree
/// through many peeling rounds (paper Observations 1 and 2).
struct LeaderState {
  VertexId leader = kInvalidVertex;
  std::uint64_t chi = 0;
};

/// Paper's Algorithm 6 on one side graph of a candidate (local ids).
///
/// The side is `q`'s group of `cg`, restricted to `alive`; distances are
/// measured inside that induced subgraph, reading only the group's own
/// sub-ranges (CandidateGraph::NeighborsIn). `counts` is the latest
/// Algorithm 3 run over the candidate, `side_max` / `side_argmax` the side's
/// maximum butterfly degree and its vertex. Searches thresholds
/// b_p = side_max/2, /4, ... >= b within rho hops of `q`, level by level in
/// BFS order (ascending global id within each expansion); if the scan
/// fails, returns the side's argmax vertex, which is guaranteed to satisfy
/// chi >= b whenever the side satisfies the BCC butterfly condition.
/// `ws` supplies the visited-mask scratch so repeated calls stay free of
/// allocations.
LeaderState IdentifyLeader(const CandidateGraph& cg, const std::vector<char>& alive,
                           VertexId q, std::uint32_t rho, std::uint64_t b,
                           const ButterflyCounts& counts, std::uint64_t side_max,
                           VertexId side_argmax, QueryWorkspace& ws);

}  // namespace bccs

#endif  // BCCS_BCC_LEADER_PAIR_H_
