#include "bcc/leader_pair.h"

namespace bccs {

LeaderState IdentifyLeader(const CandidateGraph& cg, const std::vector<char>& alive,
                           VertexId q, std::uint32_t rho, std::uint64_t b,
                           const ButterflyCounts& counts, std::uint64_t side_max,
                           VertexId side_argmax, QueryWorkspace* ws) {
  LeaderState out;
  out.leader = q;
  out.chi = counts.chi[q];

  std::uint64_t bp = side_max / 2;
  if (out.chi > bp) return out;  // the query itself is leader-biased

  // BFS level sets within the side graph, up to rho hops.
  std::vector<std::vector<VertexId>> levels;
  {
    const std::uint32_t side = cg.GroupOf(q);
    std::vector<char> visited = ws != nullptr ? ws->CharPool().Acquire(cg.NumVertices())
                                              : std::vector<char>(cg.NumVertices(), 0);
    visited[q] = 1;
    std::vector<VertexId> frontier = {q};
    for (std::uint32_t d = 0; d < rho && !frontier.empty(); ++d) {
      std::vector<VertexId> next;
      for (VertexId v : frontier) {
        for (VertexId w : cg.NeighborsIn(v, side)) {
          if (!alive[w] || visited[w]) continue;
          visited[w] = 1;
          next.push_back(w);
        }
      }
      frontier = next;
      levels.push_back(std::move(next));
    }
    if (ws != nullptr) {
      visited[q] = 0;
      for (const auto& level : levels) {
        for (VertexId v : level) visited[v] = 0;
      }
      ws->CharPool().ReleaseClean(std::move(visited));
    }
  }

  while (bp >= b && bp > 0) {
    for (const auto& level : levels) {
      for (VertexId s : level) {
        if (counts.chi[s] >= bp) {
          out.leader = s;
          out.chi = counts.chi[s];
          return out;
        }
      }
    }
    bp /= 2;
  }

  // Fallback: the side's maximum-degree vertex (always satisfies chi >= b
  // when the side passes the BCC butterfly check).
  if (side_argmax != kInvalidVertex && counts.chi[side_argmax] > out.chi) {
    out.leader = side_argmax;
    out.chi = counts.chi[side_argmax];
  }
  return out;
}

}  // namespace bccs
