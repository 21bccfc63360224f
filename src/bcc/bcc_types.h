#ifndef BCCS_BCC_BCC_TYPES_H_
#define BCCS_BCC_BCC_TYPES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/labeled_graph.h"

namespace bccs {

/// A two-label BCC query: q_l and q_r must carry different labels.
struct BccQuery {
  VertexId ql = kInvalidVertex;
  VertexId qr = kInvalidVertex;
};

/// Parameters of the (k1, k2, b)-BCC model. k1/k2 = 0 means "auto": use the
/// coreness of the corresponding query vertex within its own label group
/// (the paper's default setting, Section 3.5).
struct BccParams {
  std::uint32_t k1 = 0;
  std::uint32_t k2 = 0;
  std::uint64_t b = 1;
};

/// A discovered community: a sorted set of vertex ids. Empty means "no BCC
/// exists for the query".
struct Community {
  std::vector<VertexId> vertices;

  bool Empty() const { return vertices.empty(); }
  std::size_t Size() const { return vertices.size(); }
  bool Contains(VertexId v) const {
    return std::binary_search(vertices.begin(), vertices.end(), v);
  }

  friend bool operator==(const Community&, const Community&) = default;
};

/// Per-query instrumentation. The Table-4 experiment reads the time splits
/// and the butterfly-counting call counter; the serving engine reads
/// `timed_out`.
struct SearchStats {
  std::size_t rounds = 0;
  /// Calls to the full butterfly-counting procedure (paper's Algorithm 3).
  std::size_t butterfly_counting_calls = 0;
  /// Leader re-identifications triggered by a leader dying or dropping
  /// below b.
  std::size_t leader_rebuilds = 0;
  /// Always 0, as is butterfly_delta_seconds: every leaderless peel round
  /// recounts (Algorithm 3). Kept for readers of the stats (perfbench).
  std::size_t delta_rounds = 0;
  std::size_t delta_fallbacks = 0;
  std::size_t vertices_removed = 0;
  std::size_t g0_size = 0;
  /// The query's deadline expired before peeling converged; the returned
  /// community is the best valid intermediate state (possibly empty), never
  /// an invalid one.
  bool timed_out = false;
  /// Find-G0's query groups and candidate-graph build. Exclusive of the
  /// seed count, which goes to butterfly_seconds, so the phases add up.
  double find_g0_seconds = 0;
  double query_distance_seconds = 0;
  double butterfly_seconds = 0;       // full counting (Find-G0's seed included)
  double butterfly_delta_seconds = 0;  // always 0 (see delta_rounds)
  double leader_update_seconds = 0;   // Algorithm 6/7 work
  double total_seconds = 0;

  SearchStats& operator+=(const SearchStats& o) {
    rounds += o.rounds;
    butterfly_counting_calls += o.butterfly_counting_calls;
    leader_rebuilds += o.leader_rebuilds;
    delta_rounds += o.delta_rounds;
    delta_fallbacks += o.delta_fallbacks;
    vertices_removed += o.vertices_removed;
    g0_size += o.g0_size;
    timed_out = timed_out || o.timed_out;
    find_g0_seconds += o.find_g0_seconds;
    query_distance_seconds += o.query_distance_seconds;
    butterfly_seconds += o.butterfly_seconds;
    butterfly_delta_seconds += o.butterfly_delta_seconds;
    leader_update_seconds += o.leader_update_seconds;
    total_seconds += o.total_seconds;
    return *this;
  }
};

/// Strategy switches of Section 6. Online-BCC = defaults with both
/// accelerations off; LP-BCC = both on.
struct SearchOptions {
  /// Remove the whole farthest batch per round instead of a single vertex.
  bool bulk_delete = true;
  /// Algorithm 5 incremental query-distance maintenance.
  bool fast_query_distance = false;
  /// Algorithms 6 + 7 leader-pair strategy instead of recounting all
  /// butterflies every round.
  bool use_leader_pair = false;
  /// Leader search radius rho of Algorithm 6.
  std::uint32_t leader_rho = 2;
};

inline SearchOptions OnlineBccOptions() { return SearchOptions{}; }

inline SearchOptions LpBccOptions() {
  SearchOptions o;
  o.fast_query_distance = true;
  o.use_leader_pair = true;
  return o;
}

}  // namespace bccs

#endif  // BCCS_BCC_BCC_TYPES_H_
