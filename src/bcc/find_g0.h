#ifndef BCCS_BCC_FIND_G0_H_
#define BCCS_BCC_FIND_G0_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bcc/bcc_types.h"
#include "bcc/candidate_graph.h"
#include "bcc/workspace.h"
#include "butterfly/butterfly_counting.h"
#include "graph/labeled_graph.h"

namespace bccs {

class BcIndex;  // bcc/bc_index.h

/// Result of the paper's Algorithm 2: the maximal connected (k1, k2, b)-BCC
/// G0 containing the query pair.
struct G0Result {
  bool found = false;
  /// Members of the left k1-core component containing q_l, sorted.
  std::vector<VertexId> left;
  /// Members of the right k2-core component containing q_r, sorted.
  std::vector<VertexId> right;
  /// G[left ∪ right] with local ids (group 0 = left, group 1 = right),
  /// built once here and peeled by PeelToBcc without a rebuild. Null when
  /// either side is empty.
  std::unique_ptr<CandidateGraph> graph;
  /// Butterfly degrees over B(left, right), from the Algorithm 3 run,
  /// indexed by `graph`'s local ids (argmaxes too).
  ButterflyCounts counts;
  /// Resolved core parameters (auto parameters replaced by query coreness).
  std::uint32_t k1 = 0;
  std::uint32_t k2 = 0;
};

/// Algorithm 2 on the whole graph. Accumulates stats->find_g0_seconds for
/// the query groups and the candidate-graph build, and
/// stats->butterfly_seconds (plus one butterfly_counting_calls) for the
/// embedded Algorithm 3 run, so the two phases are exclusive. `stats` may be
/// null.
///
/// The core/component/butterfly scratch comes from the workspace's pools.
/// With a caller's `ws`, `graph` and `counts.chi` of the result are pooled:
/// the caller must hand the finished result to ReleaseG0Counts(ws, &g0).
/// Without one, the call runs on a scoped workspace (ScopedWorkspace) and the
/// result owns them; results are identical either way.
///
/// With an `index` built over `g`, the two query groups resolve from its
/// stored coreness instead of a peel (ResolveQueryGroup); the result is
/// identical.
G0Result FindG0(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                SearchStats* stats, QueryWorkspace* ws = nullptr,
                const BcIndex* index = nullptr);

/// Algorithm 2 restricted to the vertices enabled in `restrict_to` (the L2P
/// local candidate G_t). Pass null for no restriction; a restricted call
/// always peels, since coreness inside G_t is not the index's delta(v).
G0Result FindG0Restricted(const LabeledGraph& g, const BccQuery& q, const BccParams& p,
                          const std::vector<char>* restrict_to, SearchStats* stats,
                          QueryWorkspace* ws = nullptr, const BcIndex* index = nullptr);

/// One query group of Find-G0 (Algorithm 2, and Algorithm 9 line 1 per
/// group). Resolves the group's core parameter — `k` == 0 means auto: the
/// coreness of `q` within its label group (paper Section 3.5) — and, when
/// `side` is non-null, writes the component containing `q` of the group's
/// k-core, sorted ascending. Returns the resolved k; with 0 (no usable core)
/// `side` stays empty. The group is q's label group, intersected with
/// `restrict_to` when non-null. `ws` supplies the scratch.
///
/// The single place where Find-G0 chooses between the BC-index and the
/// paper's peel: with an `index` over `g` and no restriction, auto-k is
/// index->Coreness(q) and the k-core is {v in group : Coreness(v) >= k}
/// (Batagelj-Zaversnik), so no peel runs. Otherwise it runs the bucket peel
/// and k-core peel. In BCCS_DCHECK builds the index path recomputes both
/// with the paper routines and CHECKs equality (DESIGN.md contract 10).
std::uint32_t ResolveQueryGroup(const LabeledGraph& g, VertexId q, std::uint32_t k,
                                const std::vector<char>* restrict_to, const BcIndex* index,
                                QueryWorkspace& ws, std::vector<VertexId>* side);

/// Returns a workspace-pooled `g0->counts.chi` buffer and candidate graph to
/// the pools (no-op for results produced without a workspace).
void ReleaseG0Counts(QueryWorkspace* ws, G0Result* g0);

}  // namespace bccs

#endif  // BCCS_BCC_FIND_G0_H_
