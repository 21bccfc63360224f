#ifndef BCCS_GRAPH_GRAPH_DELTA_H_
#define BCCS_GRAPH_GRAPH_DELTA_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/labeled_graph.h"

namespace bccs {

/// The edge-update layer of the dynamic-graph subsystem.
///
/// A serving process observes the graph as an immutable CSR snapshot
/// (graph/labeled_graph.h, graph/snapshot.h); evolution arrives as batches of
/// `EdgeUpdate`s. The pipeline is
///
///   raw updates --BuildGraphDelta--> GraphDelta --ApplyGraphDelta--> graph'
///
/// BuildGraphDelta validates the batch against the base graph with
/// sequential semantics (an insert of a present edge or a delete of an
/// absent edge — relative to the updates already applied — is an error with
/// the offending update's index) and normalizes it into the *net* toggle
/// set: each edge appears at most once, as an insert of an edge absent from
/// the base or a delete of an edge present in it. Downstream consumers
/// (BcIndex::ApplyUpdates, the snapshot changelog replay) therefore never
/// see the same edge twice in one batch.
///
/// Edge updates never change the vertex set or the labeling, so
/// ApplyGraphDelta rebuilds only the adjacency CSR; the label arrays (and
/// the label-group CSR) of the result *share* the base graph's storage —
/// including mmap'ed snapshot views, whose keepalive the result inherits.

/// One edge-level mutation of a labeled graph.
enum class EdgeUpdateKind : std::uint8_t { kInsert = 0, kDelete = 1 };

struct EdgeUpdate {
  EdgeUpdateKind kind = EdgeUpdateKind::kInsert;
  Edge edge;

  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

/// A validated, normalized update batch relative to one base graph: the net
/// effect of the raw update sequence. `inserts` are absent from the base,
/// `deletes` present in it; both are canonical (u < v), lexicographically
/// sorted, and disjoint.
struct GraphDelta {
  std::vector<Edge> inserts;
  std::vector<Edge> deletes;

  bool Empty() const { return inserts.empty() && deletes.empty(); }
  std::size_t Size() const { return inserts.size() + deletes.size(); }
};

/// Validates `updates` against `g` under sequential semantics and returns
/// the normalized net delta. Rejected batches (vertex id out of range, self
/// loop, insert of a present edge, delete of an absent edge — presence
/// evaluated after the preceding updates) return std::nullopt and set
/// `error` to a reason naming the first offending update's 0-based index.
std::optional<GraphDelta> BuildGraphDelta(const LabeledGraph& g,
                                          std::span<const EdgeUpdate> updates,
                                          std::string* error = nullptr);

/// The edges of a delta that fall in one label group, or between one pair of
/// label groups.
struct DeltaSlice {
  std::vector<Edge> inserts;
  std::vector<Edge> deletes;
};

/// A delta split by the labels its edges join. Intra-label edges are keyed
/// by their label: they change that group's coreness. Cross-label edges are
/// keyed by their canonical (first < second) label pair: they change that
/// pair's butterflies. The two effects are disjoint. Both maps iterate in
/// ascending key order, and each slice keeps the delta's edge order.
struct LabelRouting {
  std::map<Label, DeltaSlice> intra;
  std::map<std::pair<Label, Label>, DeltaSlice> cross;
};

/// Routes `delta` by the labels of `g`. Edge updates never relabel, so any
/// graph the delta was built against or applied to gives the same routing.
LabelRouting RouteByLabel(const LabeledGraph& g, const GraphDelta& delta);

/// Applies a delta built against `g` and returns the updated graph. The
/// adjacency CSR is rebuilt in O(V + E + |delta| log d_max), straight into
/// page-mapped arrays of exact size (common/page_array.h), so dropping the
/// result's last copy hands its pages back to the OS. The label arrays are
/// shared with `g` (zero-copy, keepalive inherited), so `g` — or the
/// snapshot mapping backing it — must outlive the result exactly as it must
/// outlive `g` itself.
LabeledGraph ApplyGraphDelta(const LabeledGraph& g, const GraphDelta& delta);

/// Text format for update files (tools/bccs_update, bccs_query
/// --updates-file), one update per line:
///   + <u> <v>     insert undirected edge {u, v}
///   - <u> <v>     delete undirected edge {u, v}
/// '#' comments, blank lines and CRLF endings are tolerated, mirroring
/// graph_io. Malformed lines are a hard error with the 1-based line number.
std::optional<std::vector<EdgeUpdate>> ReadEdgeUpdates(std::istream& in,
                                                       std::string* error = nullptr);
std::optional<std::vector<EdgeUpdate>> ReadEdgeUpdatesFromFile(const std::string& path,
                                                               std::string* error = nullptr);

}  // namespace bccs

#endif  // BCCS_GRAPH_GRAPH_DELTA_H_
