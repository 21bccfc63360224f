#include "graph/graph_delta.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/page_array.h"

namespace bccs {

/// Friend of LabeledGraph: assembles an updated graph from a rebuilt
/// adjacency CSR while sharing the base graph's label arrays (and the
/// keepalive of a mapped snapshot) untouched.
class GraphDeltaAccess {
 public:
  static LabeledGraph WithNewAdjacency(const LabeledGraph& base,
                                       ArrayRef<std::uint64_t> offsets,
                                       ArrayRef<VertexId> adjacency,
                                       std::size_t max_degree) {
    LabeledGraph g;
    g.offsets_ = std::move(offsets);
    g.adjacency_ = std::move(adjacency);
    g.labels_ = base.labels_;
    g.label_offsets_ = base.label_offsets_;
    g.label_members_ = base.label_members_;
    g.max_degree_ = max_degree;
    g.keepalive_ = base.keepalive_;
    return g;
  }
};

namespace {

std::uint64_t EdgeKey(const Edge& e) {
  return (static_cast<std::uint64_t>(e.u) << 32) | e.v;
}

}  // namespace

std::optional<GraphDelta> BuildGraphDelta(const LabeledGraph& g,
                                          std::span<const EdgeUpdate> updates,
                                          std::string* error) {
  const std::size_t n = g.NumVertices();
  auto fail = [error](std::size_t i, const std::string& msg) {
    if (error != nullptr) *error = "update #" + std::to_string(i) + ": " + msg;
    return std::nullopt;
  };

  // Edges toggled an odd number of times so far (keys are canonical).
  std::unordered_set<std::uint64_t> toggled;
  toggled.reserve(updates.size());

  for (std::size_t i = 0; i < updates.size(); ++i) {
    Edge e = updates[i].edge;
    if (e.u > e.v) std::swap(e.u, e.v);
    const std::string name =
        std::to_string(e.u) + "-" + std::to_string(e.v);
    if (e.v >= n) return fail(i, "vertex id out of range (graph has " +
                                     std::to_string(n) + " vertices)");
    if (e.u == e.v) return fail(i, "self loop " + name);
    const std::uint64_t key = EdgeKey(e);
    const bool present = g.HasEdge(e.u, e.v) != toggled.contains(key);
    if (updates[i].kind == EdgeUpdateKind::kInsert) {
      if (present) return fail(i, "insert of existing edge " + name);
    } else {
      if (!present) return fail(i, "delete of absent edge " + name);
    }
    if (!toggled.insert(key).second) toggled.erase(key);  // even toggles cancel
  }

  GraphDelta delta;
  for (std::uint64_t key : toggled) {
    const Edge e{static_cast<VertexId>(key >> 32),
                 static_cast<VertexId>(key & 0xffffffffu)};
    (g.HasEdge(e.u, e.v) ? delta.deletes : delta.inserts).push_back(e);
  }
  auto lex = [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  std::sort(delta.inserts.begin(), delta.inserts.end(), lex);
  std::sort(delta.deletes.begin(), delta.deletes.end(), lex);
  return delta;
}

LabelRouting RouteByLabel(const LabeledGraph& g, const GraphDelta& delta) {
  LabelRouting out;
  auto route = [&](const Edge& e, bool insert) {
    const Label a = g.LabelOf(e.u);
    const Label b = g.LabelOf(e.v);
    DeltaSlice& slice = a == b ? out.intra[a] : out.cross[std::minmax(a, b)];
    (insert ? slice.inserts : slice.deletes).push_back(e);
  };
  for (const Edge& e : delta.inserts) route(e, true);
  for (const Edge& e : delta.deletes) route(e, false);
  return out;
}

LabeledGraph ApplyGraphDelta(const LabeledGraph& g, const GraphDelta& delta) {
  if (delta.Empty()) return g;  // shares every array with the base

  const std::size_t n = g.NumVertices();
  // Directed patch half-edges, sorted by source so each vertex's slice can
  // be merged against its (sorted) base adjacency in one pass.
  std::vector<std::pair<VertexId, VertexId>> add, rem;
  add.reserve(delta.inserts.size() * 2);
  rem.reserve(delta.deletes.size() * 2);
  for (const Edge& e : delta.inserts) {
    add.emplace_back(e.u, e.v);
    add.emplace_back(e.v, e.u);
  }
  for (const Edge& e : delta.deletes) {
    rem.emplace_back(e.u, e.v);
    rem.emplace_back(e.v, e.u);
  }
  std::sort(add.begin(), add.end());
  std::sort(rem.begin(), rem.end());

  // The new epoch's arrays, in their own mappings at their exact sizes:
  // when the epoch is released its pages go straight back to the OS.
  const std::size_t entries = 2 * g.NumEdges() + add.size() - rem.size();
  PageArray<std::uint64_t> offsets(n + 1);
  PageArray<VertexId> adjacency(entries);
  std::uint64_t* const off = offsets.data();
  VertexId* const adj = adjacency.data();
  off[0] = 0;
  std::size_t pos = 0;
  auto emit = [&](VertexId w) {
    // A delta built against another graph could overrun the exact size.
    BCCS_CHECK_LT(pos, entries) << "graph delta does not match its base graph";
    adj[pos++] = w;
  };

  std::size_t ai = 0, ri = 0, max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    const auto base = g.Neighbors(v);
    std::size_t bi = 0;
    // Merge base \ rem[v] with add[v]; all three sequences are ascending.
    while (bi < base.size() || (ai < add.size() && add[ai].first == v)) {
      const bool has_add = ai < add.size() && add[ai].first == v;
      if (bi < base.size() && (!has_add || base[bi] <= add[ai].second)) {
        const VertexId w = base[bi++];
        if (ri < rem.size() && rem[ri].first == v && rem[ri].second == w) {
          ++ri;  // deleted
          continue;
        }
        emit(w);
      } else {
        emit(add[ai++].second);
      }
    }
    off[v + 1] = pos;
    max_degree = std::max<std::size_t>(max_degree, off[v + 1] - off[v]);
  }
  BCCS_CHECK_EQ(pos, entries) << "graph delta does not match its base graph";
  return GraphDeltaAccess::WithNewAdjacency(g, {std::move(offsets), n + 1},
                                            {std::move(adjacency), entries}, max_degree);
}

std::optional<std::vector<EdgeUpdate>> ReadEdgeUpdates(std::istream& in, std::string* error) {
  std::vector<EdgeUpdate> updates;
  std::string line;
  std::size_t line_no = 0;
  auto fail = [error](std::size_t line_no, const std::string& msg) {
    if (error != nullptr) *error = "line " + std::to_string(line_no) + ": " + msg;
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    std::string op;
    std::uint64_t u = 0, v = 0;
    if (!(ls >> op >> u >> v)) return fail(line_no, "expected '<+|-> <u> <v>'");
    std::string trailing;
    if (ls >> trailing) return fail(line_no, "trailing token '" + trailing + "'");
    EdgeUpdate upd;
    if (op == "+") {
      upd.kind = EdgeUpdateKind::kInsert;
    } else if (op == "-") {
      upd.kind = EdgeUpdateKind::kDelete;
    } else {
      return fail(line_no, "unknown operation '" + op + "' (expected + or -)");
    }
    constexpr std::uint64_t kMaxId = std::numeric_limits<VertexId>::max();
    if (u > kMaxId || v > kMaxId) return fail(line_no, "vertex id does not fit 32 bits");
    upd.edge = {static_cast<VertexId>(u), static_cast<VertexId>(v)};
    updates.push_back(upd);
  }
  return updates;
}

std::optional<std::vector<EdgeUpdate>> ReadEdgeUpdatesFromFile(const std::string& path,
                                                               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return ReadEdgeUpdates(in, error);
}

}  // namespace bccs
