#ifndef BCCS_CORE_CORE_DECOMPOSITION_H_
#define BCCS_CORE_CORE_DECOMPOSITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/labeled_graph.h"

namespace bccs {

/// Coreness of every vertex of `g` (Batagelj-Zaversnik bucket peeling,
/// O(V + E)). The coreness of v is the largest k such that v belongs to a
/// (connected) k-core of `g`.
std::vector<std::uint32_t> CoreDecomposition(const LabeledGraph& g);

/// Coreness of every vertex within the subgraph induced by its own label
/// group. This is the coreness the BCC model cares about (paper Section 3.5:
/// "set k1 and k2 with the coreness of the two queries") and the delta(v)
/// component of the BC-index.
std::vector<std::uint32_t> LabelCoreness(const LabeledGraph& g);

/// Coreness within the subgraph induced by an arbitrary vertex subset.
/// The result is indexed by graph vertex id; entries for vertices outside
/// `members` are 0 and meaningless.
///
/// This and the two routines below allocate a CoreScratch per call; the
/// query path runs the scratch routines further down on its workspace's
/// CoreScratch instead.
std::vector<std::uint32_t> SubsetCoreness(const LabeledGraph& g,
                                          std::span<const VertexId> members);

/// The maximal subset of `members` whose induced subgraph has minimum degree
/// >= k (the k-core of the induced subgraph; possibly disconnected).
/// Returned sorted ascending.
std::vector<VertexId> KCoreOfSubset(const LabeledGraph& g, std::span<const VertexId> members,
                                    std::uint32_t k);

/// The connected component containing `q` of the subgraph induced by
/// `members` (any order, duplicates allowed). Empty if `q` is not in
/// `members`. Returned sorted ascending.
std::vector<VertexId> ComponentContaining(const LabeledGraph& g,
                                          std::span<const VertexId> members, VertexId q);

/// Reusable scratch for PeelCoreness and the *Scoped routines below. The
/// vertex-indexed arrays (`mask`, `num_a`, `num_b`) are maintained all-zero
/// between calls, so a warm scratch serves a query in O(|members|) with no
/// O(n) work; the small vectors just keep their capacity. Owned per query
/// workspace.
class CoreScratch {
 public:
  void EnsureSize(std::size_t n) {
    if (mask.size() >= n) return;
    ++bulk_inits_;
    mask.assign(n, 0);
    num_a.assign(n, 0);
    num_b.assign(n, 0);
  }

  std::uint64_t bulk_inits() const { return bulk_inits_; }

  std::vector<char> mask;             // all-zero invariant
  std::vector<std::uint32_t> num_a;   // all-zero invariant
  std::vector<std::uint32_t> num_b;   // all-zero invariant
  std::vector<VertexId> order;        // capacity cache only
  std::vector<std::uint32_t> bins;    // capacity cache only
  std::vector<std::uint32_t> cursor;  // capacity cache only

 private:
  std::uint64_t bulk_inits_ = 0;
};

/// Batagelj-Zaversnik bucket peeling of the subgraph induced by `members`
/// (O(|members| + their degrees), touching only scratch entries of
/// `members`). Returns the coreness of `target` there, 0 when it is not a
/// member. Without `all` the peel stops as soon as `target` is peeled, and
/// does not run when `target` is no member. With `all` (sized to
/// g.NumVertices()) it peels every member and writes each member's coreness
/// into (*all)[v], leaving other entries untouched.
std::uint32_t PeelCoreness(const LabeledGraph& g, std::span<const VertexId> members,
                           VertexId target, CoreScratch* scratch,
                           std::vector<std::uint32_t>* all = nullptr);

/// The k-core of the subgraph induced by `members` into a reused output
/// vector (sorted ascending), using `scratch` instead of fresh O(n) arrays.
void KCoreOfSubsetScoped(const LabeledGraph& g, std::span<const VertexId> members,
                         std::uint32_t k, CoreScratch* scratch, std::vector<VertexId>* out);

/// ComponentContaining into a reused output vector via `scratch`. `members`
/// must be strictly ascending: the component is collected by one scan over
/// them, with no sort.
void ComponentContainingScoped(const LabeledGraph& g, std::span<const VertexId> members,
                               VertexId q, CoreScratch* scratch, std::vector<VertexId>* out);

}  // namespace bccs

#endif  // BCCS_CORE_CORE_DECOMPOSITION_H_
