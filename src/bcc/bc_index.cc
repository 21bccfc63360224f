#include "bcc/bc_index.h"

#include <algorithm>
#include <map>
#include <utility>

#include "butterfly/butterfly_update.h"
#include "core/core_decomposition.h"
#include "core/core_maintenance.h"
#include "graph/graph_delta.h"

namespace bccs {

BcIndex::BcIndex(const LabeledGraph& g) : g_(&g), label_coreness_(LabelCoreness(g)) {
  std::vector<std::uint32_t> max_core(g.NumLabels(), 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto& best = max_core[g.LabelOf(v)];
    best = std::max(best, label_coreness_[v]);
  }
  max_core_per_label_ = std::move(max_core);
}

namespace {

ButterflyCounts ComputePairButterflies(const LabeledGraph& g, Label a, Label b) {
  auto left = g.VerticesWithLabel(a);
  auto right = g.VerticesWithLabel(b);
  std::vector<char> in_left(g.NumVertices(), 0), in_right(g.NumVertices(), 0);
  for (VertexId v : left) in_left[v] = 1;
  for (VertexId v : right) in_right[v] = 1;
  return CountButterflies(g, {left.begin(), left.end()}, {right.begin(), right.end()}, in_left,
                          in_right);
}

}  // namespace

const ButterflyCounts* BcIndex::FindPair(Label a, Label b) const {
  MutexLock lock(pairs_mu_);
  const auto it = pairs_.find({a, b});
  return it != pairs_.end() ? it->second.get() : nullptr;
}

const ButterflyCounts& BcIndex::InsertPair(Label a, Label b, ButterflyCounts counts) const {
  auto block = std::make_shared<const ButterflyCounts>(std::move(counts));
  MutexLock lock(pairs_mu_);
  return *pairs_.try_emplace({a, b}, std::move(block)).first->second;
}

BcIndex::PairMap BcIndex::CopyPairs() const {
  MutexLock lock(pairs_mu_);
  return pairs_;
}

const ButterflyCounts& BcIndex::PairButterflies(Label a, Label b) const {
  if (a > b) std::swap(a, b);
  if (const ButterflyCounts* hit = FindPair(a, b)) {
    pair_hits_.fetch_add(1, std::memory_order_relaxed);
    return *hit;
  }
  pair_misses_.fetch_add(1, std::memory_order_relaxed);
  // Count outside the lock so lookups of other pairs never block behind a
  // cold count; concurrent first calls for one pair waste one count, and the
  // first insert wins.
  return InsertPair(a, b, ComputePairButterflies(*g_, a, b));
}

void BcIndex::MaterializeAllPairs() {
  const std::size_t num_labels = g_->NumLabels();
  for (Label a = 0; a < num_labels; ++a) {
    if (g_->VerticesWithLabel(a).empty()) continue;
    for (Label b = a + 1; b < num_labels; ++b) {
      if (g_->VerticesWithLabel(b).empty() || FindPair(a, b) != nullptr) continue;
      InsertPair(a, b, ComputePairButterflies(*g_, a, b));
    }
  }
}

std::size_t BcIndex::CachedPairCount() const {
  MutexLock lock(pairs_mu_);
  return pairs_.size();
}

void BcIndex::ForEachCachedPair(
    const std::function<void(Label, Label, const ButterflyCounts&)>& fn) const {
  for (const auto& [key, counts] : CopyPairs()) fn(key.first, key.second, *counts);
}

BlockCacheStats BcIndex::PairCacheStats() const {
  return {pair_hits_.load(std::memory_order_relaxed),
          pair_misses_.load(std::memory_order_relaxed), CachedPairCount()};
}

namespace {

/// One label's (or one pair's) slice of the delta.
struct EdgeBucket {
  std::vector<Edge> inserts;
  std::vector<Edge> deletes;
};

/// Splits the delta into per-label intra-label buckets (they repair
/// coreness) and per-pair cross-label buckets (they repair counted
/// butterflies) — the two effects are disjoint by construction: coreness is
/// computed within a label group, pair butterflies over cross edges only.
void BucketDelta(const LabeledGraph& g, const GraphDelta& delta,
                 std::map<Label, EdgeBucket>* intra,
                 std::map<std::pair<Label, Label>, EdgeBucket>* cross) {
  auto route = [&](const Edge& e, bool insert) {
    const Label a = g.LabelOf(e.u);
    const Label b = g.LabelOf(e.v);
    EdgeBucket& bucket =
        a == b ? (*intra)[a] : (*cross)[std::minmax(a, b)];
    (insert ? bucket.inserts : bucket.deletes).push_back(e);
  };
  for (const Edge& e : delta.inserts) route(e, true);
  for (const Edge& e : delta.deletes) route(e, false);
}

}  // namespace

std::unique_ptr<BcIndex> BcIndex::ApplyUpdates(const LabeledGraph& updated,
                                               const GraphDelta& delta,
                                               const UpdateRepairOptions& opts,
                                               UpdateRepairStats* stats) const {
  UpdateRepairStats local;
  UpdateRepairStats& st = stats != nullptr ? *stats : local;
  st = UpdateRepairStats{};

  std::map<Label, EdgeBucket> intra;
  std::map<std::pair<Label, Label>, EdgeBucket> cross;
  BucketDelta(*g_, delta, &intra, &cross);

  // Coreness: copy, then patch only the touched labels.
  std::vector<std::uint32_t> coreness(label_coreness_.begin(), label_coreness_.end());
  std::vector<std::uint32_t> max_core(max_core_per_label_.begin(),
                                      max_core_per_label_.end());
  for (const auto& [label, bucket] : intra) {
    ++st.labels_touched;
    const auto members = updated.VerticesWithLabel(label);
    const LabelCorenessRepair repair =
        RepairLabelCoreness(updated, members, bucket.inserts, bucket.deletes,
                            opts.label_incremental_cap, &coreness);
    repair.rebuilt ? ++st.labels_rebuilt : ++st.labels_incremental;
    st.core_passes += repair.passes;
    std::uint32_t best = 0;
    for (VertexId v : members) best = std::max(best, coreness[v]);
    max_core[label] = best;
  }

  std::unique_ptr<BcIndex> out(new BcIndex());
  out->g_ = &updated;
  out->label_coreness_ = std::move(coreness);
  out->max_core_per_label_ = std::move(max_core);

  // Pair table: share every untouched block with this index by pointer;
  // clone and repair each touched one, so this index keeps answering for its
  // own graph while in-flight queries drain. Touched pairs never counted
  // stay absent and count lazily against the updated graph on first use.
  // The hit/miss counters carry over so stream-level serving stats stay
  // cumulative across the epoch swap.
  PairMap pairs = CopyPairs();
  for (const auto& [key, bucket] : cross) {
    const auto it = pairs.find(key);
    if (it == pairs.end()) continue;
    ++st.pairs_touched;
    ButterflyCounts patched = *it->second;
    const PairButterflyRepair repair =
        RepairPairButterflies(*g_, updated, key.first, key.second, bucket.inserts,
                              bucket.deletes, opts.pair_incremental_cap, &patched);
    repair.recounted ? ++st.pairs_recounted : ++st.pairs_incremental;
    st.cross_edges_applied += repair.edges_applied;
    it->second = std::make_shared<const ButterflyCounts>(std::move(patched));
  }
  {
    MutexLock lock(out->pairs_mu_);
    out->pairs_ = std::move(pairs);
  }
  out->pair_hits_.store(pair_hits_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  out->pair_misses_.store(pair_misses_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  return out;
}

}  // namespace bccs
