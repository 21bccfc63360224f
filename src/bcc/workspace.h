#ifndef BCCS_BCC_WORKSPACE_H_
#define BCCS_BCC_WORKSPACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/core_decomposition.h"
#include "graph/labeled_graph.h"

namespace bccs {

class CandidateGraph;

/// Distance value for unreachable vertices. (Historically defined in
/// query_distance.h, which now re-exports it from here.)
inline constexpr std::uint32_t kInfDistance = static_cast<std::uint32_t>(-1);

/// Grows a scratch vector to n entries, the new ones `fill`; false when it
/// already held n. A reallocation discards the contents (callers treat them
/// as all-default or all-stale anyway), frees the old block first and
/// reserves max(n, reserve) entries. Candidate-sized requests (|G0| varies
/// per query) thus reach the workspace's vertex reserve in one step rather
/// than reallocating with every larger candidate, each time leaving a freed
/// block behind in the worker's malloc arena. Reserved entries are written
/// only once a request reaches them, so the reserve costs address space,
/// not resident memory.
template <typename T>
bool GrowScratch(std::vector<T>* buf, std::size_t n, std::size_t reserve, const T& fill) {
  if (buf->size() >= n) return false;
  if (buf->capacity() < n) {
    std::vector<T>().swap(*buf);
    buf->reserve(std::max(n, reserve));
  }
  buf->resize(n, fill);
  return true;
}

/// Cooperative per-query deadline. A default-constructed deadline never
/// expires; Deadline::After(s) arms one `s` seconds from now.
///
/// The serving engine stamps the workspace with the request's deadline, and
/// the search engines poll it at peel-round granularity (plus every few
/// thousand cascade steps inside GroupedCandidate::RemoveAndMaintain). An
/// expired query stops peeling and returns the best valid intermediate
/// community found so far — possibly empty, never an invalid one — with
/// SearchStats::timed_out set.
class Deadline {
 public:
  Deadline() = default;  // unlimited

  static Deadline After(double seconds) {
    Deadline d;
    d.armed_ = true;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(seconds));
    return d;
  }

  bool unlimited() const { return !armed_; }
  bool Expired() const { return armed_ && std::chrono::steady_clock::now() >= at_; }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// Aggregated workspace instrumentation. The batch engine and the
/// allocation-regression tests read `bulk_inits`: the number of O(n)-sized
/// allocations or fills performed by workspace-managed structures. After a
/// workspace has served one query of a given shape (warm-up), repeat queries
/// must not increase it — that is the "zero O(n) allocations in steady
/// state" contract of this subsystem.
struct WorkspaceStats {
  std::uint64_t bulk_inits = 0;
  std::uint64_t buffer_acquires = 0;
  std::uint64_t distance_resets = 0;
  std::uint64_t peel_resets = 0;

  WorkspaceStats& operator+=(const WorkspaceStats& o) {
    bulk_inits += o.bulk_inits;
    buffer_acquires += o.buffer_acquires;
    distance_resets += o.distance_resets;
    peel_resets += o.peel_resets;
    return *this;
  }
};

/// A pool of same-typed scratch vectors, each maintained at a fixed default
/// value while parked in the pool. Acquire() hands out an all-default buffer
/// in O(1) after warm-up; Release() restores the entries named in `touched`
/// (O(touched)) instead of refilling the whole buffer. In debug builds the
/// pool verifies the invariant on every release.
template <typename T>
class ScratchPool {
 public:
  explicit ScratchPool(T default_value) : default_(default_value) {}

  /// Best fit: the smallest parked buffer holding >= n entries, else the
  /// largest one, grown to n (GrowScratch, reserving SetReserve's size).
  /// Callers size requests both to the graph and to a candidate (|G0|); the
  /// best fit keeps candidate-sized requests off graph-sized buffers.
  std::vector<T> Acquire(std::size_t n) {
    ++acquires_;
    if (free_.empty()) {
      ++bulk_inits_;
      std::vector<T> buf;
      GrowScratch(&buf, n, reserve_, default_);
      return buf;
    }
    std::size_t pick = 0;
    for (std::size_t i = 1; i < free_.size(); ++i) {
      const std::size_t have = free_[i].size(), best = free_[pick].size();
      const bool fits = have >= n, best_fits = best >= n;
      if (fits != best_fits ? fits : (fits ? have < best : have > best)) pick = i;
    }
    std::vector<T> buf = std::move(free_[pick]);
    free_[pick] = std::move(free_.back());
    free_.pop_back();
    if (GrowScratch(&buf, n, reserve_, default_)) ++bulk_inits_;
    return buf;
  }

  /// Capacity that a buffer allocated from now on reserves (see GrowScratch).
  void SetReserve(std::size_t n) { reserve_ = n; }

  /// `touched` must cover every index whose value may differ from the
  /// default; duplicate entries are fine.
  void Release(std::vector<T> buf, std::span<const VertexId> touched) {
    for (VertexId v : touched) buf[v] = default_;
    ReleaseClean(std::move(buf));
  }

  /// For buffers the caller already restored.
  void ReleaseClean(std::vector<T> buf) {
#if BCCS_DCHECK_IS_ON
    for (const T& x : buf) BCCS_DCHECK(x == default_) << "scratch buffer returned dirty";
#endif
    free_.push_back(std::move(buf));
  }

  std::uint64_t bulk_inits() const { return bulk_inits_; }
  std::uint64_t acquires() const { return acquires_; }

 private:
  T default_;
  std::size_t reserve_ = 0;
  std::vector<std::vector<T>> free_;
  std::uint64_t bulk_inits_ = 0;
  std::uint64_t acquires_ = 0;
};

/// Single-source BFS state: per vertex, its distance and a repair mark, and
/// per level, the number of alive vertices at that distance. The level
/// counts let the decremental repair (UpdateDistancesAfterDeletion) skip a
/// deleted vertex whose next level is empty; the marks let it find exactly
/// the vertices whose distance changed without revisiting the others.
/// Marks are kNone outside a repair.
///
/// Reset(n) marks vertices 0..n-1 unreached (kInfDistance, kNone) in O(n)
/// and empties every level; the level vector keeps its capacity. The peel
/// sizes its maps to the candidate (|G0|) and the BFS that follows a reset
/// visits the whole candidate anyway, so the fill is not a bulk init and no
/// per-vertex epoch stamp is kept.
class DistanceMap {
 public:
  /// A vertex's state inside one repair: a suspect has lost a parent and
  /// waits for its check, an orphan has no shortest path left and keeps
  /// its old distance until it is re-reached.
  enum class Mark : std::uint32_t { kNone, kSuspect, kOrphan };

  void Reset(std::size_t n) {
    // Growth may discard the old slots: all are overwritten below.
    if (GrowScratch(&slots_, n, reserve_, Slot{})) ++bulk_inits_;
    std::fill_n(slots_.begin(), n, Slot{});
    levels_.clear();
    ++resets_;
  }

  /// Capacity reserved when the slots must grow (see GrowScratch).
  void SetReserve(std::size_t n) { reserve_ = n; }

  std::uint32_t Get(VertexId v) const { return slots_[v].dist; }
  Mark GetMark(VertexId v) const { return slots_[v].mark; }

  void Set(VertexId v, std::uint32_t d, Mark mark = Mark::kNone) { slots_[v] = Slot{d, mark}; }
  void SetUnreachable(VertexId v) { Set(v, kInfDistance); }

  /// Alive vertices at distance d (0 past the farthest level).
  std::uint32_t LevelCount(std::uint32_t d) const { return d < levels_.size() ? levels_[d] : 0; }
  /// Levels held, counting empty ones below the farthest that ever held a
  /// vertex since Reset.
  std::size_t NumLevels() const { return levels_.size(); }
  void AddToLevel(std::uint32_t d, std::uint32_t count = 1) {
    if (d >= levels_.size()) levels_.resize(std::size_t{d} + 1, 0);
    levels_[d] += count;
  }
  void RemoveFromLevel(std::uint32_t d) {
    BCCS_DCHECK_GT(LevelCount(d), 0u) << "level " << d << " underflow";
    --levels_[d];
  }

  /// BFS queue scratch (capacity persists across resets). Maps handed out
  /// by one QueryWorkspace share one queue: their BFS and repair calls
  /// never overlap.
  std::vector<VertexId>& queue() { return shared_queue_ != nullptr ? *shared_queue_ : queue_; }
  void ShareQueue(std::vector<VertexId>* queue) { shared_queue_ = queue; }

  std::uint64_t bulk_inits() const { return bulk_inits_; }
  std::uint64_t resets() const { return resets_; }

 private:
  // One 8-byte record per vertex so a BFS probe touches one cache line.
  struct Slot {
    std::uint32_t dist = kInfDistance;
    Mark mark = Mark::kNone;
  };

  std::size_t reserve_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> levels_;
  std::vector<VertexId> queue_;
  std::vector<VertexId>* shared_queue_ = nullptr;
  std::uint64_t bulk_inits_ = 0;
  std::uint64_t resets_ = 0;
};

/// Lazy max-bucket queue over per-vertex query distances, replacing the
/// per-round O(|members|) farthest-vertex scan of the peeling engine.
///
/// Query distances only grow during peeling (deletions never shorten
/// paths), so every stale bucket entry sits below the vertex's current
/// level and is discarded lazily when its bucket is inspected. Each
/// Update() that changes a value pushes one entry, so total queue work is
/// proportional to the number of distance changes, not to rounds * n.
///
/// Reset(n) marks vertices 0..n-1 unqueued in O(n), as DistanceMap::Reset
/// does: the queue is candidate-sized and every vertex is queued right after.
class PeelQueue {
 public:
  void Reset(std::size_t n) {
    // Growth may discard the old values: all are overwritten below.
    if (GrowScratch(&qd_, n, reserve_, kUnqueued)) ++bulk_inits_;
    std::fill_n(qd_.begin(), n, kUnqueued);
    for (std::uint32_t d = 0; d < buckets_.size() && d <= max_level_; ++d) buckets_[d].clear();
    inf_.clear();
    max_level_ = 0;
    ++resets_;
  }

  /// Capacity reserved when the queue must grow (see GrowScratch).
  void SetReserve(std::size_t n) { reserve_ = n; }

  /// Records v's current query distance; queues v at its new level. No-op
  /// when the stored value is unchanged (so duplicate entries per level are
  /// impossible and pops need no dedup pass).
  void Update(VertexId v, std::uint32_t qd) {
    BCCS_DCHECK_NE(qd, kUnqueued);
    if (qd_[v] == qd) return;
    qd_[v] = qd;
    Push(v, qd);
  }

  /// Re-queues a vertex previously popped but not deleted (single-delete
  /// mode returns the untouched remainder of a batch).
  void Requeue(VertexId v) {
    BCCS_DCHECK_NE(qd_[v], kUnqueued) << "Requeue of a vertex not seen since Reset";
    Push(v, qd_[v]);
  }

  /// Collects every alive vertex at the current maximum query distance into
  /// `batch` and reports that distance in `level`. Vertices for which
  /// `is_query` holds count toward the level and stay queued but are not
  /// added to the batch (they are never deleted). Popped batch entries
  /// leave the queue. Returns false when no alive queued vertex remains.
  template <typename IsQuery>
  bool PopFarthest(const std::vector<char>& alive, IsQuery is_query,
                   std::vector<VertexId>* batch, std::uint32_t* level) {
    batch->clear();
    if (DrainLevel(&inf_, alive, is_query, batch)) {
      *level = kInfDistance;
      return true;
    }
    // Push keeps buckets_ sized past max_level_, so a non-empty bucket
    // array is the only precondition for the walk.
    if (buckets_.empty()) return false;
    while (true) {
      while (max_level_ > 0 && buckets_[max_level_].empty()) --max_level_;
      if (DrainLevel(&buckets_[max_level_], alive, is_query, batch)) {
        *level = max_level_;
        return true;
      }
      if (max_level_ == 0) return false;
      --max_level_;
    }
  }

  std::uint64_t bulk_inits() const { return bulk_inits_; }
  std::uint64_t resets() const { return resets_; }

 private:
  void Push(VertexId v, std::uint32_t qd) {
    if (qd == kInfDistance) {
      inf_.push_back(v);
      return;
    }
    if (qd >= buckets_.size()) buckets_.resize(qd + 1);
    buckets_[qd].push_back(v);
    if (qd > max_level_) max_level_ = qd;
  }

  // Marks a vertex not queued since Reset. Query distances are below the
  // candidate's size or kInfDistance, so they never take this value.
  static constexpr std::uint32_t kUnqueued = kInfDistance - 1;


  // Moves the level's valid non-query entries into `batch`, keeps valid
  // query entries queued, drops stale/dead entries. True if the level held
  // any valid entry.
  template <typename IsQuery>
  bool DrainLevel(std::vector<VertexId>* entries, const std::vector<char>& alive,
                  IsQuery is_query, std::vector<VertexId>* batch) {
    const std::uint32_t this_level =
        entries == &inf_ ? kInfDistance : static_cast<std::uint32_t>(max_level_);
    bool any_query = false;
    std::size_t keep = 0;
    for (VertexId v : *entries) {
      if (!alive[v] || qd_[v] != this_level) continue;  // dead or moved: drop
      if (is_query(v)) {
        (*entries)[keep++] = v;
        any_query = true;
      } else {
        batch->push_back(v);
      }
    }
    entries->resize(keep);
    return any_query || !batch->empty();
  }

  std::uint32_t max_level_ = 0;
  std::size_t reserve_ = 0;
  std::vector<std::uint32_t> qd_;
  std::vector<std::vector<VertexId>> buckets_;
  std::vector<VertexId> inf_;
  std::uint64_t bulk_inits_ = 0;
  std::uint64_t resets_ = 0;
};

/// Per-thread scratch state for the whole query pipeline (Find-G0, BFS
/// distances, butterfly counting, candidate core maintenance, peeling).
///
/// One workspace serves one query at a time; the batch engine keeps one per
/// worker thread. All structures reuse capacity and reset in O(touched), so
/// after the first query of a given size the steady state performs no
/// O(n)-sized allocation or fill — Stats().bulk_inits stays flat, which the
/// workspace tests assert.
class QueryWorkspace {
 public:
  // Both out-of-line: CandidateGraph is only forward-declared here.
  QueryWorkspace();
  ~QueryWorkspace();
  QueryWorkspace(const QueryWorkspace&) = delete;
  QueryWorkspace& operator=(const QueryWorkspace&) = delete;

  ScratchPool<char>& CharPool() { return char_pool_; }
  ScratchPool<std::uint32_t>& U32ZeroPool() { return u32_zero_pool_; }
  ScratchPool<std::uint32_t>& U32InfPool() { return u32_inf_pool_; }
  ScratchPool<std::uint64_t>& U64ZeroPool() { return u64_zero_pool_; }
  ScratchPool<double>& DoubleInfPool() { return double_inf_pool_; }

  DistanceMap* AcquireDistance();
  void ReleaseDistance(DistanceMap* dm);

  PeelQueue& peel_queue() { return peel_queue_; }
  CoreScratch& core_scratch() { return core_scratch_; }

  /// Wedge-counter scratch for butterfly counting: `WedgePaths()` is
  /// maintained all-zero (its users reset the entries they touch via
  /// `WedgeTouched()`).
  std::vector<std::uint32_t>& WedgePaths(std::size_t n) {
    if (GrowScratch(&wedge_paths_, n, vertex_reserve_, 0u)) ++local_bulk_inits_;
    return wedge_paths_;
  }
  std::vector<VertexId>& WedgeTouched() { return wedge_touched_; }

  /// Stamp buffer + counter borrowed by LeaderButterflyUpdater so the
  /// Algorithm 7 scratch survives across queries. Called once per query;
  /// refreshes the stamps when the counter nears 32-bit wrap-around (a
  /// single query increments it far less than the guard band).
  std::vector<std::uint32_t>* LeaderStamp(std::size_t n) {
    constexpr std::uint32_t kWrapGuard = 0xc0000000u;
    if (GrowScratch(&leader_stamp_, n, vertex_reserve_, 0u)) {
      ++local_bulk_inits_;
      std::fill(leader_stamp_.begin(), leader_stamp_.end(), 0);
      leader_counter_ = 0;
    } else if (leader_counter_ >= kWrapGuard) {
      std::fill(leader_stamp_.begin(), leader_stamp_.end(), 0);
      leader_counter_ = 0;
    }
    return &leader_stamp_;
  }
  std::uint32_t* LeaderStampCounter() { return &leader_counter_; }

  /// Pooled candidate graphs (bcc/candidate_graph.h): a released graph
  /// keeps its buffers' capacity for the next Build.
  std::unique_ptr<CandidateGraph> AcquireCandidateGraph();
  void ReleaseCandidateGraph(std::unique_ptr<CandidateGraph> cg);

  /// Charged by workspace-lent structures outside the pools (candidate graph
  /// buffers) whenever one must grow.
  void CountBulkInit() { ++local_bulk_inits_; }

  /// Sets the capacity that every vertex-indexed buffer reserves when it
  /// must grow (GrowScratch): CandidateGraph::Build passes the whole graph's
  /// vertex count, so the candidate-sized buffers of a worker grow at most
  /// once however their candidates vary.
  void SetVertexReserve(std::size_t n);
  std::size_t vertex_reserve() const { return vertex_reserve_; }

  /// Reusable vertex-id vectors (returned cleared, capacity persists).
  std::vector<VertexId>* AcquireIdVec();
  void ReleaseIdVec(std::vector<VertexId>* vec);

  /// Per-query deadline, stamped by the serving engine before dispatch and
  /// cleared (reset to unlimited) afterwards. Search engines poll it at
  /// peel-round granularity.
  void SetDeadline(Deadline d) { deadline_ = d; }
  const Deadline& deadline() const { return deadline_; }

  WorkspaceStats Stats() const;

 private:
  ScratchPool<char> char_pool_{0};
  ScratchPool<std::uint32_t> u32_zero_pool_{0};
  ScratchPool<std::uint32_t> u32_inf_pool_{static_cast<std::uint32_t>(-1)};
  ScratchPool<std::uint64_t> u64_zero_pool_{0};
  ScratchPool<double> double_inf_pool_{std::numeric_limits<double>::infinity()};

  std::vector<std::unique_ptr<DistanceMap>> distance_free_;
  std::vector<std::unique_ptr<DistanceMap>> distance_used_;
  std::vector<VertexId> distance_queue_;  // shared by every DistanceMap above
  PeelQueue peel_queue_;
  CoreScratch core_scratch_;

  std::vector<std::uint32_t> wedge_paths_;
  std::vector<VertexId> wedge_touched_;
  std::vector<std::uint32_t> leader_stamp_;
  std::uint32_t leader_counter_ = 0;

  std::vector<std::unique_ptr<std::vector<VertexId>>> id_free_;
  std::vector<std::unique_ptr<std::vector<VertexId>>> id_used_;

  std::vector<std::unique_ptr<CandidateGraph>> candidate_free_;

  Deadline deadline_;
  std::size_t vertex_reserve_ = 0;
  std::uint64_t local_bulk_inits_ = 0;
};

/// The workspace a public search entry point runs on: the caller's, or,
/// when the caller passes none, a cold one owned for the call's duration.
/// Every kernel below the entry points takes a QueryWorkspace&, so this is
/// the one place a missing workspace is resolved.
class ScopedWorkspace {
 public:
  explicit ScopedWorkspace(QueryWorkspace* ws) : ws_(ws) {
    if (ws == nullptr) {
      owned_ = std::make_unique<QueryWorkspace>();
      ws_ = owned_.get();
    }
  }

  QueryWorkspace& operator*() const { return *ws_; }
  QueryWorkspace* operator->() const { return ws_; }
  QueryWorkspace* get() const { return ws_; }

 private:
  QueryWorkspace* ws_;
  std::unique_ptr<QueryWorkspace> owned_;
};

}  // namespace bccs

#endif  // BCCS_BCC_WORKSPACE_H_
