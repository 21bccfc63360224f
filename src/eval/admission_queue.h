#ifndef BCCS_EVAL_ADMISSION_QUEUE_H_
#define BCCS_EVAL_ADMISSION_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <deque>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "eval/batch_runner.h"

namespace bccs {

/// Per-lane in-flight concurrency caps of the streaming serve loop. A lane
/// with cap K has at most K queries executing at once; further dequeues of
/// that lane block (the slot goes to the other lane or the worker waits).
/// This is what keeps interactive tail latency bounded under a saturating
/// bulk stream: bulk can queue arbitrarily deep but can only occupy K
/// workers. 0 = unlimited.
struct AdmissionCaps {
  std::size_t interactive = 0;
  std::size_t bulk = 0;
};

/// The admission layer of the streaming serve loop: a mutex+condvar MPMC
/// queue that accepts items while workers are already draining.
///
/// Producers admit *tickets* (queries tagged with a lane, updates) in
/// stream order; workers Pop() them under this dequeue policy:
///
///   1. **Updates first, one at a time.** The oldest unresolved update is
///      handed out as soon as the previous one has been published — updates
///      gate the epoch progress of every query admitted after them, so
///      their preparation starts as early as a worker is free. At most one
///      update is ever in flight (epoch transitions are ordered).
///   2. **Interactive over bulk, with aging.** Among runnable queries,
///      interactive is dequeued first; every (aging_period + 1)-th query
///      dequeue goes to the oldest waiting bulk query even while
///      interactive queries remain (0 disables aging), so a saturated
///      interactive lane cannot starve bulk indefinitely.
///   3. **Per-lane concurrency caps.** A lane at its in-flight cap is not
///      runnable; the worker takes the other lane or blocks until a
///      CompleteQuery frees a slot.
///   4. **Epoch gating.** A query admitted after the u-th update is not
///      runnable until that update has been published (PublishUpdate);
///      workers never busy-wait on an epoch — blocked queries simply stay
///      queued while runnable ones behind *older* epochs drain.
///
/// Admission indices are dense stream positions (0, 1, 2, ...) shared by
/// queries and updates — the caller uses them as result slots. The queue
/// itself carries no payloads; the caller keeps the items.
///
/// Thread safety: every method is safe to call concurrently. Close() makes
/// further Admit* calls a contract violation (they abort with a message —
/// the enqueued item would silently never execute) and lets Pop() drain
/// the remaining tickets before returning false.
class AdmissionQueue {
 public:
  /// One dequeued ticket.
  struct Ticket {
    enum class Kind : std::uint8_t { kQuery, kUpdate };
    Kind kind = Kind::kQuery;
    /// Admission index: position in the stream across both ticket kinds.
    std::size_t index = 0;
    /// Queries: number of updates admitted before this query — the epoch
    /// slot whose published state the query must observe.
    std::size_t epoch_slot = 0;
    /// Updates: position among updates (0-based). The u-th update builds
    /// epoch slot u+1 from slot u.
    std::size_t update_ordinal = 0;
    Lane lane = Lane::kBulk;
  };

  AdmissionQueue(std::size_t aging_period, AdmissionCaps caps);

  // Producer side -----------------------------------------------------------

  /// Admits a query on `lane`; returns its admission index.
  std::size_t AdmitQuery(Lane lane);

  /// Admits an edge-update batch; returns its admission index.
  std::size_t AdmitUpdate();

  /// Ends admission: Pop() drains the remaining tickets, then returns false.
  void Close();

  // Worker side -------------------------------------------------------------

  /// Blocks until a ticket is runnable (or the queue is closed and fully
  /// drained — returns false). A returned query occupies one slot of its
  /// lane until CompleteQuery; a returned update must be resolved with
  /// PublishUpdate before the next update (or any query admitted after it)
  /// becomes runnable.
  bool Pop(Ticket* out);

  /// Releases the lane slot a popped query occupied.
  void CompleteQuery(Lane lane);

  /// Marks the in-flight update resolved (applied OR rejected — either way
  /// its epoch slot is now published by the caller), unblocking queries
  /// admitted after it and the next update.
  void PublishUpdate();

  // Introspection (tests, stats) --------------------------------------------

  std::size_t admitted() const;
  std::size_t updates_admitted() const;
  std::size_t resolved_updates() const;
  /// High-water mark of concurrently executing queries per lane.
  std::size_t max_inflight(Lane lane) const;
  bool closed() const;

 private:
  struct PendingQuery {
    std::size_t index = 0;
    std::size_t epoch_slot = 0;
  };

  bool LaneRunnable(const std::deque<PendingQuery>& q, std::size_t inflight,
                    std::size_t cap) const REQUIRES(mutex_);

  const std::size_t aging_period_;
  const AdmissionCaps caps_;

  mutable Mutex mutex_;
  CondVar cv_;
  std::deque<PendingQuery> interactive_ GUARDED_BY(mutex_);
  std::deque<PendingQuery> bulk_ GUARDED_BY(mutex_);
  // Admission indices of unclaimed updates.
  std::deque<std::size_t> updates_ GUARDED_BY(mutex_);
  std::size_t admitted_ GUARDED_BY(mutex_) = 0;
  std::size_t updates_admitted_ GUARDED_BY(mutex_) = 0;
  std::size_t claimed_updates_ GUARDED_BY(mutex_) = 0;
  std::size_t resolved_updates_ GUARDED_BY(mutex_) = 0;
  std::size_t inflight_[2] GUARDED_BY(mutex_) = {0, 0};      // indexed by Lane
  std::size_t max_inflight_[2] GUARDED_BY(mutex_) = {0, 0};  // high-water marks
  // Query dequeues since the last bulk one.
  std::size_t since_bulk_ GUARDED_BY(mutex_) = 0;
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace bccs

#endif  // BCCS_EVAL_ADMISSION_QUEUE_H_
