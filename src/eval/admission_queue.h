#ifndef BCCS_EVAL_ADMISSION_QUEUE_H_
#define BCCS_EVAL_ADMISSION_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <utility>

#include "common/check.h"
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
/// Each ticket carries its `Item` (the serving stream's AdmittedItem: the
/// request, its completion callback and admission facts) from Admit* to the
/// one Pop that moves it out, so the queue is the item's only home until a
/// worker runs it. Admission indices are dense stream positions (0, 1, 2, ...) shared
/// by queries and updates.
///
/// Thread safety: every method is safe to call concurrently. Close() makes
/// further Admit* calls a contract violation (they abort with a message —
/// the enqueued item would silently never execute) and lets Pop() drain
/// the remaining tickets before returning false.
template <typename Item>
class AdmissionQueue {
 public:
  /// One dequeued ticket.
  struct Ticket {
    enum class Kind : std::uint8_t { kQuery, kUpdate };
    Kind kind = Kind::kQuery;
    /// Admission index: position in the stream across both ticket kinds.
    std::size_t index = 0;
    /// Queries: number of updates admitted before this query — the query
    /// is runnable once that many updates have been published.
    std::size_t epoch_slot = 0;
    Lane lane = Lane::kBulk;
    /// The admitted item, moved out of the queue by Pop.
    Item item{};
  };

  AdmissionQueue(std::size_t aging_period, AdmissionCaps caps)
      : aging_period_(aging_period), caps_(caps) {}

  // Producer side -----------------------------------------------------------

  /// Admits a query on `lane`; returns its admission index.
  std::size_t AdmitQuery(Lane lane, Item item) {
    std::size_t index;
    {
      MutexLock lock(mutex_);
      if (closed_) AbortClosedAdmission("AdmitQuery");
      index = admitted_++;
      (lane == Lane::kInteractive ? interactive_ : bulk_)
          .push_back({index, updates_admitted_, std::move(item)});
    }
    cv_.NotifyOne();
    return index;
  }

  /// Admits an edge-update batch; returns its admission index.
  std::size_t AdmitUpdate(Item item) {
    std::size_t index;
    {
      MutexLock lock(mutex_);
      if (closed_) AbortClosedAdmission("AdmitUpdate");
      index = admitted_++;
      updates_.push_back({index, updates_admitted_, std::move(item)});
      ++updates_admitted_;
    }
    cv_.NotifyOne();
    return index;
  }

  /// Ends admission: Pop() drains the remaining tickets, then returns false.
  void Close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    cv_.NotifyAll();
  }

  // Worker side -------------------------------------------------------------

  /// Blocks until a ticket is runnable (or the queue is closed and fully
  /// drained — returns false). A returned query occupies one slot of its
  /// lane until CompleteQuery; a returned update must be resolved with
  /// PublishUpdate before the next update (or any query admitted after it)
  /// becomes runnable. The ticket's previous item is overwritten under the
  /// queue lock, so pass a ticket whose item holds nothing costly to
  /// destroy.
  bool Pop(Ticket* out) {
    MutexLock lock(mutex_);
    for (;;) {
      // Updates first: they gate the epoch progress of everything behind
      // them, and epoch transitions are ordered, so the oldest update is
      // handed out as soon as the previous one has been published.
      if (!updates_.empty() && claimed_updates_ == resolved_updates_) {
        out->kind = Ticket::Kind::kUpdate;
        out->index = updates_.front().index;
        out->item = std::move(updates_.front().item);
        updates_.pop_front();
        ++claimed_updates_;
        return true;
      }

      const bool i_ok = LaneRunnable(interactive_, inflight_[0], caps_.interactive);
      const bool b_ok = LaneRunnable(bulk_, inflight_[1], caps_.bulk);
      const bool age_out = aging_period_ > 0 && since_bulk_ >= aging_period_;
      if (i_ok || b_ok) {
        const bool take_bulk = b_ok && (!i_ok || age_out);
        std::deque<Pending>& q = take_bulk ? bulk_ : interactive_;
        const Lane lane = take_bulk ? Lane::kBulk : Lane::kInteractive;
        out->kind = Ticket::Kind::kQuery;
        out->index = q.front().index;
        out->epoch_slot = q.front().epoch_slot;
        out->lane = lane;
        out->item = std::move(q.front().item);
        q.pop_front();
        const auto li = static_cast<std::size_t>(lane);
        ++inflight_[li];
        if (inflight_[li] > max_inflight_[li]) max_inflight_[li] = inflight_[li];
        since_bulk_ = take_bulk ? 0 : since_bulk_ + 1;
        return true;
      }

      // Nothing runnable. Exit only when no ticket remains unclaimed: a
      // query gated on an in-flight update stays queued, so the non-empty
      // deques keep every waiting worker here until PublishUpdate unblocks
      // it.
      if (closed_ && interactive_.empty() && bulk_.empty() && updates_.empty()) {
        return false;
      }
      cv_.Wait(mutex_);
    }
  }

  /// Releases the lane slot a popped query occupied.
  void CompleteQuery(Lane lane) {
    {
      MutexLock lock(mutex_);
      const auto li = static_cast<std::size_t>(lane);
      BCCS_CHECK_GT(inflight_[li], 0u) << "CompleteQuery without a matching Pop";
      --inflight_[li];
    }
    cv_.NotifyAll();
  }

  /// Marks the in-flight update resolved (applied OR rejected — either way
  /// its epoch slot is now published by the caller), unblocking queries
  /// admitted after it and the next update.
  void PublishUpdate() {
    {
      MutexLock lock(mutex_);
      BCCS_CHECK_LT(resolved_updates_, claimed_updates_)
          << "PublishUpdate without an in-flight update";
      ++resolved_updates_;
    }
    cv_.NotifyAll();
  }

  // Introspection (stream summary, tests) -----------------------------------

  std::size_t admitted() const {
    MutexLock lock(mutex_);
    return admitted_;
  }
  std::size_t updates_admitted() const {
    MutexLock lock(mutex_);
    return updates_admitted_;
  }
  std::size_t resolved_updates() const {
    MutexLock lock(mutex_);
    return resolved_updates_;
  }
  /// High-water mark of concurrently executing queries per lane.
  std::size_t max_inflight(Lane lane) const {
    MutexLock lock(mutex_);
    return max_inflight_[static_cast<std::size_t>(lane)];
  }

 private:
  struct Pending {
    std::size_t index = 0;
    std::size_t epoch_slot = 0;  // queries only
    Item item;
  };

  // Admission after Close would enqueue a ticket no worker will ever drain —
  // the caller would get a valid-looking index for an item that silently
  // never executes — so the contract violation fails loudly in every build.
  static void AbortClosedAdmission(const char* what) {
    std::fprintf(stderr, "AdmissionQueue: %s after Close\n", what);
    std::abort();
  }

  bool LaneRunnable(const std::deque<Pending>& q, std::size_t inflight,
                    std::size_t cap) const REQUIRES(mutex_) {
    // Admission order makes epoch_slot monotone within a lane, so a blocked
    // front implies a blocked tail: checking the front suffices.
    return !q.empty() && q.front().epoch_slot <= resolved_updates_ &&
           (cap == 0 || inflight < cap);
  }

  const std::size_t aging_period_;
  const AdmissionCaps caps_;

  mutable Mutex mutex_;
  CondVar cv_;
  std::deque<Pending> interactive_ GUARDED_BY(mutex_);
  std::deque<Pending> bulk_ GUARDED_BY(mutex_);
  std::deque<Pending> updates_ GUARDED_BY(mutex_);  // unclaimed updates
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
