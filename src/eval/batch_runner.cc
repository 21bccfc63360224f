#include "eval/batch_runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "eval/timer.h"

namespace bccs {

BatchLatency SummarizeLatency(std::span<const double> seconds, double wall_seconds) {
  BatchLatency out;
  out.wall_seconds = wall_seconds;
  if (seconds.empty()) return out;
  std::vector<double> sorted(seconds.begin(), seconds.end());
  std::sort(sorted.begin(), sorted.end());
  double sum = 0;
  for (double s : sorted) sum += s;
  // A sub-microsecond batch can read a zero wall clock; fall back to the
  // summed per-query seconds instead of silently reporting qps = 0.
  const double denom = wall_seconds > 0 ? wall_seconds : sum;
  out.qps = denom > 0 ? static_cast<double>(sorted.size()) / denom : 0;
  out.avg_seconds = sum / static_cast<double>(sorted.size());
  auto pct = [&](double p) {
    // Nearest-rank (rounded up) so p99 of a small batch reports the tail.
    auto idx = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size() - 1)));
    return sorted[std::min(idx, sorted.size() - 1)];
  };
  out.p50_seconds = pct(0.50);
  out.p90_seconds = pct(0.90);
  out.p95_seconds = pct(0.95);
  out.p99_seconds = pct(0.99);
  return out;
}

BatchRunner::BatchRunner(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workspaces_.reserve(num_threads);
  threads_.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    workspaces_.push_back(std::make_unique<QueryWorkspace>());
  }
  for (std::size_t t = 0; t < num_threads; ++t) {
    threads_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

BatchRunner::~BatchRunner() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void BatchRunner::WorkerLoop(std::size_t tid) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t, QueryWorkspace&)>* job;
    std::size_t count;
    {
      MutexLock lock(mutex_);
      while (!stop_ && generation_ == seen_generation) work_cv_.Wait(mutex_);
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
      count = job_count_;
    }
    QueryWorkspace& ws = *workspaces_[tid];
    for (;;) {
      // Generation-checked claim: a straggler from an older batch sees the
      // generation mismatch and backs off without consuming an index of the
      // new batch.
      std::uint64_t cur = cursor_.load(std::memory_order_acquire);
      if ((cur >> 32) != (seen_generation & 0xffffffff)) break;
      std::uint64_t i = cur & 0xffffffff;
      if (i >= count) break;
      if (!cursor_.compare_exchange_weak(cur, cur + 1, std::memory_order_acq_rel)) continue;
      (*job)(static_cast<std::size_t>(i), ws);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        MutexLock lock(mutex_);
        done_cv_.NotifyAll();
      }
    }
  }
}

void BatchRunner::AcquireBusy() {
  if (busy_.exchange(true, std::memory_order_acquire)) {
    // The pool runs one job at a time: a second Run would clobber
    // job_/generation_/pending_ while workers still drain the first (the
    // waiter releases mutex_ inside done_cv_.wait), silently corrupting
    // both batches — a ServeEngine stream on this runner counts as a
    // running job for its whole lifetime.
    std::fprintf(stderr, "BatchRunner: concurrent Run on one worker pool\n");
    std::abort();
  }
}

void BatchRunner::Run(std::size_t count,
                      const std::function<void(std::size_t, QueryWorkspace&)>& fn,
                      WorkspaceStats* stats_after) {
  if (count == 0) return;
  AcquireBusy();
  MutexLock lock(mutex_);
  job_ = &fn;
  job_count_ = count;
  pending_.store(count, std::memory_order_relaxed);
  ++generation_;
  cursor_.store((generation_ & 0xffffffff) << 32, std::memory_order_release);
  work_cv_.NotifyAll();
  while (pending_.load(std::memory_order_acquire) != 0) done_cv_.Wait(mutex_);
  job_ = nullptr;
  // Workers are parked and the pool is still ours: the one point where the
  // workspace stats are safe to read on a shared runner.
  if (stats_after != nullptr) *stats_after = AggregateWorkspaceStats();
  busy_.store(false, std::memory_order_release);
}

WorkspaceStats BatchRunner::AggregateWorkspaceStats() const {
  WorkspaceStats agg;
  for (const auto& ws : workspaces_) agg += ws->Stats();
  return agg;
}

BatchResult BatchRunner::RunCustomBatch(std::size_t count, const RunTimedFn& query_fn) {
  BatchResult out;
  out.communities.resize(count);
  out.stats.resize(count);
  out.seconds.resize(count, 0);
  out.threads_used = NumThreads();
  Timer wall;
  Run(
      count,
      [&](std::size_t i, QueryWorkspace& ws) {
        Timer t;
        query_fn(i, ws, &out.communities[i], &out.stats[i]);
        out.seconds[i] = t.Seconds();
      },
      &out.workspace_stats);
  out.latency = SummarizeLatency(out.seconds, wall.Seconds());
  return out;
}

// BatchRunner::RunBccBatch / RunL2pBatch / RunMbccBatch are compatibility
// shims over ServeEngine and live in serve_engine.cc.

}  // namespace bccs
