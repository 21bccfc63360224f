#include "eval/batch_runner.h"

#include <algorithm>
#include <atomic>
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
    const Job* job;
    {
      MutexLock lock(mutex_);
      while (!stop_ && generation_ == seen_generation) work_cv_.Wait(mutex_);
      if (stop_) return;
      seen_generation = generation_;
      // job_ stays put until Wait returns, which needs this worker back.
      job = &job_;
    }
    (*job)(*workspaces_[tid]);
    MutexLock lock(mutex_);
    if (--running_ == 0) done_cv_.NotifyAll();
  }
}

void BatchRunner::Start(Job fn) {
  MutexLock lock(mutex_);
  if (job_) {
    std::fprintf(stderr,
                 "BatchRunner: Start while a job is running (one job at a time)\n");
    std::abort();
  }
  job_ = std::move(fn);
  running_ = threads_.size();
  ++generation_;
  work_cv_.NotifyAll();
}

void BatchRunner::Wait(WorkspaceStats* stats_after) {
  MutexLock lock(mutex_);
  while (running_ != 0) done_cv_.Wait(mutex_);
  // Workers are parked and the pool is still ours: the one point where the
  // workspace stats are safe to read on a shared runner.
  if (stats_after != nullptr) *stats_after = AggregateWorkspaceStats();
  job_ = nullptr;
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
  std::atomic<std::size_t> next{0};
  Start([&](QueryWorkspace& ws) {
    for (std::size_t i = next++; i < count; i = next++) {
      Timer t;
      query_fn(i, ws, &out.communities[i], &out.stats[i]);
      out.seconds[i] = t.Seconds();
    }
  });
  Wait(&out.workspace_stats);
  out.latency = SummarizeLatency(out.seconds, wall.Seconds());
  return out;
}

// BatchRunner::RunBccBatch / RunL2pBatch / RunMbccBatch are compatibility
// shims over ServeEngine and live in serve_engine.cc.

}  // namespace bccs
