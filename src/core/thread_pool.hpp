#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ecocap::core {

/// Fixed-size worker pool for sharding independent Monte-Carlo work. There
/// is deliberately no work stealing and no per-task queue: a parallel_for
/// hands every worker the same claim counter, so scheduling is a single
/// fetch_add and the only shared mutable state during a job is that counter.
/// Determinism is the caller's contract — parallel_for promises nothing
/// about *which* thread runs an index, so callers must make each index's
/// work self-contained (see TrialRunner).
class ThreadPool {
 public:
  /// `workers == 0` picks the default: the ECOCAP_THREADS environment
  /// variable when set to a positive integer, else
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers participating in a job (spawned threads + the caller).
  unsigned size() const { return static_cast<unsigned>(threads_.size()) + 1; }

  /// Worker count the default constructor would choose: ECOCAP_THREADS
  /// when it is a positive integer, else the hardware concurrency (an
  /// invalid value prints a stderr note naming it and the fallback).
  static unsigned default_worker_count();

  /// Run fn(i) for every i in [0, n). Indices are claimed from a shared
  /// atomic counter; the calling thread participates, so a 1-worker pool
  /// runs everything inline. Blocks until all n calls return. The first
  /// exception thrown by fn is rethrown on the caller after the job drains.
  /// A parallel_for issued from inside a running job (nesting) executes
  /// fully inline on the calling thread — safe, but not parallel.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Process-wide pool, built lazily with the default worker count. The
  /// harnesses share it so a sweep-of-sweeps doesn't oversubscribe.
  static ThreadPool& shared();

  /// CPU seconds the spawned workers have run so far: the sum of their
  /// CLOCK_THREAD_CPUTIME_ID clocks. A blocked worker accrues none, so the
  /// change across a job, plus the caller's own thread clock, is the job's
  /// CPU cost at any width.
  double worker_cpu_seconds();

 private:
  struct Job;
  void worker_loop();
  static void run_job(Job& job);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Job* job_ = nullptr;       // guarded by mutex_
  std::uint64_t epoch_ = 0;  // bumped per job so workers never re-enter one
  bool stop_ = false;
};

}  // namespace ecocap::core
