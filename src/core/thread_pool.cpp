#include "core/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>

#include <pthread.h>
#include <time.h>

namespace ecocap::core {

struct ThreadPool::Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> active{0};  // workers currently inside run_job
  std::exception_ptr error;            // first failure, guarded by error_mutex
  std::mutex error_mutex;
};

unsigned ThreadPool::default_worker_count() {
  const unsigned hw = std::max(std::thread::hardware_concurrency(), 1u);
  const char* env = std::getenv("ECOCAP_THREADS");
  if (env == nullptr || *env == '\0') return hw;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);  // saturates out of range
  if (end != env && *end == '\0' && v > 0 &&
      v <= std::numeric_limits<int>::max()) {
    return static_cast<unsigned>(v);
  }
  std::fprintf(stderr,
               "ecocap: invalid ECOCAP_THREADS=\"%s\" (want a positive "
               "integer); using %u hardware threads\n",
               env, hw);
  return hw;
}

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) workers = default_worker_count();
  // The caller participates in every job, so spawn one fewer thread; a
  // single-worker pool is purely inline and thread-free.
  threads_.reserve(workers - 1);
  for (unsigned i = 0; i + 1 < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

namespace {

/// True while this thread is executing a job's indices. A parallel_for
/// issued from inside a running job (e.g. an FDTD step inside a TrialRunner
/// leg) runs inline instead of re-entering the single-job pool.
thread_local bool t_in_job = false;

struct InJobScope {
  InJobScope() { t_in_job = true; }
  ~InJobScope() { t_in_job = false; }
};

}  // namespace

void ThreadPool::run_job(Job& job) {
  InJobScope scope;
  while (true) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    try {
      (*job.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || (job_ && epoch_ != seen_epoch); });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
      job->active.fetch_add(1, std::memory_order_relaxed);
    }
    run_job(*job);
    // Decrement and notify under the mutex: parallel_for checks `active`
    // and blocks on done_ atomically with respect to mutex_, so a last
    // decrement outside it could land between that check and the block and
    // its notify would be lost.
    std::lock_guard<std::mutex> lock(mutex_);
    if (job->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (t_in_job || threads_.empty() || n == 1) {
    // Nested jobs run inline: the pool handles one job at a time, and a
    // worker that blocked on a child job would deadlock the parent.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Job job;
  job.fn = &fn;
  job.n = n;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++epoch_;
  }
  wake_.notify_all();
  run_job(job);  // the caller is a worker too

  // Workers that joined must leave before the job can be torn down.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_ = nullptr;
    done_.wait(lock, [&] { return job.active.load(std::memory_order_acquire) == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

double ThreadPool::worker_cpu_seconds() {
  double total = 0.0;
  for (std::thread& t : threads_) {
    clockid_t clock{};
    timespec ts{};
    if (pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
        clock_gettime(clock, &ts) == 0) {
      total += static_cast<double>(ts.tv_sec) +
               1e-9 * static_cast<double>(ts.tv_nsec);
    }
  }
  return total;
}

}  // namespace ecocap::core
