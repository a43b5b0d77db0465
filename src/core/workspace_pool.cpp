#include "core/workspace_pool.hpp"

#include <algorithm>

namespace ecocap::core {

WorkspacePool& WorkspacePool::shared() {
  // Never destroyed: ThreadPool::shared()'s workers retire their
  // thread-local workspaces into this pool when they exit, which happens
  // during static destruction — after a function-local static pool here
  // would already be gone.
  static WorkspacePool* const pool = new WorkspacePool;
  return *pool;
}

/// Ties a thread's workspace lifetime to the thread itself: the workspace
/// unregisters before it is destroyed, so shutdown of short-lived threads
/// (sanitizer runs spawn plenty) never leaves a dangling registry entry.
struct WorkspacePool::Registration {
  explicit Registration(WorkspacePool& pool) : pool_(pool) {
    pool_.enroll(&workspace_);
  }
  ~Registration() { pool_.retire(&workspace_); }
  WorkspacePool& pool_;
  dsp::Workspace workspace_;
};

dsp::Workspace& WorkspacePool::local() {
  thread_local Registration reg(*this);
  return reg.workspace_;
}

void WorkspacePool::enroll(dsp::Workspace* ws) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ws->set_pooling(pooling_);
  workspaces_.push_back(ws);
}

void WorkspacePool::retire(dsp::Workspace* ws) {
  const std::lock_guard<std::mutex> lock(mutex_);
  workspaces_.erase(
      std::remove(workspaces_.begin(), workspaces_.end(), ws),
      workspaces_.end());
}

void WorkspacePool::set_pooling(bool enabled) {
  const std::lock_guard<std::mutex> lock(mutex_);
  pooling_ = enabled;
  for (dsp::Workspace* ws : workspaces_) ws->set_pooling(enabled);
}

bool WorkspacePool::pooling() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pooling_;
}

dsp::Workspace::Stats WorkspacePool::total_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  dsp::Workspace::Stats total;
  for (const dsp::Workspace* ws : workspaces_) {
    total.checkouts += ws->stats().checkouts;
    total.heap_allocations += ws->stats().heap_allocations;
    total.returns += ws->stats().returns;
  }
  return total;
}

void WorkspacePool::reset_stats() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (dsp::Workspace* ws : workspaces_) ws->reset_stats();
}

void WorkspacePool::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (dsp::Workspace* ws : workspaces_) ws->clear();
}

}  // namespace ecocap::core
