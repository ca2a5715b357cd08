// Fixed-size worker thread pool.
//
// The only place in the codebase that spawns threads: shard workers of the
// scan executor run here, each driving a private virtual-time event loop.
// Pool scheduling affects wall-clock timing only — never scan output,
// which is made order-independent upstream (per-target draws, per-flow
// impairment RNGs) and re-ordered deterministically downstream (cycle-index
// merge in exec::run_scan).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iwscan::exec {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(std::size_t threads);
  /// Waits for queued work to drain, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; runs on some worker thread.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_idle_;
  std::size_t running_ = 0;
  bool stop_ = false;
};

}  // namespace iwscan::exec
