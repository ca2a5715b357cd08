// Bounded multi-producer single-consumer channel.
//
// The one hand-off from shard tasks to the merger in the scan executor
// (see executor.hpp); it never carries single records. Tasks block when the
// merger falls behind, and the merger blocks when no results are pending.
// Closing wakes everyone; a closed channel drains remaining items before
// reporting exhaustion, so no result is ever lost.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace iwscan::exec {

template <typename T>
class BoundedChannel {
 public:
  explicit BoundedChannel(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedChannel(const BoundedChannel&) = delete;
  BoundedChannel& operator=(const BoundedChannel&) = delete;

  /// Blocks while the channel is full. Returns false (dropping `value`)
  /// if the channel was closed.
  bool push(T value) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [this] { return queue_.size() < capacity_ || closed_; });
    if (closed_) return false;
    queue_.push_back(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the channel is empty and open. Returns nullopt once the
  /// channel is closed *and* fully drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    T value = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Unblocks all producers and consumers. Queued items remain poppable.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

 private:
  std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace iwscan::exec
