// Discrete-event simulation core.
//
// Virtual time advances only when events fire, so a whole-population scan
// that would take hours of wall-clock time on a real network executes in
// seconds while preserving every timing-dependent behaviour (RTOs, scan
// timeouts, rate limiting).
//
// Storage layout (the hot path of the whole simulator): callbacks live in a
// slab of recycled slots (inline via util::InlineFn), and firing order
// comes from a hierarchical timing wheel over lightweight {when, seq, slot}
// records — O(1) schedule and cancel, amortized O(1) fire, and no allocator
// traffic in steady state because bucket vectors and slab slots are reused.
// The firing order is exactly the historical contract: earliest virtual
// time first, ties broken by schedule order (each wheel granule's records
// are sorted by (when, seq) before draining; `seq` mirrors the monotonic
// ids the previous priority-queue implementation sorted on).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/inline_fn.hpp"

namespace iwscan::sim {

using SimTime = std::chrono::nanoseconds;

constexpr SimTime usec(std::int64_t n) { return std::chrono::microseconds(n); }
constexpr SimTime msec(std::int64_t n) { return std::chrono::milliseconds(n); }
constexpr SimTime sec(std::int64_t n) { return std::chrono::seconds(n); }

/// Handle for cancelling a scheduled event. 0 is the null handle. Encodes
/// {slot + 1, generation}; a slot's generation bumps every time it is
/// released, so a handle kept past its event firing (or cancellation) can
/// never cancel an unrelated later event that reuses the slot.
using EventId = std::uint64_t;
inline constexpr EventId kNullEvent = 0;

class EventLoop {
 public:
  using Callback = util::InlineFn;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay` after now. Negative delays clamp to now.
  template <typename F,
            typename = std::enable_if_t<
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule(SimTime delay, F&& fn) {
    if (delay < SimTime::zero()) delay = SimTime::zero();
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule at an absolute virtual time (clamped to now if in the past).
  /// Inline and templated: scheduling is the single hottest call in the
  /// simulator, and constructing the callable directly in its slab slot
  /// (instead of routing a type-erased temporary through a relocating
  /// move) keeps the whole arm sequence in the caller's frame.
  template <typename F,
            typename = std::enable_if_t<
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_at(SimTime when, F&& fn) {
    if (when < now_) when = now_;
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_at(slot);
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      s.fn = std::forward<F>(fn);
    } else {
      // iwlint: allow(hot-path) -- InlineFn::emplace constructs the callable
      // in the slot's inline storage; not container growth
      s.fn.emplace(std::forward<F>(fn));
    }
    s.seq = next_seq_++;
    insert_record(Record{when.count(), s.seq, slot});
    ++records_;
    ++live_;
    return (static_cast<EventId>(slot) + 1) << 32 | s.generation;
  }

  /// Cancel a pending event. Safe on already-fired, stale, or null ids.
  void cancel(EventId id);

  /// Run a single event. Returns false if the queue is empty.
  IWSCAN_HOT bool step();

  /// Run events with time ≤ deadline; advances now() to deadline if the
  /// queue drains earlier.
  IWSCAN_HOT void run_until(SimTime deadline);

  /// Run until the queue is empty.
  IWSCAN_HOT void run();

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  /// Live (scheduled, not cancelled, not yet fired) events. Lazily-dropped
  /// cancelled records are not counted.
  [[nodiscard]] std::size_t pending_events() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }
  /// Physical records held in the wheel/overflow structures (live plus
  /// lazily-dropped cancelled ones). Test/debug introspection: lets tests
  /// pin that record accounting never drifts (underflow here would degrade
  /// every cancel into a full sweep).
  // iwlint: allow(unreached) -- pins that the physical record count never underflows
  [[nodiscard]] std::size_t stored_records() const noexcept {
    return records_;
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffff;

  // One cache line: InlineFn (48 B) + bookkeeping. `generation` bumps on
  // every release (fire or cancel), so an EventId carrying an older
  // generation can never cancel a free or reused slot. `seq` snapshots the
  // schedule-order counter at arm time (0 = free); a wheel record is stale
  // exactly when its seq no longer matches its slot's.
  struct Slot {
    Callback fn;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoSlot;
    std::uint64_t seq = 0;
  };

  // `seq` doubles as the deterministic tie-break (schedule order) and the
  // staleness token matched against the slot.
  struct Record {
    SimTime::rep when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct RecordOrder {
    bool operator()(const Record& a, const Record& b) const noexcept {
      if (a.when != b.when) return a.when < b.when;
      return a.seq < b.seq;
    }
  };

  // Wheel geometry: 65.5 µs granules, 4 levels of 64 buckets cover
  // ~2^40 ns ≈ 18 virtual minutes ahead; anything further waits in an
  // overflow list that re-buckets when the wheel drains down to it. The
  // coarse granule batches nearby events into one sort+drain pass, so the
  // per-bucket bookkeeping (candidate scan, drain setup) amortizes across
  // tens of events instead of being paid per event.
  static constexpr int kGranuleBits = 16;
  static constexpr int kBucketBits = 6;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr int kLevels = 4;
  static constexpr std::uint64_t kNoTick = ~std::uint64_t{0};

  [[nodiscard]] static std::uint64_t tick_of(SimTime::rep when) noexcept {
    return static_cast<std::uint64_t>(when) >> kGranuleBits;
  }

  // The slab lives in fixed 64 KiB chunks rather than one growing vector:
  // slots keep stable addresses (no relocation of armed callbacks), and the
  // modest chunk size lets the allocator recycle freed chunks across
  // EventLoop instances instead of returning multi-megabyte blocks to the
  // OS and page-faulting them back in for every new loop.
  static constexpr int kChunkBits = 10;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

  [[nodiscard]] Slot& slot_at(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t slot) const noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)];
  }
  [[nodiscard]] std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slot_at(slot).next_free;
      return slot;
    }
    if ((slot_count_ & (kChunkSlots - 1)) == 0) grow_slab();
    return slot_count_++;
  }
  void grow_slab();
  void release_slot(std::uint32_t slot);
  [[nodiscard]] bool stale(const Record& record) const noexcept {
    return slot_at(record.slot).seq != record.seq;
  }
  void insert_record(const Record& record) {
    const std::uint64_t t = tick_of(record.when);
    if (drain_active_ && t == drain_tick_) {
      insert_into_drain(record);
      return;
    }
    // Invariant: tick_ ≤ tick_of(when) whenever user code can schedule, so
    // the distance is non-negative and picks the level whose window holds
    // the record.
    const std::uint64_t distance = t - tick_;
    for (int level = 0; level < kLevels; ++level) {
      if (distance < std::uint64_t{1} << (kBucketBits * (level + 1))) {
        const std::size_t bucket = (t >> (kBucketBits * level)) & (kBuckets - 1);
        // iwlint: allow(hot-path) -- append into a recycled bucket vector;
        // capacity is reused across wheel revolutions (alloc_budget_test)
        wheel_[level][bucket].push_back(record);
        occupancy_[level] |= std::uint64_t{1} << bucket;
        return;
      }
    }
    // iwlint: allow(hot-path) -- overflow list holds only events scheduled
    // beyond the wheel horizon (~18 virtual minutes); rare and re-bucketed
    overflow_.push_back(record);
  }
  void insert_into_drain(const Record& record);
  void cascade(int level, std::size_t bucket);
  /// Fire the earliest event if its time is ≤ limit. Returns false (and
  /// leaves the loop consistent) otherwise.
  bool fire_next(SimTime::rep limit);
  void fire(const Record& record);
  bool rebucket_overflow(SimTime::rep limit);
  /// Drop every stale record (bounds memory under cancel-heavy loads).
  void sweep_stale();
  void clear_all_records();

  SimTime now_{0};
  std::uint64_t next_seq_ = 1;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  std::uint64_t events_processed_ = 0;

  std::array<std::array<std::vector<Record>, kBuckets>, kLevels> wheel_;
  std::array<std::uint64_t, kLevels> occupancy_{};
  std::vector<Record> overflow_;
  std::vector<Record> cascade_scratch_;  // empty between cascades
  std::uint64_t tick_ = 0;     // wheel cursor; ≤ tick_of(next fire)
  std::size_t records_ = 0;    // live + stale records held in wheel/overflow
  bool drain_active_ = false;  // a level-0 bucket is sorted and mid-drain
  std::uint32_t drain_bucket_ = 0;
  std::uint64_t drain_tick_ = 0;
  std::size_t drain_pos_ = 0;
};

}  // namespace iwscan::sim
