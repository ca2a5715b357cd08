#include "netsim/event_loop.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace iwscan::sim {

namespace {

constexpr std::uint32_t id_slot(EventId id) noexcept {
  return static_cast<std::uint32_t>(id >> 32) - 1;
}

constexpr std::uint32_t id_generation(EventId id) noexcept {
  return static_cast<std::uint32_t>(id);
}

constexpr SimTime::rep kNoLimit = std::numeric_limits<SimTime::rep>::max();

}  // namespace

void EventLoop::grow_slab() {
  // iwlint: allow(hot-path) -- slab growth stops at the scan's high-water
  // mark of in-flight events; steady state recycles slots via the free list
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
}

void EventLoop::release_slot(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  s.fn.reset();
  s.seq = 0;       // stale-ifies any wheel record for this arming
  ++s.generation;  // invalidates any outstanding EventId for this slot
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

// Lands in the granule currently being drained: a sorted insert past the
// drain cursor keeps same-time events firing in schedule order.
void EventLoop::insert_into_drain(const Record& record) {
  std::vector<Record>& bucket = wheel_[0][drain_bucket_];
  const auto it = std::upper_bound(
      bucket.begin() + static_cast<std::ptrdiff_t>(drain_pos_), bucket.end(),
      record, RecordOrder{});
  // iwlint: allow(hot-path) -- sorted insert into a recycled bucket vector;
  // bucket capacity is reused across granules (pinned by alloc_budget_test)
  bucket.insert(it, record);
}

void EventLoop::cancel(EventId id) {
  if (id == kNullEvent) return;
  const std::uint32_t slot = id_slot(id);
  if (slot >= slot_count_) return;
  if (slot_at(slot).seq == 0) return;  // already fired or cancelled
  if (slot_at(slot).generation != id_generation(id)) return;  // stale id
  release_slot(slot);
  // The wheel record is dropped lazily (at drain or cascade time); sweep
  // eagerly once stale records dominate so cancel-heavy loads stay bounded.
  if (records_ > 4 * live_ + 64) sweep_stale();
}

// Redistribute a higher-level bucket into lower levels. Every live record
// lands at least one level down (its distance from tick_ is less than this
// level's window span), but the bucket is swapped into scratch storage
// first so an insert_record that targets this very bucket can neither
// invalidate the iteration nor be wiped by the trailing clear.
void EventLoop::cascade(int level, std::size_t bucket) {
  occupancy_[level] &= ~(std::uint64_t{1} << bucket);
  cascade_scratch_.swap(wheel_[level][bucket]);  // scratch was empty
  for (const Record& record : cascade_scratch_) {
    if (stale(record)) {
      --records_;  // cancelled while parked: collected here
      continue;
    }
    insert_record(record);
  }
  cascade_scratch_.clear();
}

void EventLoop::fire(const Record& record) {
  Slot& s = slot_at(record.slot);
  Callback fn = std::move(s.fn);
  now_ = SimTime{record.when};
  tick_ = tick_of(record.when);
  // Free the slot before invoking: the callback may schedule (reusing this
  // slot under a new generation) or grow the slab.
  release_slot(record.slot);
  ++events_processed_;
  fn();
}

bool EventLoop::fire_next(SimTime::rep limit) {
  for (;;) {
    if (drain_active_) {
      std::vector<Record>& bucket = wheel_[0][drain_bucket_];
      while (drain_pos_ < bucket.size()) {
        const Record record = bucket[drain_pos_];
        if (stale(record)) {
          ++drain_pos_;
          --records_;
          continue;
        }
        if (record.when > limit) {
          // Pause. Physically erase the consumed prefix first: those
          // records were already subtracted from records_ when they fired
          // or were skipped as stale, and leaving them in the bucket would
          // make the next drain (or sweep_stale) subtract them again and
          // underflow records_. Then drop the drain state: before the next
          // call, external code may schedule events into earlier granules,
          // so the next fire must re-select the earliest bucket from
          // scratch.
          bucket.erase(bucket.begin(),
                       bucket.begin() + static_cast<std::ptrdiff_t>(drain_pos_));
          drain_active_ = false;
          return false;
        }
        ++drain_pos_;
        --records_;
        fire(record);  // may reallocate `bucket`; return without touching it
        return true;
      }
      bucket.clear();
      occupancy_[0] &= ~(std::uint64_t{1} << drain_bucket_);
      drain_active_ = false;
    }
    if (live_ == 0) {
      if (records_ != 0) clear_all_records();  // only stale records remain
      return false;
    }
    // Earliest candidate across levels: for level 0 the exact granule of
    // the next occupied bucket; for higher levels the start of the next
    // occupied window, a lower bound for every event parked inside it. Ties
    // go to the higher level (its bucket may hold earlier events and must
    // be redistributed before the level-0 granule fires).
    std::uint64_t best_tick = kNoTick;
    std::uint64_t best_start = 0;
    int best_level = -1;
    std::size_t best_bucket = 0;
    for (int level = 0; level < kLevels; ++level) {
      const std::uint64_t occ = occupancy_[level];
      if (occ == 0) continue;
      const std::uint64_t position = tick_ >> (kBucketBits * level);
      const int cursor = static_cast<int>(position & (kBuckets - 1));
      std::uint64_t rot = std::rotr(occ, cursor);
      std::uint64_t dist = static_cast<std::uint64_t>(std::countr_zero(rot));
      if (dist == 0 && level > 0 &&
          tick_ != position << (kBucketBits * level)) {
        // An occupied cursor bucket at level >= 1 is ambiguous. With tick_
        // exactly at the window's start (a higher-level cascade tied on
        // cand and jumped here first), its records are genuinely current
        // and must cascade now — the dist == 0 reading is right. But with
        // tick_ strictly mid-window, current-window records are impossible
        // (the scan cascades a bucket at its start before letting tick_
        // move past it, and mid-window inserts land at lower levels), so
        // the records sit one full revolution ahead — e.g. tick_ = 1 and
        // an insert at distance 64^(level+1)-1 granules. Then drop the
        // cursor bit and rescan: any other occupied bucket at this level
        // is nearer and must not be shadowed; only when the cursor bucket
        // is alone is the next window a whole revolution out. Level-0
        // granules are exact, so dist == 0 there is always due.
        rot &= rot - 1;
        dist = rot != 0 ? static_cast<std::uint64_t>(std::countr_zero(rot))
                        : kBuckets;
      }
      const std::uint64_t window = position + dist;
      const std::uint64_t start = window << (kBucketBits * level);
      const std::uint64_t cand = std::max(start, tick_);
      if (cand <= best_tick) {
        best_tick = cand;
        best_start = start;
        best_level = level;
        best_bucket = window & (kBuckets - 1);
      }
    }
    if (best_level < 0) {
      // Wheels empty but live events remain: they wait in the overflow
      // list beyond the wheel horizon.
      if (!rebucket_overflow(limit)) return false;
      continue;
    }
    if (best_level == 0) {
      std::vector<Record>& bucket = wheel_[0][best_bucket];
      // Cascades preserve push order and pushes follow schedule order, so
      // buckets are usually already sorted; the linear pre-check dodges the
      // full sort on that common path.
      if (bucket.size() > 1 &&
          !std::is_sorted(bucket.begin(), bucket.end(), RecordOrder{})) {
        std::sort(bucket.begin(), bucket.end(), RecordOrder{});
      }
      drain_active_ = true;
      drain_bucket_ = static_cast<std::uint32_t>(best_bucket);
      drain_tick_ = best_tick;
      drain_pos_ = 0;
      continue;
    }
    const auto start_ns = static_cast<SimTime::rep>(best_start << kGranuleBits);
    if (start_ns > limit) return false;  // keeps tick_ ≤ tick_of(limit)
    if (best_start > tick_) tick_ = best_start;
    cascade(best_level, best_bucket);
  }
}

bool EventLoop::rebucket_overflow(SimTime::rep limit) {
  std::erase_if(overflow_, [this](const Record& record) {
    if (stale(record)) {
      --records_;
      return true;
    }
    return false;
  });
  if (overflow_.empty()) return false;
  SimTime::rep min_when = kNoLimit;
  for (const Record& record : overflow_) {
    min_when = std::min(min_when, record.when);
  }
  if (min_when > limit) return false;
  // Nothing is parked in the wheels, so the cursor can jump straight to the
  // earliest overflow event; everything within the horizon re-buckets (the
  // earliest lands in level 0) and the far tail returns to the list.
  tick_ = std::max(tick_, tick_of(min_when));
  std::vector<Record> pending;
  pending.swap(overflow_);
  for (const Record& record : pending) {
    insert_record(record);
  }
  return true;
}

void EventLoop::sweep_stale() {
  for (int level = 0; level < kLevels; ++level) {
    std::uint64_t occ = occupancy_[level];
    while (occ != 0) {
      const auto bucket = static_cast<std::size_t>(std::countr_zero(occ));
      occ &= occ - 1;
      std::vector<Record>& records = wheel_[level][bucket];
      const bool draining =
          drain_active_ && level == 0 && bucket == drain_bucket_;
      // Leave the consumed prefix of an active drain untouched so the drain
      // cursor stays valid; the suffix is still sorted after compaction.
      auto begin = records.begin();
      if (draining) begin += static_cast<std::ptrdiff_t>(drain_pos_);
      const auto it = std::remove_if(
          begin, records.end(),
          [this](const Record& record) { return stale(record); });
      records_ -= static_cast<std::size_t>(records.end() - it);
      records.erase(it, records.end());
      if (records.empty() && !draining) {
        occupancy_[level] &= ~(std::uint64_t{1} << bucket);
      }
    }
  }
  std::erase_if(overflow_, [this](const Record& record) {
    if (stale(record)) {
      --records_;
      return true;
    }
    return false;
  });
}

void EventLoop::clear_all_records() {
  for (int level = 0; level < kLevels; ++level) {
    std::uint64_t occ = occupancy_[level];
    while (occ != 0) {
      wheel_[level][static_cast<std::size_t>(std::countr_zero(occ))].clear();
      occ &= occ - 1;
    }
    occupancy_[level] = 0;
  }
  overflow_.clear();
  drain_active_ = false;
  records_ = 0;
}

bool EventLoop::step() { return fire_next(kNoLimit); }

// iwlint: allow(unreached) -- tests stop virtual time at a deadline mid-flight
void EventLoop::run_until(SimTime deadline) {
  const SimTime::rep limit = deadline.count();
  while (fire_next(limit)) {
  }
  if (now_ < deadline) now_ = deadline;
}

void EventLoop::run() {
  while (fire_next(kNoLimit)) {
  }
}

}  // namespace iwscan::sim
