// Flat hash table for the fabric's per-address and per-flow state.
//
// sim::Network looks an address up on every hop, so its bookkeeping lives
// in open-addressing tables instead of node-based maps: linear probing over
// a power-of-two slot array, keys in their own dense array so that a miss
// (a dark address) walks a few keys on one cache line. Erase uses
// backward-shift deletion instead of tombstones, so the churn of a scan —
// hosts materialized and evicted all run long — never lengthens a probe
// chain and never forces a rehash.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace iwscan::sim {

/// Unsigned-integer key → Value. Values must be default-constructible; an
/// empty slot holds a default value. A pointer or reference into the table
/// stays valid until the next find_or_add that grows it or the next erase.
/// Nothing iterates the table, so slot order never reaches behaviour.
template <typename Key, typename Value>
class AddressTable {
  static_assert(std::is_unsigned_v<Key>, "keys are addresses or address pairs");

 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return tags_.size(); }
  /// The slot `key`'s probe run starts at (cf. unordered_map::bucket);
  /// needs capacity() > 0.
  [[nodiscard]] std::size_t bucket(Key key) const noexcept { return home(key); }

  /// Make room for `count` entries in all, so that reaching that size
  /// never grows the table.
  void reserve(std::size_t count) {
    std::size_t slots = kMinSlots;
    while (max_load(slots) < count) slots *= 2;
    if (slots > capacity()) grow(slots);
  }

  [[nodiscard]] Value* find(Key key) noexcept {
    const std::size_t i = slot_of(key);
    return i == kAbsent ? nullptr : &values_[i];
  }
  [[nodiscard]] const Value* find(Key key) const noexcept {
    const std::size_t i = slot_of(key);
    return i == kAbsent ? nullptr : &values_[i];
  }

  /// The value for `key`; a default one, with `added` set, when absent.
  Value& find_or_add(Key key, bool& added) {
    added = false;
    if (Value* found = find(key)) return *found;
    if (size_ + 1 > max_load(capacity())) {
      grow(capacity() == 0 ? kMinSlots : 2 * capacity());
    }
    std::size_t i = home(key);
    while (tags_[i].used) i = (i + 1) & mask_;
    tags_[i] = Tag{key, true};
    ++size_;
    added = true;
    return values_[i];
  }

  /// Remove `key`'s entry. Later entries of its probe run shift back into
  /// the hole, so every remaining key stays reachable without tombstones.
  bool erase(Key key) noexcept {
    std::size_t hole = slot_of(key);
    if (hole == kAbsent) return false;
    for (std::size_t next = (hole + 1) & mask_; tags_[next].used;
         next = (next + 1) & mask_) {
      // An entry may move back into the hole only if the hole lies on its
      // probe path, i.e. cyclically within [home, next).
      const std::size_t from_home = (next - home(tags_[next].key)) & mask_;
      const std::size_t to_hole = (next - hole) & mask_;
      if (from_home >= to_hole) {
        tags_[hole] = tags_[next];
        values_[hole] = std::move(values_[next]);
        hole = next;
      }
    }
    tags_[hole] = Tag{};
    values_[hole] = Value{};
    --size_;
    return true;
  }

 private:
  struct Tag {
    Key key = 0;
    bool used = false;
  };

  static constexpr std::size_t kMinSlots = 16;
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// Load factor 3/4: a miss probes about eight keys at the limit, still
  /// within one or two cache lines of the dense key array.
  [[nodiscard]] static constexpr std::size_t max_load(std::size_t slots) noexcept {
    return slots / 4 * 3;
  }

  /// Fibonacci hashing: fold the high half in, multiply, keep the top bits.
  [[nodiscard]] std::size_t home(Key key) const noexcept {
    auto h = static_cast<std::uint64_t>(key);
    h ^= h >> 32;
    h *= 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> shift_);
  }

  [[nodiscard]] std::size_t slot_of(Key key) const noexcept {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (!tags_[i].used) return kAbsent;
      if (tags_[i].key == key) return i;
    }
  }

  void grow(std::size_t slots) {
    std::vector<Tag> old_tags = std::move(tags_);
    std::vector<Value> old_values = std::move(values_);
    // iwlint: allow(hot-path) -- the fabric's only table growth: amortized
    // doubling, and sim::Network::reserve_endpoints sizes both tables before
    // a scan, so the datapath grows them only past the reserved host count
    tags_.assign(slots, Tag{});
    // iwlint: allow(hot-path) -- same growth step as the key array above
    values_.assign(slots, Value{});
    mask_ = slots - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (std::size_t j = 0; j < old_tags.size(); ++j) {
      if (!old_tags[j].used) continue;
      std::size_t i = home(old_tags[j].key);
      while (tags_[i].used) i = (i + 1) & mask_;
      tags_[i] = old_tags[j];
      values_[i] = std::move(old_values[j]);
    }
  }

  std::vector<Tag> tags_;
  std::vector<Value> values_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace iwscan::sim
