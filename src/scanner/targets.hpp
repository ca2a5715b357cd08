// Scan target generation: an allowlist of CIDR blocks minus a blocklist,
// visited in pseudorandom permutation order (the ZMap model: blocklisted
// and unroutable prefixes are never probed, the rest is shuffled).
//
// Sampling support (take a random p-fraction of the space) implements the
// paper's 1 %-subsample scans (§4.1 "Scanning 1% is enough!").
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "netbase/ipv4.hpp"
#include "scanner/permutation.hpp"

namespace iwscan::scan {

class TargetGenerator {
 public:
  /// `allow` is normalized at construction: blocks nested inside another
  /// block (and exact duplicates) are merged away, so every address is
  /// visited exactly once and sharded partitions are provably disjoint.
  /// `sample_fraction` in (0,1] keeps each address
  /// independently with that probability (deterministic in seed).
  TargetGenerator(std::vector<net::Cidr> allow, std::vector<net::Cidr> block,
                  std::uint64_t seed, double sample_fraction = 1.0,
                  std::uint64_t shard = 0, std::uint64_t total_shards = 1);

  /// Next target, or nullopt when the space is exhausted.
  [[nodiscard]] std::optional<net::IPv4Address> next();

  /// Global permutation-cycle index of the last address returned by next().
  /// Comparable across shards of the same (allow, seed) space; a parallel
  /// executor orders merged records by it (see PermutationIterator).
  [[nodiscard]] std::uint64_t last_cycle_index() const noexcept {
    return last_cycle_index_;
  }

  /// Total addresses in the allowlist (before blocklist/sampling).
  [[nodiscard]] std::uint64_t address_space_size() const noexcept { return total_; }

 private:
  [[nodiscard]] static std::vector<net::Cidr> normalize(std::vector<net::Cidr> blocks);
  [[nodiscard]] net::IPv4Address index_to_address(std::uint64_t index) const noexcept;
  [[nodiscard]] bool blocked(net::IPv4Address addr) const noexcept;

  std::vector<net::Cidr> allow_;
  std::vector<std::uint64_t> cumulative_;  // prefix sums of block sizes
  std::vector<net::Cidr> block_;
  std::uint64_t total_ = 0;
  RandomPermutation permutation_;
  PermutationIterator iterator_;
  std::uint64_t sample_seed_;
  double sample_fraction_;
  std::uint64_t last_cycle_index_ = 0;
};

/// Where a scan engine's targets come from: a TargetGenerator (every
/// address of the space, the stateful tier) or a fixed list (the two-phase
/// executor's responsive set). Either way the whole target set is known
/// before the engine starts.
class TargetSource {
 public:
  virtual ~TargetSource() = default;

  /// Pull the next target and its global permutation-cycle index; false
  /// once no target remains.
  [[nodiscard]] virtual bool next(net::IPv4Address& target, std::uint64_t& cycle) = 0;

  /// Expected total target count (capacity pre-sizing only; may be 0).
  [[nodiscard]] virtual std::uint64_t size_hint() const noexcept { return 0; }
};

/// TargetGenerator adapted to the pull interface.
class GeneratorTargetSource final : public TargetSource {
 public:
  explicit GeneratorTargetSource(TargetGenerator generator)
      : generator_(std::move(generator)) {}

  [[nodiscard]] bool next(net::IPv4Address& target, std::uint64_t& cycle) override {
    const auto address = generator_.next();
    if (!address) return false;
    target = *address;
    cycle = generator_.last_cycle_index();
    return true;
  }

  [[nodiscard]] std::uint64_t size_hint() const noexcept override {
    return generator_.address_space_size();
  }

 private:
  TargetGenerator generator_;
};

/// A fixed, pre-resolved target list with explicit cycle indices — the
/// two-phase executor replays the sweep's responsive set (truncated by
/// max_promoted_hosts, if set) through one of these.
class ListTargetSource final : public TargetSource {
 public:
  using Entry = std::pair<net::IPv4Address, std::uint64_t>;  // (target, cycle)

  explicit ListTargetSource(std::vector<Entry> entries)
      : entries_(std::move(entries)) {}

  [[nodiscard]] bool next(net::IPv4Address& target, std::uint64_t& cycle) override {
    if (position_ >= entries_.size()) return false;
    target = entries_[position_].first;
    cycle = entries_[position_].second;
    ++position_;
    return true;
  }

  [[nodiscard]] std::uint64_t size_hint() const noexcept override {
    return entries_.size();
  }

 private:
  std::vector<Entry> entries_;
  std::size_t position_ = 0;
};

}  // namespace iwscan::scan
