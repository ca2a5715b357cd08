// Full-cycle pseudorandom permutation over an arbitrary domain.
//
// ZMap iterates the IPv4 space as a cyclic multiplicative group mod a prime
// > 2^32, giving a stateless pseudorandom permutation so probes to one
// network are spread over time. We substitute a keyed Feistel network with
// cycle-walking: the same properties (bijective, seeded, O(1) state, no
// precomputed tables) with the advantage of working over any domain size —
// which lets both the whole-IPv4 iteration and the down-scaled simulation
// populations use one verified implementation (see DESIGN.md §2).
#pragma once

#include <cstdint>

namespace iwscan::scan {

/// Bijection over [0, domain_size). Deterministic in (domain_size, seed).
class RandomPermutation {
 public:
  RandomPermutation(std::uint64_t domain_size, std::uint64_t seed);

  [[nodiscard]] std::uint64_t domain_size() const noexcept { return domain_; }

  /// Image of `index` (index < domain_size).
  [[nodiscard]] std::uint64_t permute(std::uint64_t index) const noexcept;

 private:
  [[nodiscard]] std::uint64_t feistel(std::uint64_t value) const noexcept;

  std::uint64_t domain_;
  int half_bits_;          // bits per Feistel half (covers domain when doubled)
  std::uint64_t half_mask_;
  std::uint64_t round_keys_[4];
};

/// A cursor over a permutation's images in index order; optionally sharded
/// (shard k of n visits indices k, k+n, k+2n, …) for parallel scanners.
/// It holds no pointer to the permutation — each next() is handed one — so
/// an owner storing both copies and moves with the defaulted members.
class PermutationIterator {
 public:
  explicit PermutationIterator(std::uint64_t shard = 0,
                               std::uint64_t total_shards = 1) noexcept
      : index_(shard), stride_(total_shards) {}

  /// Next image of `permutation`, or false when the cycle is complete.
  bool next(const RandomPermutation& permutation, std::uint64_t& out) noexcept {
    if (index_ >= permutation.domain_size()) return false;
    last_index_ = index_;
    out = permutation.permute(index_);
    index_ += stride_;
    return true;
  }

  /// Domain index consumed by the most recent successful next(). Shard k of
  /// n walks k, k+n, k+2n, …, so this is a *global* cycle position that is
  /// comparable across shards — a parallel executor sorts merged results by
  /// it to recover the exact shards=1 emission order.
  [[nodiscard]] std::uint64_t last_index() const noexcept { return last_index_; }

 private:
  std::uint64_t index_;
  std::uint64_t stride_;
  std::uint64_t last_index_ = 0;
};

}  // namespace iwscan::scan
