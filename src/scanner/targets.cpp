#include "scanner/targets.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/rng.hpp"

namespace iwscan::scan {

namespace {
std::uint64_t total_size(const std::vector<net::Cidr>& blocks) {
  std::uint64_t total = 0;
  for (const auto& block : blocks) total += block.size();
  return total == 0 ? 1 : total;
}
}  // namespace

// Two aligned power-of-two ranges are either disjoint or nested, so
// normalization reduces to dropping every block contained in another (and
// later copies of exact duplicates): the survivors are pairwise disjoint,
// and disjoint inputs pass through untouched, keeping the index→address
// assignment stable for callers that already pass disjoint lists.
std::vector<net::Cidr> TargetGenerator::normalize(std::vector<net::Cidr> blocks) {
  std::vector<net::Cidr> out;
  out.reserve(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    bool drop = false;
    for (std::size_t j = 0; j < blocks.size() && !drop; ++j) {
      if (j == i) continue;
      const bool nested = blocks[j].prefix_len < blocks[i].prefix_len &&
                          blocks[j].contains(blocks[i].first());
      const bool duplicate = j < i &&
                             blocks[j].prefix_len == blocks[i].prefix_len &&
                             blocks[j].first() == blocks[i].first();
      drop = nested || duplicate;
    }
    if (!drop) out.push_back(blocks[i]);
  }
  return out;
}

TargetGenerator::TargetGenerator(std::vector<net::Cidr> allow,
                                 std::vector<net::Cidr> block, std::uint64_t seed,
                                 double sample_fraction, std::uint64_t shard,
                                 std::uint64_t total_shards)
    : allow_(normalize(std::move(allow))),
      block_(std::move(block)),
      total_(total_size(allow_)),
      permutation_(total_, seed),
      iterator_(shard, total_shards),
      sample_seed_(util::mix64(seed, 0x5a3b7e11)),
      sample_fraction_(sample_fraction) {
  cumulative_.reserve(allow_.size());
  std::uint64_t running = 0;
  for (const auto& cidr : allow_) {
    running += cidr.size();
    cumulative_.push_back(running);
  }
}

net::IPv4Address TargetGenerator::index_to_address(std::uint64_t index) const noexcept {
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), index);
  const std::size_t block_idx = static_cast<std::size_t>(it - cumulative_.begin());
  const std::uint64_t before = block_idx == 0 ? 0 : cumulative_[block_idx - 1];
  return allow_[block_idx].at(index - before);
}

bool TargetGenerator::blocked(net::IPv4Address addr) const noexcept {
  for (const auto& cidr : block_) {
    if (cidr.contains(addr)) return true;
  }
  return false;
}

std::optional<net::IPv4Address> TargetGenerator::next() {
  if (allow_.empty()) return std::nullopt;
  std::uint64_t index = 0;
  while (iterator_.next(permutation_, index)) {
    const net::IPv4Address addr = index_to_address(index);
    if (blocked(addr)) continue;
    if (sample_fraction_ < 1.0) {
      // Deterministic per-address coin: the same 1% sample is drawn on
      // every run with the same seed (and across shards).
      const double coin =
          static_cast<double>(util::mix64(sample_seed_, addr.value()) >> 11) *
          0x1.0p-53;
      if (coin >= sample_fraction_) continue;
    }
    last_cycle_index_ = iterator_.last_index();
    return addr;
  }
  return std::nullopt;
}

}  // namespace iwscan::scan
