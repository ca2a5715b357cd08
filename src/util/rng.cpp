#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace iwscan::util {

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  if (bound <= 1) return 0;
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform01();
  while (u1 <= 0.0) u1 = uniform01();
  const double u2 = uniform01();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

std::size_t Rng::weighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (const double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return 0;
  double pick = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (pick < w) return i;
    pick -= w;
  }
  return weights.size() - 1;
}

// iwlint: allow(unreached) -- digest of the probe's pinned request bytes (prober_test)
std::uint64_t hash_seed(std::string_view text) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return mix64(h, 0x5eedf00d5eedf00dULL);
}

AliasTable::AliasTable(std::span<const double> weights) {
  const std::size_t n = weights.size();
  if (n == 0) return;
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);

  double total = 0.0;
  for (const double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) {
    // Degenerate: uniform.
    for (std::size_t i = 0; i < n; ++i) {
      prob_[i] = 1.0;
      alias_[i] = static_cast<std::uint32_t>(i);
    }
    return;
  }

  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = (weights[i] > 0.0 ? weights[i] : 0.0) * static_cast<double>(n) / total;
  }
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (const std::uint32_t i : large) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
  for (const std::uint32_t i : small) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
}

std::size_t AliasTable::sample(Rng& rng) const noexcept {
  if (prob_.empty()) return 0;
  const std::size_t column = rng.below(prob_.size());
  return rng.uniform01() < prob_[column] ? column : alias_[column];
}

}  // namespace iwscan::util
