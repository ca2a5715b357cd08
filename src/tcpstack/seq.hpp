// Modulo-2^32 sequence-number arithmetic (RFC 793 §3.3).
#pragma once

#include <cstdint>

namespace iwscan::tcp {

[[nodiscard]] constexpr bool seq_lt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) < 0;
}
[[nodiscard]] constexpr bool seq_gt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) > 0;
}
[[nodiscard]] constexpr bool seq_ge(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) >= 0;
}
/// Distance a→b, meaningful when b is "after" a in the window.
[[nodiscard]] constexpr std::uint32_t seq_diff(std::uint32_t b, std::uint32_t a) noexcept {
  return b - a;
}

}  // namespace iwscan::tcp
