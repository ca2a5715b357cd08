// Byte ↔ text bridging for codec boundaries (TCP payload bytes carrying
// ASCII protocols). Centralizes the two reinterpret_casts — and the
// raw-memory word loads and stores — the codebase needs so call sites stay
// cast-free and greppable.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>

namespace iwscan::util {

/// View a byte buffer as text. The bytes must outlive the view.
[[nodiscard]] inline std::string_view as_text(
    std::span<const std::uint8_t> bytes) noexcept {
  if (bytes.empty()) return {};
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// Load 8 bytes as a u64 in *native* byte order — the single audited raw
/// word read, for word-at-a-time kernels (callers that need a fixed
/// endianness must gate on std::endian::native). Compiles to one unaligned
/// load; `bytes` must point at ≥ 8 readable bytes.
[[nodiscard]] inline std::uint64_t load_u64_native(
    const std::uint8_t* bytes) noexcept {
  std::uint64_t value;
  std::memcpy(&value, bytes, sizeof(value));
  return value;
}

/// Fixed-width little-endian load of an unsigned integer from `bytes`, for
/// host-side file formats (store/spill_format.hpp). One unaligned load on a
/// little-endian host; byte by byte on any other, so the value read is the
/// same everywhere. `bytes` must point at ≥ sizeof(T) readable bytes.
template <class T>
[[nodiscard]] inline T load_le(const std::uint8_t* bytes) noexcept {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    T value;
    std::memcpy(&value, bytes, sizeof(value));
    return value;
  } else {
    T value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      value = static_cast<T>(value | (T{bytes[i]} << (8 * i)));
    }
    return value;
  }
}

/// The store matching load_le: `bytes` must point at ≥ sizeof(T) writable
/// bytes, which receive `value` least significant byte first.
template <class T>
inline void store_le(std::uint8_t* bytes, T value) noexcept {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(bytes, &value, sizeof(value));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
  }
}

/// View text as raw bytes. The text must outlive the span.
[[nodiscard]] inline std::span<const std::uint8_t> as_bytes(
    std::string_view text) noexcept {
  if (text.empty()) return {};
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

}  // namespace iwscan::util
