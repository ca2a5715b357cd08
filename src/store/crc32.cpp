#include "store/crc32.hpp"

#include <array>
#include <cstddef>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define IWSCAN_CRC32_CLMUL 1
#endif

namespace iwscan::store {
namespace {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

consteval Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  // tables[k][b] = CRC of byte b followed by k zero bytes; lets the main
  // loop fold 8 input bytes per step (slicing-by-8).
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = make_crc32_tables();

/// Slicing-by-8 over `data`, continuing the running (inverted) `crc`.
std::uint32_t crc32_tables(std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    crc ^= std::uint32_t{data[i]} | (std::uint32_t{data[i + 1]} << 8) |
           (std::uint32_t{data[i + 2]} << 16) | (std::uint32_t{data[i + 3]} << 24);
    // iwlint: allow(wire-taint) -- uint8_t values and &0xFF masks index
    // 256-entry tables; every subscript is in range by construction
    crc = kTables[7][crc & 0xFFu] ^ kTables[6][(crc >> 8) & 0xFFu] ^
          kTables[5][(crc >> 16) & 0xFFu] ^ kTables[4][crc >> 24] ^
          kTables[3][data[i + 4]] ^ kTables[2][data[i + 5]] ^
          kTables[1][data[i + 6]] ^ kTables[0][data[i + 7]];
  }
  for (; i < data.size(); ++i) {
    // iwlint: allow(wire-taint) -- (crc ^ byte) & 0xFF indexes a 256-entry table
    crc = (crc >> 8) ^ kTables[0][(crc ^ data[i]) & 0xFFu];
  }
  return crc;
}

#ifdef IWSCAN_CRC32_CLMUL
__m128i load16(const std::uint8_t* at) noexcept {
  return _mm_loadu_si128(static_cast<const __m128i*>(static_cast<const void*>(at)));
}

/// acc·k (both 64-bit halves, carry-less) folded onto the next 16 bytes.
[[gnu::target("pclmul,sse4.1")]] __m128i fold16(__m128i acc, __m128i k,
                                                 __m128i next) noexcept {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00), _mm_clmulepi64_si128(acc, k, 0x11)),
      next);
}

/// Carry-less-multiply folding (Intel, "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ", 2009), bit-reflected constants for
/// 0xEDB88320: four 128-bit lanes fold 64 bytes a step, then one lane, then
/// a Barrett reduction to 32 bits. `data.size()` must be a multiple of 16
/// and at least 64; continues and returns the running (inverted) CRC.
[[gnu::target("pclmul,sse4.1")]] std::uint32_t crc32_clmul(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* const p = data.data();
  // x^(4*128+32), x^(4*128-32), x^(128+32), x^(128-32), x^64 and x^32
  // mod P, each reflected and shifted left by one; then P' and μ'.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  std::size_t at = 64;
  for (; at + 64 <= data.size(); at += 64) {
    x1 = fold16(x1, k1k2, load16(p + at));
    x2 = fold16(x2, k1k2, load16(p + at + 16));
    x3 = fold16(x3, k1k2, load16(p + at + 32));
    x4 = fold16(x4, k1k2, load16(p + at + 48));
  }
  x1 = fold16(x1, k3k4, x2);
  x1 = fold16(x1, k3k4, x3);
  x1 = fold16(x1, k3k4, x4);
  for (; at < data.size(); at += 16) x1 = fold16(x1, k3k4, load16(p + at));

  // 128 → 64 bits, then 64 → 32 bits (Barrett).
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00), x2);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}
#endif

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  std::uint32_t crc = ~std::uint32_t{0};
#ifdef IWSCAN_CRC32_CLMUL
  if (data.size() >= 64 && __builtin_cpu_supports("pclmul") &&
      __builtin_cpu_supports("sse4.1")) {
    const std::size_t folded = data.size() & ~std::size_t{15};
    crc = crc32_clmul(crc, data.first(folded));
    data = data.subspan(folded);
  }
#endif
  return ~crc32_tables(crc, data);
}

// iwlint: allow(unreached) -- the tables kernel over whole spans, checked where crc32() folds
std::uint32_t crc32_portable(std::span<const std::uint8_t> data) noexcept {
  return ~crc32_tables(~std::uint32_t{0}, data);
}

}  // namespace iwscan::store
