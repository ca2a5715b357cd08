#include "netbase/checksum.hpp"

#include <bit>

#include "util/bytes.hpp"

namespace iwscan::net {

namespace {

/// End-around fold of a ones-complement partial sum down to 16 bits. The
/// result is 0 only when the input is 0 (a positive sum folds into
/// [1, 0xffff]), which is what keeps the word-wise path's intermediate
/// folds invisible to finish().
[[nodiscard]] constexpr std::uint64_t fold16(std::uint64_t sum) noexcept {
  while ((sum >> 16) != 0) sum = (sum & 0xffff) + (sum >> 16);
  return sum;
}

[[nodiscard]] constexpr std::uint16_t byteswap16(std::uint64_t value) noexcept {
  return static_cast<std::uint16_t>(((value & 0xff) << 8) | ((value >> 8) & 0xff));
}

}  // namespace

// iwlint: allow(unreached) -- byte-wise reference for the word-wise fold
void ChecksumAccumulator::add_scalar(std::span<const std::uint8_t> bytes) noexcept {
  std::size_t i = 0;
  for (; i + 1 < bytes.size(); i += 2) {
    sum_ += (static_cast<std::uint16_t>(bytes[i]) << 8) | bytes[i + 1];
  }
  if (i < bytes.size()) sum_ += static_cast<std::uint16_t>(bytes[i]) << 8;
}

// Word-at-a-time RFC 1071 sum. Eight bytes per load, accumulated in
// little-endian 16-bit-lane space and converted once at the end:
// ones-complement addition is arithmetic mod 0xffff, where a byte swap is
// multiplication by 2^8 (a unit), so
//   big-endian sum ≡ byteswap16(fold16(little-endian sum))  (mod 0xffff),
// and both sides are zero exactly for all-zero input, making the
// substitution invisible to finish()'s fold-and-invert. Four independent
// accumulators give the load/add chain instruction-level parallelism.
void ChecksumAccumulator::add(std::span<const std::uint8_t> bytes) noexcept {
  std::size_t i = 0;
  const std::size_t n = bytes.size();
  if constexpr (std::endian::native == std::endian::little) {
    if (n >= 8) {
      constexpr std::uint64_t kLo32 = 0xffffffffULL;
      std::uint64_t a0 = 0;
      std::uint64_t a1 = 0;
      std::uint64_t a2 = 0;
      std::uint64_t a3 = 0;
      const std::uint8_t* data = bytes.data();
      for (; i + 32 <= n; i += 32) {
        const std::uint64_t w0 = util::load_u64_native(data + i);
        const std::uint64_t w1 = util::load_u64_native(data + i + 8);
        const std::uint64_t w2 = util::load_u64_native(data + i + 16);
        const std::uint64_t w3 = util::load_u64_native(data + i + 24);
        a0 += (w0 & kLo32) + (w0 >> 32);
        a1 += (w1 & kLo32) + (w1 >> 32);
        a2 += (w2 & kLo32) + (w2 >> 32);
        a3 += (w3 & kLo32) + (w3 >> 32);
      }
      for (; i + 8 <= n; i += 8) {
        const std::uint64_t w = util::load_u64_native(data + i);
        a0 += (w & kLo32) + (w >> 32);
      }
      // The processed prefix is a multiple of 8 bytes, so the tail below
      // starts on an even offset and the big-endian pairing is preserved.
      sum_ += byteswap16(fold16(a0 + a1 + a2 + a3));
    }
  }
  // Tail (and big-endian hosts: the whole range) as big-endian byte pairs.
  for (; i + 1 < n; i += 2) {
    sum_ += (static_cast<std::uint16_t>(bytes[i]) << 8) | bytes[i + 1];
  }
  if (i < n) sum_ += static_cast<std::uint16_t>(bytes[i]) << 8;
}

std::uint16_t ChecksumAccumulator::finish() const noexcept {
  return static_cast<std::uint16_t>(~fold16(sum_) & 0xffff);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes) noexcept {
  ChecksumAccumulator acc;
  acc.add(bytes);
  return acc.finish();
}

// iwlint: allow(unreached) -- RFC 1071 reference for the word-wise checksum
std::uint16_t internet_checksum_scalar(
    std::span<const std::uint8_t> bytes) noexcept {
  ChecksumAccumulator acc;
  acc.add_scalar(bytes);
  return acc.finish();
}

std::uint16_t tcp_checksum(IPv4Address src, IPv4Address dst,
                           std::span<const std::uint8_t> segment) noexcept {
  ChecksumAccumulator acc;
  acc.add_u32(src.value());
  acc.add_u32(dst.value());
  acc.add_u16(6);  // protocol = TCP
  acc.add_u16(static_cast<std::uint16_t>(segment.size()));
  acc.add(segment);
  return acc.finish();
}

}  // namespace iwscan::net
