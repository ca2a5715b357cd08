// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte spans.
//
// Guards every spill segment (store/spill_format.hpp): the header carries a
// CRC of itself and of its payload, so a truncated or bit-flipped tail is a
// reported open() error instead of silently corrupt records. On x86-64
// CPUs with PCLMULQDQ (checked at run time) a carry-less-multiply folding
// kernel does the bulk of a span; slicing-by-8 tables do the rest, and
// all of it elsewhere. Both give the same value.
#pragma once

#include <cstdint>
#include <span>

namespace iwscan::store {

[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// crc32() by the slicing-by-8 tables alone over the whole span, as a CPU
/// without PCLMULQDQ computes it, so tests check both kernels on any CPU.
[[nodiscard]] std::uint32_t crc32_portable(std::span<const std::uint8_t> data) noexcept;

}  // namespace iwscan::store
