// TCP options area (RFC 793 §3.1, RFC 7323, RFC 2018).
//
// The scan's SYN announces one small MSS and deliberately offers neither
// window scale nor SACK-permitted (§3.1 of the paper); the simulated hosts
// answer with their own MSS and nothing else. So MSS is the only option a
// header carries, and read_tcp_options() is the one walk over an options
// area: the header decoder and the stateless sweep both call it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "netbase/wire.hpp"

namespace iwscan::net {

/// Wire size of the MSS option: kind, length, 16-bit value.
inline constexpr std::uint8_t kMssWireSize = 4;

/// Write an MSS option (`02 04 hi lo`). Four bytes, so no NOP padding.
void encode_mss_option(std::uint16_t mss, WireWriter& writer);

/// Validate an options area and report its first MSS (nullopt if none).
/// Returns false on a malformed area: a length below 2 or past the end,
/// or a known kind (MSS, window scale, SACK-permitted) of the wrong
/// length. NOP and END are honoured; other kinds are skipped. Allocates
/// nothing; on false, `mss` is unspecified.
[[nodiscard]] bool read_tcp_options(std::span<const std::uint8_t> area,
                                    std::optional<std::uint16_t>& mss) noexcept;

}  // namespace iwscan::net
