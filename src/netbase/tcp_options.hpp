// TCP option encoding/decoding (RFC 793 §3.1, RFC 7323, RFC 2018).
//
// Only the options the scan methodology touches are modeled: MSS (announced
// small to maximize segment counts, §3.1 of the paper), window scale (to
// advertise a large receive window), and SACK-permitted (deliberately NOT
// offered, disabling tail-loss probes, §3.1). Unknown options round-trip as
// raw bytes so foreign stacks can be represented faithfully.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "netbase/wire.hpp"

namespace iwscan::net {

struct MssOption {
  std::uint16_t mss = 536;
  bool operator==(const MssOption&) const = default;
};

struct WindowScaleOption {
  std::uint8_t shift = 0;
  bool operator==(const WindowScaleOption&) const = default;
};

struct SackPermittedOption {
  bool operator==(const SackPermittedOption&) const = default;
};

struct UnknownOption {
  std::uint8_t kind = 0;
  Bytes data;  // option payload, excluding kind and length octets
  bool operator==(const UnknownOption&) const = default;
};

using TcpOption =
    std::variant<MssOption, WindowScaleOption, SackPermittedOption, UnknownOption>;

/// Serialize options and pad with NOPs to a 4-byte boundary.
void encode_tcp_options(const std::vector<TcpOption>& options, WireWriter& writer);

/// Size in bytes that encode_tcp_options will produce (incl. padding).
[[nodiscard]] std::size_t encoded_tcp_options_size(const std::vector<TcpOption>& options);

/// Parse the options area of a TCP header into `options` (cleared first,
/// capacity kept). Returns false on malformed lengths, leaving `options`
/// unspecified; NOP and END are consumed silently.
[[nodiscard]] bool decode_tcp_options_into(std::span<const std::uint8_t> data,
                                           std::vector<TcpOption>& options);

/// decode_tcp_options_into() a fresh list; nullopt where that returns false.
[[nodiscard]] std::optional<std::vector<TcpOption>> decode_tcp_options(
    std::span<const std::uint8_t> data);

/// First MSS option found, if any.
[[nodiscard]] std::optional<std::uint16_t> find_mss(const std::vector<TcpOption>& options);

/// First window-scale option found, if any.
[[nodiscard]] std::optional<std::uint8_t> find_window_scale(
    const std::vector<TcpOption>& options);

/// True if SACK-permitted is present.
[[nodiscard]] bool has_sack_permitted(const std::vector<TcpOption>& options);

}  // namespace iwscan::net
