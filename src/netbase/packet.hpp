// Whole-datagram encode/decode: IPv4 + (TCP segment | ICMP message).
//
// The simulator transports raw byte vectors; these helpers are the only
// place where full datagrams are assembled or taken apart, so checksums and
// length fields are guaranteed consistent everywhere.
#pragma once

#include <optional>
#include <span>
#include <variant>

#include "netbase/headers.hpp"
#include "netbase/wire.hpp"

namespace iwscan::net {

// A decoded datagram is a view, like a PacketView: its payload points into
// the bytes it was decoded from and is valid for as long as they are. A
// sender points the payload at storage it keeps until the encode.
struct TcpSegment {
  Ipv4Header ip;
  TcpHeader tcp;
  std::span<const std::uint8_t> payload;

  /// Sequence space consumed: payload plus SYN/FIN flags.
  [[nodiscard]] std::uint32_t seq_length() const noexcept {
    return static_cast<std::uint32_t>(payload.size()) + (tcp.has(kSyn) ? 1 : 0) +
           (tcp.has(kFin) ? 1 : 0);
  }
};

struct IcmpDatagram {
  Ipv4Header ip;
  IcmpMessage icmp;
};

using Datagram = std::variant<TcpSegment, IcmpDatagram>;

/// Serialize a TCP segment into wire bytes. Fills ip.total_length and both
/// checksums; other ip/tcp fields are taken as given.
[[nodiscard]] Bytes encode(const TcpSegment& segment);

/// Serialize an ICMP datagram.
[[nodiscard]] Bytes encode(const IcmpDatagram& datagram);

/// Wire size of the datagram encode_into() writes — what a pooled sender
/// passes to BufferPool::acquire().
[[nodiscard]] inline std::size_t encoded_size(const TcpSegment& segment) {
  return Ipv4Header::kSize + segment.tcp.encoded_size() + segment.payload.size();
}
[[nodiscard]] inline std::size_t encoded_size(const IcmpDatagram& datagram) {
  return Ipv4Header::kSize + IcmpMessage::kHeaderSize + datagram.icmp.payload.size();
}

/// encode() into a caller-provided vector (cleared first) — the pooled
/// datapath: passing a recycled PacketBuf's bytes() makes steady-state
/// encoding allocation-free once buffers have grown to working size.
void encode_into(const TcpSegment& segment, Bytes& out);
void encode_into(const IcmpDatagram& datagram, Bytes& out);

/// Parse any supported datagram. The result's payload views `bytes`, so it
/// is valid for as long as `bytes` is. Returns nullopt on malformed bytes,
/// a bad checksum or an unsupported protocol.
[[nodiscard]] std::optional<Datagram> decode_datagram(std::span<const std::uint8_t> bytes);
/// A temporary's bytes die with the full expression, and the view with them.
std::optional<Datagram> decode_datagram(Bytes&& bytes) = delete;

/// Destination address without full parsing (for simulator routing).
/// Returns nullopt if the buffer cannot possibly hold an IPv4 header.
[[nodiscard]] std::optional<IPv4Address> peek_destination(
    std::span<const std::uint8_t> bytes) noexcept;

/// Source address without full parsing.
[[nodiscard]] std::optional<IPv4Address> peek_source(
    std::span<const std::uint8_t> bytes) noexcept;

}  // namespace iwscan::net
