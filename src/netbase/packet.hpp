// Whole-datagram encode/decode: IPv4 + (TCP segment | ICMP message).
//
// The simulator transports raw byte vectors; these helpers are the only
// place where full datagrams are assembled or taken apart, so checksums and
// length fields are guaranteed consistent everywhere.
#pragma once

#include <optional>
#include <variant>

#include "netbase/headers.hpp"
#include "netbase/wire.hpp"

namespace iwscan::net {

struct TcpSegment {
  Ipv4Header ip;
  TcpHeader tcp;
  Bytes payload;

  [[nodiscard]] std::size_t payload_size() const noexcept { return payload.size(); }
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

/// Wire size of the datagram encode_into() writes for these headers and
/// payload — what a pooled sender passes to BufferPool::acquire().
[[nodiscard]] inline std::size_t encoded_size(const TcpHeader& tcp,
                                              std::span<const std::uint8_t> payload) {
  return Ipv4Header::kSize + tcp.encoded_size() + payload.size();
}
[[nodiscard]] inline std::size_t encoded_size(const IcmpDatagram& datagram) {
  return Ipv4Header::kSize + IcmpMessage::kHeaderSize + datagram.icmp.payload.size();
}

/// encode() into a caller-provided vector (cleared first) — the pooled
/// datapath: passing a recycled PacketBuf's bytes() makes steady-state
/// encoding allocation-free once buffers have grown to working size.
void encode_into(const TcpSegment& segment, Bytes& out);
void encode_into(const IcmpDatagram& datagram, Bytes& out);

/// The TCP encoder proper: headers plus a borrowed payload, so a sender
/// that keeps its bytes elsewhere (a send buffer, a request) need not
/// stage them in a TcpSegment first. The TcpSegment overload delegates.
void encode_into(const Ipv4Header& ip, const TcpHeader& tcp,
                 std::span<const std::uint8_t> payload, Bytes& out);

/// Parse any supported datagram into `out`, reusing its storage: when `out`
/// already holds the same alternative, its payload capacity carries over,
/// so a receiver that keeps one Datagram decodes without allocating once
/// the capacity has grown. Every field is overwritten on success — `mss`
/// included, so a segment without an MSS option never shows the previous
/// packet's; on failure (malformed bytes, bad checksum, unsupported
/// protocol) returns false and leaves `out` unspecified — valid, but not
/// to be read.
[[nodiscard]] bool decode_datagram_into(std::span<const std::uint8_t> bytes,
                                        Datagram& out);

/// decode_datagram_into() a fresh Datagram. Returns nullopt where that
/// returns false.
[[nodiscard]] std::optional<Datagram> decode_datagram(std::span<const std::uint8_t> bytes);

/// Destination address without full parsing (for simulator routing).
/// Returns nullopt if the buffer cannot possibly hold an IPv4 header.
[[nodiscard]] std::optional<IPv4Address> peek_destination(
    std::span<const std::uint8_t> bytes) noexcept;

/// Source address without full parsing.
[[nodiscard]] std::optional<IPv4Address> peek_source(
    std::span<const std::uint8_t> bytes) noexcept;

}  // namespace iwscan::net
