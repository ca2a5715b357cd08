// IPv4, TCP and ICMP header codecs (RFC 791, RFC 793, RFC 792).
//
// Encoding always computes correct lengths and checksums; decoding verifies
// them. Both sides of the simulation (scanner and host stacks) exchange real
// wire bytes, so a decoding bug here would break the scan exactly as it
// would on a physical network.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "netbase/ipv4.hpp"
#include "netbase/tcp_options.hpp"
#include "netbase/wire.hpp"

namespace iwscan::net {

inline constexpr std::uint8_t kProtocolIcmp = 1;
inline constexpr std::uint8_t kProtocolTcp = 6;

struct Ipv4Header {
  static constexpr std::size_t kSize = 20;  // options unsupported

  std::uint8_t tos = 0;
  std::uint16_t total_length = 0;  // filled by encode from payload size
  std::uint16_t identification = 0;
  bool dont_fragment = false;
  bool more_fragments = false;
  std::uint16_t fragment_offset = 0;  // in 8-byte units
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kProtocolTcp;
  IPv4Address src;
  IPv4Address dst;

  /// Serialize with checksum; total_length must already be set.
  void encode(WireWriter& writer) const;

  /// Parse and verify version/IHL/checksum. Returns nullopt if invalid.
  [[nodiscard]] static std::optional<Ipv4Header> decode(WireReader& reader);
};

enum TcpFlag : std::uint8_t {
  kFin = 0x01,
  kSyn = 0x02,
  kRst = 0x04,
  kPsh = 0x08,
  kAck = 0x10,
  kUrg = 0x20,
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 0;
  std::uint16_t urgent = 0;
  std::optional<std::uint16_t> mss;  // the MSS option, the one option modeled

  [[nodiscard]] bool has(TcpFlag flag) const noexcept { return (flags & flag) != 0; }
  [[nodiscard]] std::size_t encoded_size() const noexcept {
    return 20 + (mss ? std::size_t{kMssWireSize} : 0);
  }

  /// Serialize with a zero checksum placeholder; the packet codec patches
  /// in the pseudo-header checksum afterwards.
  void encode(WireWriter& writer) const;

  /// Parse header + options into `out`: read_tcp_options() validates the
  /// options area and `mss` takes its first MSS (nullopt if none), so every
  /// field is overwritten. `data_offset_bytes` receives the data offset so
  /// the caller can slice the payload. Checksum verification happens at the
  /// packet layer where the pseudo-header addresses are known. On false,
  /// `out` is unspecified.
  [[nodiscard]] static bool decode_into(WireReader& reader,
                                        std::size_t& data_offset_bytes, TcpHeader& out);
};

enum class IcmpType : std::uint8_t {
  EchoReply = 0,
  DestinationUnreachable = 3,
  Echo = 8,
};

/// ICMP code for "fragmentation needed and DF set" (RFC 1191 PMTUD).
inline constexpr std::uint8_t kIcmpFragNeeded = 4;

struct IcmpMessage {
  static constexpr std::size_t kHeaderSize = 8;

  IcmpType type = IcmpType::Echo;
  std::uint8_t code = 0;
  // Rest-of-header semantics depend on type: echo id/seq, or unused +
  // next-hop MTU for Fragmentation Needed.
  std::uint16_t id_or_unused = 0;
  std::uint16_t seq_or_mtu = 0;
  // Borrowed: a decoded message points into the bytes it was decoded from;
  // a sender points it at storage it keeps until the encode.
  std::span<const std::uint8_t> payload;

  void encode(WireWriter& writer) const;
  /// The returned message's payload views `data`, so it is valid for as
  /// long as `data` is.
  [[nodiscard]] static std::optional<IcmpMessage> decode(
      std::span<const std::uint8_t> data);
};

}  // namespace iwscan::net
