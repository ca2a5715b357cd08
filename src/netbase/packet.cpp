#include "netbase/packet.hpp"

#include "netbase/checksum.hpp"

namespace iwscan::net {

void encode_into(const TcpSegment& segment, Bytes& out) {
  out.clear();
  const std::size_t wire_size = encoded_size(segment);
  // iwlint: allow(hot-path) -- reserve on a pooled buffer reusing its
  // capacity; a no-op in steady state (pinned by alloc_budget_test)
  out.reserve(wire_size);
  WireWriter writer(out);

  Ipv4Header ip = segment.ip;
  ip.protocol = kProtocolTcp;
  ip.total_length = static_cast<std::uint16_t>(wire_size);
  ip.encode(writer);

  const std::size_t tcp_start = writer.offset();
  segment.tcp.encode(writer);
  writer.raw(segment.payload);

  const std::uint16_t checksum = tcp_checksum(
      ip.src, ip.dst, std::span<const std::uint8_t>(out).subspan(tcp_start));
  writer.patch_u16(tcp_start + 16, checksum);
}

void encode_into(const IcmpDatagram& datagram, Bytes& out) {
  out.clear();
  // ICMP wire size is known up front (8-byte header + payload), so the
  // message encodes straight into the output — no staging vector.
  const std::size_t wire_size = encoded_size(datagram);
  // iwlint: allow(hot-path) -- reserve on a pooled buffer reusing its
  // capacity; a no-op in steady state (pinned by alloc_budget_test)
  out.reserve(wire_size);
  WireWriter writer(out);
  Ipv4Header ip = datagram.ip;
  ip.protocol = kProtocolIcmp;
  ip.total_length = static_cast<std::uint16_t>(wire_size);
  ip.encode(writer);
  datagram.icmp.encode(writer);
}

Bytes encode(const TcpSegment& segment) {
  Bytes out;
  encode_into(segment, out);
  return out;
}

Bytes encode(const IcmpDatagram& datagram) {
  Bytes out;
  encode_into(datagram, out);
  return out;
}

std::optional<Datagram> decode_datagram(std::span<const std::uint8_t> bytes) {
  WireReader reader(bytes);
  const auto ip = Ipv4Header::decode(reader);
  if (!ip) return std::nullopt;
  if (ip->total_length < Ipv4Header::kSize || ip->total_length > bytes.size()) {
    return std::nullopt;
  }
  const std::size_t l4_len = ip->total_length - Ipv4Header::kSize;
  const auto l4 = bytes.subspan(Ipv4Header::kSize, l4_len);

  if (ip->protocol == kProtocolTcp) {
    if (tcp_checksum(ip->src, ip->dst, l4) != 0) return std::nullopt;
    TcpSegment segment;
    segment.ip = *ip;
    WireReader tcp_reader(l4);
    std::size_t data_offset = 0;
    if (!TcpHeader::decode_into(tcp_reader, data_offset, segment.tcp)) return std::nullopt;
    if (data_offset > l4_len) return std::nullopt;
    segment.payload = l4.subspan(data_offset);
    return segment;
  }

  if (ip->protocol == kProtocolIcmp) {
    auto icmp = IcmpMessage::decode(l4);
    if (!icmp) return std::nullopt;
    return IcmpDatagram{*ip, *icmp};
  }

  return std::nullopt;
}

std::optional<IPv4Address> peek_destination(
    std::span<const std::uint8_t> bytes) noexcept {
  if (bytes.size() < Ipv4Header::kSize) return std::nullopt;
  const std::uint32_t value = (std::uint32_t{bytes[16]} << 24) |
                              (std::uint32_t{bytes[17]} << 16) |
                              (std::uint32_t{bytes[18]} << 8) | bytes[19];
  return IPv4Address{value};
}

std::optional<IPv4Address> peek_source(std::span<const std::uint8_t> bytes) noexcept {
  if (bytes.size() < Ipv4Header::kSize) return std::nullopt;
  const std::uint32_t value = (std::uint32_t{bytes[12]} << 24) |
                              (std::uint32_t{bytes[13]} << 16) |
                              (std::uint32_t{bytes[14]} << 8) | bytes[15];
  return IPv4Address{value};
}

}  // namespace iwscan::net
