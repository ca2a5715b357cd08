// Structured fuzz driver for the TCP options walk (netbase/tcp_options).
//
// Properties under test: read_tcp_options never crashes or reads out of
// bounds on arbitrary bytes; an accepted area yields its first MSS (a NOP
// in front changes nothing, an MSS in front wins, bytes after END are
// never read); the MSS survives a header encode→decode round trip. Each
// input also rides a whole TCP segment, as its options area and its
// payload: the datagram decoder must accept and read what the walk does,
// its payload must be the input's bytes after the header, where they lie,
// and encoding the decode must give the input back (byte for byte where
// the options area is one the encoder writes). Each input also rides an
// ICMP datagram as its whole message, whose decoded payload must lie
// inside the input too.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <span>

#include "fuzz_harness.hpp"
#include "netbase/checksum.hpp"
#include "netbase/packet.hpp"
#include "netbase/tcp_options.hpp"

namespace {

using iwscan::fuzz::Input;

void require(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "tcp_options property violated: %s\n", what);
    std::abort();
  }
}

/// A checksummed IPv4/TCP datagram whose options area is `data` (cut to
/// the 40 bytes a header can hold, zero-padded to a 32-bit boundary) and
/// whose payload is `data` again. Built by hand so that malformed option
/// bytes reach the decoder.
iwscan::net::Bytes wrap_in_segment(std::span<const std::uint8_t> data) {
  namespace net = iwscan::net;
  const auto options = data.first(std::min<std::size_t>(data.size(), 40));
  const std::size_t options_len = (options.size() + 3) / 4 * 4;
  const std::size_t tcp_len = 20 + options_len + data.size();
  net::Bytes wire;
  net::WireWriter writer(wire);
  net::Ipv4Header ip;
  ip.src = net::IPv4Address(10, 3, 2, 1);
  ip.dst = net::IPv4Address(192, 0, 2, 1);
  ip.total_length = static_cast<std::uint16_t>(net::Ipv4Header::kSize + tcp_len);
  ip.encode(writer);
  writer.u16(80);
  writer.u16(40000);
  writer.u32(static_cast<std::uint32_t>(data.size()));  // seq
  writer.u32(0);                                         // ack
  writer.u8(static_cast<std::uint8_t>((20 + options_len) / 4 << 4));
  writer.u8(iwscan::net::kAck);
  writer.u16(65535);
  writer.u16(0);  // checksum, patched below
  writer.u16(0);
  writer.raw(options);
  for (std::size_t pad = options.size(); pad < options_len; ++pad) writer.u8(0);
  writer.raw(data);
  const auto l4 = std::span<const std::uint8_t>(wire).subspan(net::Ipv4Header::kSize);
  writer.patch_u16(net::Ipv4Header::kSize + 16, net::tcp_checksum(ip.src, ip.dst, l4));
  return wire;
}

/// `view` lies inside `wire`, `offset` bytes in, and runs to its end.
bool views_tail(std::span<const std::uint8_t> view, const iwscan::net::Bytes& wire,
                std::size_t offset) {
  return offset <= wire.size() && view.data() == wire.data() + offset &&
         view.size() == wire.size() - offset;
}

/// Decode `wire` (wrap_in_segment of `data`): an accepted segment's
/// payload is `data` where it lies in `wire`, and its encode reproduces
/// `wire` when the options area is empty or one MSS option, the only ones
/// the encoder writes; any other area is dropped, so the encode then
/// re-decodes to the same fields. Returns the decoded MSS, or nullopt if
/// the decoder rejected `wire`.
std::optional<std::optional<std::uint16_t>> check_segment_decode(
    const iwscan::net::Bytes& wire, std::span<const std::uint8_t> data) {
  namespace net = iwscan::net;
  const auto decoded = net::decode_datagram(wire);
  if (!decoded) return std::nullopt;
  const auto* segment = std::get_if<net::TcpSegment>(&*decoded);
  require(segment != nullptr, "a TCP datagram decoded as another kind");
  const std::size_t header_bytes = wire.size() - data.size();
  require(views_tail(segment->payload, wire, header_bytes),
          "the payload is not the bytes after the header, where they lie");
  require(std::ranges::equal(segment->payload, data), "the payload bytes differ");
  const net::Bytes encoded = net::encode(*segment);
  if (header_bytes == net::Ipv4Header::kSize + segment->tcp.encoded_size()) {
    require(encoded == wire, "encode of the decode does not reproduce the input");
  } else {
    const auto again = net::decode_datagram(encoded);
    require(again.has_value(), "encode of the decode does not decode");
    const auto& b = std::get<net::TcpSegment>(*again);
    require(b.tcp.mss == segment->tcp.mss && b.tcp.seq == segment->tcp.seq &&
                b.tcp.flags == segment->tcp.flags &&
                std::ranges::equal(b.payload, segment->payload),
            "encode of the decode re-decodes differently");
  }
  return segment->tcp.mss;
}

/// An IPv4 datagram whose ICMP message is `data`, checksum patched in when
/// `data` can hold one: a decoded message's payload must be `data` past
/// its 8-byte header, where it lies.
void check_icmp_decode(std::span<const std::uint8_t> data) {
  namespace net = iwscan::net;
  net::Bytes wire;
  net::WireWriter writer(wire);
  net::Ipv4Header ip;
  ip.protocol = net::kProtocolIcmp;
  ip.src = net::IPv4Address(10, 3, 2, 1);
  ip.dst = net::IPv4Address(192, 0, 2, 1);
  ip.total_length = static_cast<std::uint16_t>(net::Ipv4Header::kSize + data.size());
  ip.encode(writer);
  writer.raw(data);
  if (data.size() >= net::IcmpMessage::kHeaderSize) {
    writer.patch_u16(net::Ipv4Header::kSize + 2, 0);
    const auto l4 = std::span<const std::uint8_t>(wire).subspan(net::Ipv4Header::kSize);
    writer.patch_u16(net::Ipv4Header::kSize + 2, net::internet_checksum(l4));
  }
  const auto decoded = net::decode_datagram(wire);
  require(decoded.has_value() == (data.size() >= net::IcmpMessage::kHeaderSize),
          "ICMP decode acceptance does not follow the header size");
  if (!decoded) return;
  const auto& icmp = std::get<net::IcmpDatagram>(*decoded);
  require(views_tail(icmp.icmp.payload, wire,
                     net::Ipv4Header::kSize + net::IcmpMessage::kHeaderSize),
          "the ICMP payload is not the bytes after its header, where they lie");
}

/// read_tcp_options() as a value: nullopt when it rejects `area`.
std::optional<std::optional<std::uint16_t>> walk(std::span<const std::uint8_t> area) {
  std::optional<std::uint16_t> mss;
  if (!iwscan::net::read_tcp_options(area, mss)) return std::nullopt;
  return mss;
}

iwscan::net::Bytes concat(std::initializer_list<std::uint8_t> head,
                          std::span<const std::uint8_t> data,
                          std::initializer_list<std::uint8_t> tail = {}) {
  iwscan::net::Bytes out(head);
  out.insert(out.end(), data.begin(), data.end());
  out.insert(out.end(), tail);
  return out;
}

void fuzz_one(std::span<const std::uint8_t> data) {
  namespace net = iwscan::net;
  const auto result = walk(data);

  // The header decoder accepts exactly the options areas the walk accepts
  // and carries the MSS it reports.
  net::Bytes padded = concat({}, data.first(std::min<std::size_t>(data.size(), 40)));
  padded.resize((padded.size() + 3) / 4 * 4, 0);  // as wrap_in_segment pads it
  const auto decoded_mss = check_segment_decode(wrap_in_segment(data), data);
  require(decoded_mss == walk(padded),
          "header decode and option walk disagree on acceptance or the MSS");
  check_icmp_decode(data);

  // A NOP in front changes nothing; an MSS in front is the first MSS.
  require(walk(concat({1}, data)) == result, "a leading NOP changed the walk");
  const auto fronted = walk(concat({2, 4, 0xab, 0xcd}, data));
  require(fronted.has_value() == result.has_value(), "a leading MSS changed acceptance");
  if (!result) return;  // rejecting malformed input is a valid outcome
  require(*fronted == std::optional<std::uint16_t>(0xabcd), "the first MSS did not win");
  // END closes the area: what follows it is never read.
  require(walk(concat({}, data, {0, 2, 1, 0xff})) == result,
          "bytes after END changed the walk");

  // The MSS survives a header encode → decode round trip, as 4 option bytes.
  net::TcpHeader header;
  header.mss = *result;
  net::Bytes wire;
  net::WireWriter writer(wire);
  header.encode(writer);
  require(wire.size() == header.encoded_size() &&
              wire.size() == (result->has_value() ? 24u : 20u),
          "encoded size disagrees with encoded_size or the 4-byte MSS");
  net::WireReader reader(wire);
  net::TcpHeader again;
  again.mss = 1;  // must be overwritten
  std::size_t data_offset = 0;
  require(net::TcpHeader::decode_into(reader, data_offset, again),
          "re-decode of our own header failed");
  require(data_offset == wire.size(), "data offset disagrees with the header size");
  require(again.mss == header.mss, "decode(encode(header)).mss != mss");
}

std::vector<Input> fuzz_corpus() {
  // Option areas as a stack sends them, NOP-padded to 32 bits, plus one
  // hand-built pathological area: END mid-list, zero-length option after.
  return {
      {2, 4, 0x05, 0xb4, 3, 3, 7, 4, 2, 1, 1, 1},  // MSS 1460, WS 7, SACK-ok
      {2, 4, 0x02, 0x18},                          // MSS 536
      {3, 3, 14, 2, 4, 0x23, 0x28, 1},             // WS 14, MSS 9000
      {8, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 4, 2, 1, 1},  // kind 8, SACK-ok
      {},
      {2, 4, 5, 0xb4, 0, 3, 0, 3},
  };
}

}  // namespace

IWSCAN_FUZZ_DRIVER(fuzz_one, fuzz_corpus)
