// Structured fuzz driver for the TCP options codec (netbase/tcp_options).
//
// Property under test: decode_tcp_options never crashes or reads out of
// bounds on arbitrary bytes, and everything it accepts survives an exact
// encode→decode round trip (NOP padding aside, which decode consumes).
// Each input also rides a whole TCP segment, as its options area and its
// payload, decoded both fresh and into one Datagram reused across inputs:
// the two must agree, so no state survives from the input before.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
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

/// Decode `wire` fresh and into the reused datagram; both must agree.
void check_reused_decode(const iwscan::net::Bytes& wire) {
  namespace net = iwscan::net;
  static net::Datagram reused;  // carries the previous input's decode
  const auto fresh = net::decode_datagram(wire);
  const bool ok = net::decode_datagram_into(wire, reused);
  require(ok == fresh.has_value(), "reused and fresh decode disagree on acceptance");
  if (!ok) return;
  const auto& a = std::get<net::TcpSegment>(*fresh);
  const auto* b = std::get_if<net::TcpSegment>(&reused);
  require(b != nullptr, "reused decode holds the wrong datagram kind");
  require(a.tcp.options == b->tcp.options, "reused decode kept stale options");
  require(a.payload == b->payload, "reused decode kept stale payload bytes");
  require(net::encode(a) == net::encode(*b), "reused decode differs from a fresh one");
}

void fuzz_one(std::span<const std::uint8_t> data) {
  namespace net = iwscan::net;
  check_reused_decode(wrap_in_segment(data));
  const auto decoded = net::decode_tcp_options(data);
  if (!decoded) return;  // rejecting malformed input is a valid outcome

  // Accessors must tolerate any accepted option list.
  (void)net::find_mss(*decoded);
  (void)net::find_window_scale(*decoded);
  (void)net::has_sack_permitted(*decoded);

  net::Bytes wire;
  net::WireWriter writer(wire);
  net::encode_tcp_options(*decoded, writer);
  require(wire.size() == net::encoded_tcp_options_size(*decoded),
          "encoded size disagrees with encoded_tcp_options_size");
  require(wire.size() % 4 == 0, "encoded options not padded to 32-bit boundary");

  const auto again = net::decode_tcp_options(wire);
  require(again.has_value(), "re-decode of our own encoding failed");
  require(*again == *decoded, "decode(encode(options)) != options");
}

std::vector<Input> fuzz_corpus() {
  namespace net = iwscan::net;
  std::vector<Input> corpus;
  const std::vector<std::vector<net::TcpOption>> seeds = {
      {net::MssOption{1460}, net::WindowScaleOption{7}, net::SackPermittedOption{}},
      {net::MssOption{536}},
      {net::WindowScaleOption{14}, net::MssOption{9000}},
      {net::UnknownOption{8, net::Bytes{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
       net::SackPermittedOption{}},
      {},
  };
  for (const auto& options : seeds) {
    net::Bytes wire;
    net::WireWriter writer(wire);
    net::encode_tcp_options(options, writer);
    corpus.push_back(wire);
  }
  // A hand-built pathological seed: END mid-list, zero-length option after.
  corpus.push_back(Input{2, 4, 5, 0xb4, 0, 3, 0, 3});
  return corpus;
}

}  // namespace

IWSCAN_FUZZ_DRIVER(fuzz_one, fuzz_corpus)
