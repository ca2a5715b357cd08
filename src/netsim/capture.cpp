#include "netsim/capture.hpp"

#include <cstdio>

#include "netsim/network.hpp"

namespace iwscan::sim {
namespace {

void put_u32le(net::Bytes& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 24));
}

void put_u16le(net::Bytes& out, std::uint16_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
}

}  // namespace

void PacketCapture::record(SimTime timestamp, net::PacketView bytes) {
  entries_.push_back(Entry{timestamp, net::Bytes(bytes.begin(), bytes.end())});
}

void PacketCapture::attach(Network& network) {
  network.set_tap([this, &network](net::PacketView bytes) {
    record(network.loop().now(), bytes);
  });
}

std::string format_packet(net::PacketView bytes) {
  const auto datagram = net::decode_datagram(bytes);
  if (!datagram) return "[malformed datagram, " + std::to_string(bytes.size()) + " B]";

  char buf[256];
  if (const auto* segment = std::get_if<net::TcpSegment>(&*datagram)) {
    std::string flags;
    if (segment->tcp.has(net::kSyn)) flags += 'S';
    if (segment->tcp.has(net::kFin)) flags += 'F';
    if (segment->tcp.has(net::kRst)) flags += 'R';
    if (segment->tcp.has(net::kPsh)) flags += 'P';
    if (segment->tcp.has(net::kAck)) flags += '.';
    if (flags.empty()) flags = "none";

    std::string options;
    if (segment->tcp.mss) options = ", mss " + std::to_string(*segment->tcp.mss);
    std::snprintf(buf, sizeof(buf), "IP %s.%u > %s.%u: Flags [%s], seq %u, ack %u, win %u%s, length %zu",
                  segment->ip.src.to_string().c_str(), segment->tcp.src_port,
                  segment->ip.dst.to_string().c_str(), segment->tcp.dst_port,
                  flags.c_str(), segment->tcp.seq, segment->tcp.ack,
                  segment->tcp.window, options.c_str(), segment->payload.size());
    return buf;
  }

  const auto& icmp = std::get<net::IcmpDatagram>(*datagram);
  const char* kind = "icmp";
  switch (icmp.icmp.type) {
    case net::IcmpType::Echo: kind = "echo request"; break;
    case net::IcmpType::EchoReply: kind = "echo reply"; break;
    case net::IcmpType::DestinationUnreachable:
      kind = icmp.icmp.code == net::kIcmpFragNeeded ? "unreachable - need to frag"
                                                    : "unreachable";
      break;
  }
  std::snprintf(buf, sizeof(buf), "IP %s > %s: ICMP %s, length %zu",
                icmp.ip.src.to_string().c_str(), icmp.ip.dst.to_string().c_str(),
                kind, icmp.icmp.payload.size() + 8);
  return buf;
}

std::string PacketCapture::text() const {
  std::string out;
  for (const auto& entry : entries_) {
    char stamp[32];
    std::snprintf(stamp, sizeof(stamp), "%12.6f  ",
                  std::chrono::duration<double>(entry.timestamp).count());
    out += stamp;
    out += format_packet(entry.bytes);
    out += '\n';
  }
  return out;
}

net::Bytes PacketCapture::pcap() const {
  net::Bytes out;
  out.reserve(24 + entries_.size() * 16 + 4096);
  // Global header.
  put_u32le(out, 0xa1b2c3d4);  // magic (microsecond timestamps)
  put_u16le(out, 2);           // version major
  put_u16le(out, 4);           // version minor
  put_u32le(out, 0);           // thiszone
  put_u32le(out, 0);           // sigfigs
  put_u32le(out, 65535);       // snaplen
  put_u32le(out, 101);         // LINKTYPE_RAW: packets begin with the IP header

  for (const auto& entry : entries_) {
    const auto micros =
        std::chrono::duration_cast<std::chrono::microseconds>(entry.timestamp);
    put_u32le(out, static_cast<std::uint32_t>(micros.count() / 1'000'000));
    put_u32le(out, static_cast<std::uint32_t>(micros.count() % 1'000'000));
    put_u32le(out, static_cast<std::uint32_t>(entry.bytes.size()));
    put_u32le(out, static_cast<std::uint32_t>(entry.bytes.size()));
    out.insert(out.end(), entry.bytes.begin(), entry.bytes.end());
  }
  return out;
}

}  // namespace iwscan::sim
