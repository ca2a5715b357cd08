// Packet capture: a tap on the simulated wire producing tcpdump-style text
// traces and standard pcap files (LINKTYPE_RAW) that open in Wireshark —
// the simulation analog of the packet traces the paper's validation
// manually inspects (§3.5).
#pragma once

#include <string>
#include <vector>

#include "netbase/packet.hpp"
#include "netbase/packet_buf.hpp"
#include "netsim/event_loop.hpp"

namespace iwscan::sim {

class Network;

class PacketCapture {
 public:
  struct Entry {
    SimTime timestamp;
    net::Bytes bytes;
  };

  /// Record one datagram (called by the Network tap or manually). The
  /// bytes are copied out of the borrowed view into the entry.
  void record(SimTime timestamp, net::PacketView bytes);

  /// Install this capture as the network's tap (replaces any previous tap).
  void attach(Network& network);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }
  void clear() noexcept { entries_.clear(); }

  /// tcpdump-style one-line-per-packet rendering.
  [[nodiscard]] std::string text() const;

  /// Standard pcap file bytes (magic 0xa1b2c3d4, linktype 101 = raw IPv4);
  /// loadable in Wireshark/tcpdump.
  [[nodiscard]] net::Bytes pcap() const;

 private:
  std::vector<Entry> entries_;
};

/// Render one datagram as a tcpdump-like line (no timestamp).
[[nodiscard]] std::string format_packet(net::PacketView bytes);

}  // namespace iwscan::sim
