#include "scanner/stateless.hpp"

#include <span>
#include <utility>

#include "netbase/checksum.hpp"
#include "netbase/headers.hpp"
#include "netbase/packet.hpp"
#include "util/check.hpp"

namespace iwscan::scan {
namespace {

// Fixed offsets into a 20+20-byte headers-only frame (both templates are
// built without IP or TCP options).
constexpr std::size_t kIpChecksumAt = 10;
constexpr std::size_t kIpDstAt = 16;
constexpr std::size_t kTcpSeqAt = 24;
constexpr std::size_t kTcpAckAt = 28;
constexpr std::size_t kTcpChecksumAt = 36;

[[nodiscard]] std::uint16_t read_u16(const net::Bytes& bytes, std::size_t at) noexcept {
  return static_cast<std::uint16_t>((bytes[at] << 8) | bytes[at + 1]);
}

}  // namespace

StatelessSweep::StatelessSweep(sim::Network& network, SweepConfig config,
                               TargetGenerator targets, EventFn on_event)
    : network_(network),
      config_(config),
      targets_(std::move(targets)),
      on_event_(std::move(on_event)),
      codec_(config_.seed),
      domain_(targets_.address_space_size()) {}

StatelessSweep::~StatelessSweep() {
  network_.loop().cancel(pace_event_);
  network_.loop().cancel(cooldown_event_);
  if (network_.attached(config_.scanner_address)) {
    network_.detach(config_.scanner_address);
  }
}

void StatelessSweep::start() {
  IWSCAN_ASSERT(domain_ <= kMaxCookieIndex,
                "sweep domain exceeds the 24-bit cookie index space; "
                "split the scan into epochs");
  stats_.started_at = network_.loop().now();
  const auto words = static_cast<std::size_t>((domain_ + 63) / 64);
  seen_live_.assign(words, 0);
  build_templates();
  network_.attach(config_.scanner_address, this);
  pace();
}

void StatelessSweep::build_templates() {
  const auto build = [&](std::uint8_t flags, Template& out) {
    net::TcpSegment segment;
    segment.ip.src = config_.scanner_address;
    segment.ip.dst = net::IPv4Address{std::uint32_t{0}};  // patched per target
    segment.ip.ttl = 64;
    segment.ip.dont_fragment = true;
    segment.tcp.src_port = config_.source_port;
    segment.tcp.dst_port = config_.target_port;
    segment.tcp.seq = 0;  // patched per target
    segment.tcp.ack = 0;  // patched per target
    segment.tcp.flags = flags;
    segment.tcp.window = 65535;
    out.bytes = net::encode(segment);
    out.ip_checksum = read_u16(out.bytes, kIpChecksumAt);
    out.tcp_checksum = read_u16(out.bytes, kTcpChecksumAt);
  };
  build(net::kSyn, syn_template_);
  build(net::kRst, rst_template_);
}

void StatelessSweep::pace() {
  pace_event_ = sim::kNullEvent;
  const auto target = targets_.next();
  if (!target) {
    // Every target probed: keep answering replies for the cooldown.
    cooldown_event_ =
        network_.loop().schedule(config_.cooldown, [this] { finish(); });
    return;
  }
  CookieIdentity identity;
  identity.index = targets_.last_cycle_index();
  identity.probe = 0;
  identity.epoch = config_.epoch;
  send_patched(syn_template_, *target, codec_.pack(identity, *target), 0);
  ++stats_.targets_probed;
  const auto interval = sim::SimTime{static_cast<std::int64_t>(
      1e9 / (config_.rate_pps > 0 ? config_.rate_pps : 1.0))};
  pace_event_ = network_.loop().schedule(interval, [this] { pace(); });
}

void StatelessSweep::finish() {
  cooldown_event_ = sim::kNullEvent;
  finished_ = true;
  stats_.finished_at = network_.loop().now();
  if (network_.attached(config_.scanner_address)) {
    network_.detach(config_.scanner_address);
  }
}

void StatelessSweep::send_patched(const Template& tmpl, net::IPv4Address dst,
                                  std::uint32_t seq, std::uint32_t ack) {
  net::PacketBuf buf = network_.pool().acquire(tmpl.bytes.size());
  net::Bytes& out = buf.bytes();
  out.clear();
  net::WireWriter writer(out);
  writer.raw(std::span<const std::uint8_t>(tmpl.bytes));
  // Patch destination / seq / ack over the template's zeros and update
  // both checksums incrementally (RFC 1624) — the template baselines were
  // computed with those fields zero, so every old-word term is 0. The
  // destination address feeds the TCP pseudo-header as well as the IP
  // header, hence the double update.
  const std::uint32_t dst_value = dst.value();
  writer.patch_u16(kIpDstAt, static_cast<std::uint16_t>(dst_value >> 16));
  writer.patch_u16(kIpDstAt + 2, static_cast<std::uint16_t>(dst_value));
  writer.patch_u16(kIpChecksumAt,
                   net::checksum_update32(tmpl.ip_checksum, 0, dst_value));
  std::uint16_t tcp_checksum =
      net::checksum_update32(tmpl.tcp_checksum, 0, dst_value);
  tcp_checksum = net::checksum_update32(tcp_checksum, 0, seq);
  tcp_checksum = net::checksum_update32(tcp_checksum, 0, ack);
  writer.patch_u16(kTcpSeqAt, static_cast<std::uint16_t>(seq >> 16));
  writer.patch_u16(kTcpSeqAt + 2, static_cast<std::uint16_t>(seq));
  writer.patch_u16(kTcpAckAt, static_cast<std::uint16_t>(ack >> 16));
  writer.patch_u16(kTcpAckAt + 2, static_cast<std::uint16_t>(ack));
  writer.patch_u16(kTcpChecksumAt, tcp_checksum);
  ++stats_.packets_sent;
  network_.send(std::move(buf));
}

bool StatelessSweep::recover(std::uint32_t cookie, net::IPv4Address source,
                             std::uint64_t& cycle) {
  CookieIdentity identity;
  if (!codec_.unpack(cookie, source, identity) ||
      identity.epoch != config_.epoch || identity.probe != 0 ||
      identity.index >= domain_) {
    ++stats_.cookie_rejected;
    return false;
  }
  cycle = identity.index;
  return true;
}

bool StatelessSweep::first_event(std::uint64_t cycle) {
  // cycle < domain_ was established by recover(), so the word index is in
  // range by construction.
  const auto word = static_cast<std::size_t>(cycle >> 6);
  const std::uint64_t bit = std::uint64_t{1} << (cycle & 63);
  if ((seen_live_[word] & bit) != 0) {
    ++stats_.duplicate_events;
    return false;
  }
  seen_live_[word] |= bit;
  return true;
}

void StatelessSweep::emit(const SweepEvent& event) {
  if (on_event_) on_event_(event);
}

void StatelessSweep::handle_packet(net::PacketView bytes) {
  ++stats_.packets_received;
  // Hand-rolled header walk instead of decode_datagram(), which drops a
  // segment whose options area net::read_tcp_options rejects: here such a
  // SYN/ACK is still Responsive. The walk reads a handful of fixed-offset
  // fields, all bounds-checked by the reader. The fabric routed the packet
  // here, so the destination matched.
  net::WireReader reader(bytes);
  if (reader.u8() != 0x45) return;  // IPv4, 20-byte header only
  reader.skip(8);                   // tos, total_length, id, flags/fragment, ttl
  const std::uint8_t protocol = reader.u8();
  reader.skip(2);  // IP header checksum
  const std::uint32_t source_value = reader.u32();
  reader.skip(4);  // destination address
  const std::uint16_t src_port = reader.u16();
  const std::uint16_t dst_port = reader.u16();
  reader.skip(4);  // seq
  const std::uint32_t ack = reader.u32();
  const std::uint8_t data_offset_raw = reader.u8();
  const std::uint8_t flags = reader.u8();
  reader.skip(6);  // window, TCP checksum, urgent pointer
  if (!reader.ok() || protocol != net::kProtocolTcp) return;
  if (src_port != config_.target_port || dst_port != config_.source_port) return;
  const std::size_t header_bytes =
      static_cast<std::size_t>(data_offset_raw >> 4) * 4;
  if (header_bytes < 20 || header_bytes - 20 > reader.remaining()) return;
  // Both replies the sweep counts answer its SYN, so ack = cookie+1. RSTs
  // without ACK, pure ACKs and data segments answer no sweep SYN.
  const bool syn_ack = (flags & (net::kSyn | net::kAck)) == (net::kSyn | net::kAck);
  const bool rst_ack = (flags & (net::kRst | net::kAck)) == (net::kRst | net::kAck);
  if (!syn_ack && !rst_ack) return;
  const net::IPv4Address source{source_value};
  std::uint64_t cycle = 0;
  if (!recover(ack - 1, source, cycle)) return;
  if (!rst_ack) {
    // Reset the half-open connection at the host's ack point, as ZMap
    // does. Every cookie-valid SYN-ACK is answered — a retransmitted one
    // means the previous RST was lost — but reported only once per cycle.
    send_patched(rst_template_, source, ack, 0);
  }
  if (!first_event(cycle)) return;
  SweepEvent event;
  event.cycle = cycle;
  event.source = source;
  if (rst_ack) {
    ++stats_.closed;
    event.kind = SweepEventKind::Closed;
  } else {
    ++stats_.responsive;
    event.kind = SweepEventKind::Responsive;
  }
  emit(event);
}

}  // namespace iwscan::scan
