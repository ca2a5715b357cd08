// Stateless sweep tier (phase 1 of the two-phase scan): a ZMap-style SYN
// scan that reports liveness only.
//
// The probe's identity rides in the SYN's sequence number as a keyed cookie
// (syncookie.hpp); every reply echoes it back in the ack field, and the
// one reply the sweep sends is a precomputed, checksum-patched packet
// template — no session object, no per-host timer, no allocation on the
// hot path.
//
// Protocol walk for one target:
//
//   sweep → host   SYN  seq=cookie                (patched SYN template)
//   host  → sweep  SYN-ACK  seq=S, ack=cookie+1   → Responsive event
//   sweep → host   RST  seq=cookie+1              (patched RST template)
//
// A closed port answers the SYN with RST|ACK ack=cookie+1 → Closed event.
// Every cookie-valid SYN-ACK gets a RST, so a host that retransmits its
// SYN-ACK (our RST was lost) is reset again. Everything else (pure ACKs,
// data, RSTs without ACK, forged or stale acks) is dropped after cookie
// validation fails or the event was already emitted — duplicates are
// suppressed by one per-cycle bitmap, the sweep's only per-target storage
// (1 bit per address).
//
// Determinism: a target's whole exchange is keyed by (seed, cycle index,
// addresses) and per-flow fabric draws, never by sweep interleaving, so
// sharded sweeps merge byte-identically (the same contract as ScanEngine;
// see exec/executor.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "netbase/packet_buf.hpp"
#include "netsim/network.hpp"
#include "scanner/syncookie.hpp"
#include "scanner/targets.hpp"
#include "util/annotations.hpp"

namespace iwscan::scan {

enum class SweepEventKind : std::uint8_t {
  Responsive,  // SYN-ACK seen: host up, port open
  Closed,      // RST|ACK answered the SYN: host up, port closed
};

/// One deduplicated observation from the sweep. `cycle` is the global
/// permutation-cycle index recovered from the cookie — the merge key the
/// two-phase executor shares with the stateful engine.
struct SweepEvent {
  SweepEventKind kind = SweepEventKind::Responsive;
  std::uint64_t cycle = 0;
  net::IPv4Address source;
};

struct SweepConfig {
  /// Distinct from the stateful engine's address on purpose: the two tiers
  /// then ride disjoint per-flow impairment streams, which is what keeps
  /// phase-2 records byte-identical to a stateful-everywhere scan.
  static constexpr net::IPv4Address scanner_address{192, 0, 2, 2};
  /// Fixed, outside the ephemeral range: every reply lands on one flow, so
  /// the cookie — not a port table — identifies the target.
  static constexpr std::uint16_t source_port = 61337;
  /// Cookie epoch: a sweep makes one whole-space pass, so it never rotates.
  static constexpr std::uint8_t epoch = 0;
  /// Answer window after the last SYN: must exceed the host stack's
  /// SYN-ACK retransmission span (~31 s at the simulated defaults).
  static constexpr sim::SimTime cooldown = sim::sec(40);

  std::uint16_t target_port = 80;
  double rate_pps = 600'000;
  std::uint64_t seed = 7;
};

struct SweepStats {
  std::uint64_t targets_probed = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t responsive = 0;
  std::uint64_t closed = 0;
  std::uint64_t cookie_rejected = 0;   // forged/stale/corrupted acks
  std::uint64_t duplicate_events = 0;  // suppressed re-deliveries
  sim::SimTime started_at{};
  sim::SimTime finished_at{};

  SweepStats& operator+=(const SweepStats& other) noexcept {
    targets_probed += other.targets_probed;
    packets_sent += other.packets_sent;
    packets_received += other.packets_received;
    responsive += other.responsive;
    closed += other.closed;
    cookie_rejected += other.cookie_rejected;
    duplicate_events += other.duplicate_events;
    started_at = std::min(started_at, other.started_at);
    finished_at = std::max(finished_at, other.finished_at);
    return *this;
  }
};

class StatelessSweep final : public sim::Endpoint {
 public:
  using EventFn = std::function<void(const SweepEvent&)>;

  StatelessSweep(sim::Network& network, SweepConfig config, TargetGenerator targets,
                 EventFn on_event);
  ~StatelessSweep() override;

  StatelessSweep(const StatelessSweep&) = delete;
  StatelessSweep& operator=(const StatelessSweep&) = delete;

  /// Attach and begin pacing SYNs. done() holds once every target was
  /// probed and the post-sweep cooldown elapsed.
  void start();

  [[nodiscard]] bool done() const noexcept { return finished_; }
  [[nodiscard]] const SweepStats& stats() const noexcept { return stats_; }
  /// The stateless tier's defining property, kept as an explicit pin for
  /// the adversarial battery: there is no session table to leak from.
  [[nodiscard]] std::size_t live_sessions() const noexcept { return 0; }

  // sim::Endpoint — the allocation-free fast path (iwlint hot root).
  IWSCAN_HOT void handle_packet(net::PacketView bytes) override;

 private:
  // A precomputed wire-ready packet plus the checksum baselines its
  // per-target patches start from (template built with dst/seq/ack = 0).
  struct Template {
    net::Bytes bytes;
    std::uint16_t ip_checksum = 0;
    std::uint16_t tcp_checksum = 0;
  };

  void build_templates();
  void pace();
  void finish();
  void send_patched(const Template& tmpl, net::IPv4Address dst, std::uint32_t seq,
                    std::uint32_t ack);
  [[nodiscard]] bool recover(std::uint32_t cookie, net::IPv4Address source,
                             std::uint64_t& cycle);
  [[nodiscard]] bool first_event(std::uint64_t cycle);
  /// Hand-off into collector logic (std::function, arbitrary user code):
  /// the hot-path traversal stops here, mirroring ProbeSession::on_datagram.
  IWSCAN_HOT_BOUNDARY void emit(const SweepEvent& event);

  sim::Network& network_;
  SweepConfig config_;
  TargetGenerator targets_;
  EventFn on_event_;
  SynCookieCodec codec_;

  Template syn_template_;  // seq patched
  Template rst_template_;  // seq patched

  std::uint64_t domain_ = 0;
  std::vector<std::uint64_t> seen_live_;  // Responsive|Closed emitted

  sim::EventId pace_event_ = sim::kNullEvent;
  sim::EventId cooldown_event_ = sim::kNullEvent;
  bool finished_ = false;
  SweepStats stats_;
};

}  // namespace iwscan::scan
