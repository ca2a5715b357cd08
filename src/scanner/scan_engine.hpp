// ZMap-style scan engine extended with per-connection state.
//
// Stock ZMap is built around a single stateless packet exchange per target;
// the paper's key engineering contribution (§3.4) is a probe-module design
// that keeps lightweight per-connection state so full TCP conversations
// can ride on the same high-rate architecture. This engine reproduces that
// split: a paced target iterator (send side) plus a demultiplexer that
// routes replies to per-host sessions (receive side).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>

#include "netbase/packet.hpp"
#include "netsim/network.hpp"
#include "scanner/targets.hpp"
#include "util/annotations.hpp"
#include "util/rng.hpp"

namespace iwscan::scan {

class ScanEngine;

/// Services a probe session uses to interact with the world.
class SessionServices {
 public:
  virtual ~SessionServices() = default;
  virtual void send_packet(net::Bytes bytes) = 0;
  /// Pooled-buffer variant of send_packet. The default forwards to the
  /// owned-bytes overload so lightweight test/bench implementations need
  /// only the one method; ScanEngine overrides it to hand the buffer to
  /// the fabric without a copy.
  virtual void send_packet(net::PacketBuf packet) {
    send_packet(packet.take_bytes());
  }
  /// Recycled buffers for outgoing packets, or nullptr when the transport
  /// has no pool (sessions then fall back to owned-bytes encoding).
  [[nodiscard]] virtual net::BufferPool* packet_pool() { return nullptr; }

  /// Encode-and-send conveniences used by the probe modules' hot paths:
  /// route through the pooled buffer when one is available so steady-state
  /// probing does not allocate per packet.
  void send_packet(const net::TcpSegment& segment) {
    encode_and_send(net::encoded_size(segment),
                    [&](net::Bytes& out) { net::encode_into(segment, out); });
  }
  void send_packet(const net::IcmpDatagram& datagram) {
    encode_and_send(net::encoded_size(datagram),
                    [&](net::Bytes& out) { net::encode_into(datagram, out); });
  }

  [[nodiscard]] virtual sim::EventLoop& loop() = 0;
  [[nodiscard]] virtual net::IPv4Address scanner_address() const = 0;
  /// Fresh ephemeral source port for a connection to `target`. Allocation
  /// is deterministic per target (not globally sequential) so the packets
  /// of one conversation do not depend on which other targets are in
  /// flight; cross-target collisions are harmless — the engine demuxes
  /// replies by source address, not by port.
  [[nodiscard]] virtual std::uint16_t allocate_port(net::IPv4Address target) = 0;
  /// Deterministic per-session randomness, keyed by (scan seed, target) so
  /// a target's draw sequence is independent of launch interleaving.
  [[nodiscard]] virtual std::uint64_t session_seed(net::IPv4Address target) = 0;

 private:
  template <typename Encode>
  void encode_and_send(std::size_t wire_size, const Encode& encode) {
    if (net::BufferPool* pool = packet_pool()) {
      net::PacketBuf buf = pool->acquire(wire_size);
      encode(buf.bytes());
      send_packet(std::move(buf));
    } else {
      net::Bytes bytes;
      encode(bytes);
      send_packet(std::move(bytes));
    }
  }
};

/// Which per-session budget expired (see SessionBudget).
enum class BudgetKind { WallTime, RxBytes, RxPackets };

[[nodiscard]] constexpr std::string_view to_string(BudgetKind kind) noexcept {
  switch (kind) {
    case BudgetKind::WallTime: return "wall-time";
    case BudgetKind::RxBytes: return "rx-bytes";
    case BudgetKind::RxPackets: return "rx-packets";
  }
  return "?";
}

/// One in-flight target conversation. Created by a ProbeModule; must call
/// ScanEngine-provided `finish` (passed at creation) exactly once.
class ProbeSession {
 public:
  virtual ~ProbeSession() = default;
  /// Send the first probe packet(s).
  virtual void start() = 0;
  /// A datagram from this session's target arrived. Hot-path boundary: the
  /// engine's rx traversal stops at this hand-off into probe-module logic;
  /// sessions own their (budgeted, per-conversation) allocation behavior.
  /// The datagram is borrowed, like a net::PacketView: it is valid only for
  /// the duration of the call (the engine decodes every packet into the
  /// same reused Datagram). A session that keeps any of it must copy.
  IWSCAN_HOT_BOUNDARY virtual void on_datagram(const net::Datagram& datagram) = 0;
  /// The engine's per-session budget expired (graceful degradation against
  /// tarpits / slowloris / amplifiers). The session may emit a best-effort
  /// record and invoke its finish callback; if it does not, the engine
  /// force-finishes it right after this returns. No packets are delivered
  /// to the session afterwards.
  virtual void on_budget_exhausted(BudgetKind kind) { (void)kind; }
};

/// Factory + result sink for a scan type (SYN scan, ICMP MTU, IW probe…).
class ProbeModule {
 public:
  virtual ~ProbeModule() = default;
  /// `finish` must be invoked exactly once when the session completes; the
  /// engine then releases the session (possibly immediately — the session
  /// must not touch its own state afterwards).
  virtual std::unique_ptr<ProbeSession> create_session(
      SessionServices& services, net::IPv4Address target,
      std::function<void()> finish) = 0;
};

/// Hard per-session ceilings: no single hostile host (tarpit, slowloris,
/// redirect amplifier) may hold scanner state or bandwidth indefinitely.
/// Defaults sit far above any well-behaved probe sequence (worst case is
/// ~160 s of virtual time and a few hundred packets), so they only ever
/// fire on pathological peers. Zero disables the corresponding limit.
struct SessionBudget {
  sim::SimTime wall_time = sim::sec(240);          // SimTime::zero() = unlimited
  std::uint64_t rx_bytes = 4 * 1024 * 1024;
  std::uint64_t rx_packets = 4096;
};

struct EngineConfig {
  net::IPv4Address scanner_address{10, 0, 0, 1};
  double rate_pps = 150'000;      // session starts per second (paper: 150 kpps)
  std::size_t max_outstanding = 10'000;
  std::uint64_t seed = 1;
  SessionBudget budget;
};

struct EngineStats {
  std::uint64_t targets_started = 0;
  std::uint64_t targets_finished = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t stray_packets = 0;  // no matching session
  // Sessions killed by each SessionBudget limit (graceful degradation).
  std::uint64_t sessions_killed_wall = 0;
  std::uint64_t sessions_killed_bytes = 0;
  std::uint64_t sessions_killed_packets = 0;
  sim::SimTime started_at{};
  sim::SimTime finished_at{};

  /// Merge another engine's stats (used by exec:: to aggregate shard
  /// workers): counters sum; the time window becomes the envelope — the
  /// earliest start and the latest finish across both.
  EngineStats& operator+=(const EngineStats& other) noexcept {
    targets_started += other.targets_started;
    targets_finished += other.targets_finished;
    packets_sent += other.packets_sent;
    packets_received += other.packets_received;
    stray_packets += other.stray_packets;
    sessions_killed_wall += other.sessions_killed_wall;
    sessions_killed_bytes += other.sessions_killed_bytes;
    sessions_killed_packets += other.sessions_killed_packets;
    started_at = std::min(started_at, other.started_at);
    finished_at = std::max(finished_at, other.finished_at);
    return *this;
  }
};

class ScanEngine final : public sim::Endpoint, public SessionServices {
 public:
  /// Pull targets from `source`: a GeneratorTargetSource for a whole
  /// space, or the two-phase executor's list of the sweep's responsive
  /// set. `source` must outlive the engine.
  ScanEngine(sim::Network& network, EngineConfig config, TargetSource& source,
             ProbeModule& module);
  ~ScanEngine() override;

  ScanEngine(const ScanEngine&) = delete;
  ScanEngine& operator=(const ScanEngine&) = delete;

  /// Attach to the network and begin pacing. done() holds once every
  /// target was launched and every session finished.
  void start();

  /// Invoked for every launched target with its global permutation-cycle
  /// index (TargetGenerator::last_cycle_index) — the hook a parallel
  /// executor uses to tag records for deterministic merge ordering.
  using LaunchObserver = std::function<void(net::IPv4Address, std::uint64_t)>;
  void set_launch_observer(LaunchObserver observer) {
    launch_observer_ = std::move(observer);
  }

  [[nodiscard]] bool done() const noexcept {
    return targets_exhausted_ && sessions_.empty();
  }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  /// The global permutation-cycle index `target`'s live session was
  /// launched with, or 0 when no session for it is live. A record sink
  /// reads it from inside the session's emit: a session emits its record
  /// before it finishes, so the entry is still there.
  [[nodiscard]] std::uint64_t session_cycle(net::IPv4Address target) const {
    const auto it = sessions_.find(target);
    return it == sessions_.end() ? 0 : it->second.cycle;
  }
  /// Sessions currently holding engine state — the leak-check hook for
  /// tests: must be 0 once done() holds.
  [[nodiscard]] std::size_t live_sessions() const noexcept { return sessions_.size(); }

  // sim::Endpoint
  IWSCAN_HOT void handle_packet(net::PacketView bytes) override;

  // SessionServices
  using SessionServices::send_packet;  // keep the encode conveniences visible
  void send_packet(net::Bytes bytes) override;
  void send_packet(net::PacketBuf packet) override;
  [[nodiscard]] net::BufferPool* packet_pool() override {
    return &network_.pool();
  }
  [[nodiscard]] sim::EventLoop& loop() override { return network_.loop(); }
  [[nodiscard]] net::IPv4Address scanner_address() const override {
    return config_.scanner_address;
  }
  [[nodiscard]] std::uint16_t allocate_port(net::IPv4Address target) override;
  [[nodiscard]] std::uint64_t session_seed(net::IPv4Address target) override;

 private:
  // Per-target draw state: the draws are a pure function of (scan seed,
  // target) and a per-target count, so the sequence a session observes is
  // identical no matter how many other sessions interleave with it — the
  // property that makes sharded scans byte-identical to shards=1. Only the
  // counts are stored; the generator is rebuilt from the key per draw.
  struct TargetDraws {
    std::uint32_t seeds = 0;  // session_seed draws so far
    std::uint32_t ports = 0;  // allocate_port draws so far
  };

  // One live conversation: its launch cycle, its draw counts and its
  // budget accounting. The wall-time deadline is armed at launch;
  // byte/packet counters are checked in handle_packet before delivery.
  // Erased when the session finishes.
  struct SessionState {
    std::unique_ptr<ProbeSession> session;
    sim::EventId deadline = sim::kNullEvent;
    std::uint64_t rx_bytes = 0;
    std::uint64_t rx_packets = 0;
    std::uint64_t cycle = 0;
    TargetDraws draws;
  };

  [[nodiscard]] TargetDraws& target_draws(net::IPv4Address target);
  [[nodiscard]] std::uint64_t target_key(net::IPv4Address target) const noexcept {
    return util::mix64(config_.seed, target.value());
  }

  // The pacer's event handler: launches one target per interval. A
  // hot-path boundary because it runs from its own event, once per launch:
  // finish_session, which a budget kill reaches from handle_packet, only
  // schedules it when it frees a slot in a full window.
  IWSCAN_HOT_BOUNDARY void pace();
  void schedule_pace();
  void launch_next_target();
  void maybe_complete();
  void finish_session(net::IPv4Address target);
  void abort_session(net::IPv4Address target, BudgetKind kind);
  void arm_deadline(SessionState& state, net::IPv4Address target);

  sim::Network& network_;
  EngineConfig config_;
  TargetSource& source_;
  ProbeModule& module_;

  std::unordered_map<net::IPv4Address, SessionState> sessions_;
  std::vector<std::unique_ptr<ProbeSession>> graveyard_;
  sim::EventId reap_event_ = sim::kNullEvent;
  sim::EventId pace_event_ = sim::kNullEvent;
  // The pacer found the outstanding window full and stopped; the next
  // finish_session restarts it.
  bool window_full_ = false;
  bool targets_exhausted_ = false;
  LaunchObserver launch_observer_;
  EngineStats stats_;
};

}  // namespace iwscan::scan
