#include "scanner/scan_engine.hpp"

#include "util/check.hpp"

namespace iwscan::scan {

ScanEngine::ScanEngine(sim::Network& network, EngineConfig config,
                       TargetSource& source, ProbeModule& module)
    : network_(network),
      config_(config),
      source_(source),
      module_(module) {
  // The session table never exceeds the outstanding window, and the fabric
  // instantiates at most one endpoint per in-flight target plus whatever
  // is already attached — reserve both up front so the steady-state scan
  // loop never rehashes (ScanOptions::max_outstanding flows in via
  // EngineConfig; the allowlist bounds it for small worlds).
  const std::size_t hint = static_cast<std::size_t>(
      std::min<std::uint64_t>(config_.max_outstanding, source_.size_hint()));
  sessions_.reserve(hint);
  network_.reserve_endpoints(hint);
}

ScanEngine::~ScanEngine() {
  network_.loop().cancel(pace_event_);
  network_.loop().cancel(reap_event_);
  for (auto& [target, state] : sessions_) {
    network_.loop().cancel(state.deadline);
  }
  if (network_.attached(config_.scanner_address)) {
    network_.detach(config_.scanner_address);
  }
}

void ScanEngine::start() {
  stats_.started_at = network_.loop().now();
  network_.attach(config_.scanner_address, this);
  pace();
}

void ScanEngine::pace() {
  pace_event_ = sim::kNullEvent;
  if (targets_exhausted_) return;

  if (sessions_.size() >= config_.max_outstanding) {
    // Backpressure: per-connection state is bounded (the lightweight-state
    // design of §3.4). Stay idle until finish_session frees a slot.
    window_full_ = true;
    return;
  }

  launch_next_target();
  if (!targets_exhausted_) schedule_pace();
}

void ScanEngine::schedule_pace() {
  const auto interval = sim::SimTime{
      static_cast<std::int64_t>(1e9 / (config_.rate_pps > 0 ? config_.rate_pps : 1.0))};
  pace_event_ = network_.loop().schedule(interval, [this] { pace(); });
}

void ScanEngine::launch_next_target() {
  net::IPv4Address target;
  std::uint64_t cycle = 0;
  if (!source_.next(target, cycle)) {
    targets_exhausted_ = true;
    maybe_complete();
    return;
  }
  ++stats_.targets_started;
  if (launch_observer_) launch_observer_(target, cycle);
  auto session = module_.create_session(*this, target,
                                        [this, t = target] { finish_session(t); });
  const auto [it, inserted] = sessions_.try_emplace(target);
  if (!inserted) {
    // Duplicate target (overlapping allowlist): replace the session and run
    // it anyway; the draws continue where the replaced session left them.
    network_.loop().cancel(it->second.deadline);
    const TargetDraws draws = it->second.draws;
    it->second = SessionState{};
    it->second.draws = draws;
  }
  it->second.session = std::move(session);
  it->second.cycle = cycle;
  arm_deadline(it->second, target);
  it->second.session->start();
}

void ScanEngine::maybe_complete() {
  if (!done()) return;
  stats_.finished_at = network_.loop().now();
}

void ScanEngine::arm_deadline(SessionState& state, net::IPv4Address target) {
  if (config_.budget.wall_time == sim::SimTime::zero()) return;
  state.deadline = network_.loop().schedule(
      config_.budget.wall_time,
      [this, target] { abort_session(target, BudgetKind::WallTime); });
}

void ScanEngine::abort_session(net::IPv4Address target, BudgetKind kind) {
  const auto it = sessions_.find(target);
  if (it == sessions_.end()) return;
  network_.loop().cancel(it->second.deadline);
  it->second.deadline = sim::kNullEvent;
  switch (kind) {
    case BudgetKind::WallTime: ++stats_.sessions_killed_wall; break;
    case BudgetKind::RxBytes: ++stats_.sessions_killed_bytes; break;
    case BudgetKind::RxPackets: ++stats_.sessions_killed_packets; break;
  }
  // Give the session a chance to emit a best-effort record; `it` is dead
  // after this call (the session usually finishes itself, mutating the
  // map). Force-finish if it declined, so budget kills can never leak.
  it->second.session->on_budget_exhausted(kind);
  if (sessions_.contains(target)) finish_session(target);
}

void ScanEngine::finish_session(net::IPv4Address target) {
  auto node = sessions_.extract(target);
  if (node.empty()) return;
  network_.loop().cancel(node.mapped().deadline);
  // The session is likely on the call stack; free it on the next tick.
  // iwlint: allow(hot-path) -- once-per-session teardown, not per-packet;
  // graveyard capacity is reused across reap ticks
  graveyard_.push_back(std::move(node.mapped().session));
  if (reap_event_ == sim::kNullEvent) {
    reap_event_ = network_.loop().schedule(sim::SimTime::zero(), [this] {
      reap_event_ = sim::kNullEvent;
      graveyard_.clear();
    });
  }
  ++stats_.targets_finished;
  if (window_full_) {
    // A slot is free again: the pacer resumes one interval from now.
    window_full_ = false;
    schedule_pace();
  }
  maybe_complete();
}

void ScanEngine::handle_packet(net::PacketView bytes) {
  ++stats_.packets_received;
  const auto datagram = net::decode_datagram(bytes);
  if (!datagram) {
    ++stats_.stray_packets;
    return;
  }
  const net::IPv4Address source = std::visit(
      [](const auto& d) { return d.ip.src; }, *datagram);
  const auto it = sessions_.find(source);
  if (it == sessions_.end()) {
    ++stats_.stray_packets;
    return;
  }
  SessionState& state = it->second;
  state.rx_packets += 1;
  state.rx_bytes += bytes.size();
  if (config_.budget.rx_packets != 0 && state.rx_packets > config_.budget.rx_packets) {
    abort_session(source, BudgetKind::RxPackets);
    return;
  }
  if (config_.budget.rx_bytes != 0 && state.rx_bytes > config_.budget.rx_bytes) {
    abort_session(source, BudgetKind::RxBytes);
    return;
  }
  state.session->on_datagram(*datagram);
}

void ScanEngine::send_packet(net::Bytes bytes) {
  ++stats_.packets_sent;
  network_.send(std::move(bytes));
}

void ScanEngine::send_packet(net::PacketBuf packet) {
  ++stats_.packets_sent;
  network_.send(std::move(packet));
}

ScanEngine::TargetDraws& ScanEngine::target_draws(net::IPv4Address target) {
  const auto it = sessions_.find(target);
  IWSCAN_ASSERT(it != sessions_.end(), "draws are drawn only by a live session");
  return it->second.draws;
}

std::uint16_t ScanEngine::allocate_port(net::IPv4Address target) {
  // Ephemeral range 32768..60999, walked from a per-target start offset.
  constexpr std::uint32_t kRange = 61000 - 32768;
  const auto start = static_cast<std::uint32_t>(target_key(target) >> 32);
  const std::uint32_t offset = start + target_draws(target).ports++;
  return static_cast<std::uint16_t>(32768 + offset % kRange);
}

std::uint64_t ScanEngine::session_seed(net::IPv4Address target) {
  // The n-th output of the target's generator: a session draws a handful
  // of seeds (one per connection), so replaying the sequence costs less
  // than keeping a generator's state in every session entry.
  const std::uint32_t n = target_draws(target).seeds++;
  util::Rng rng(target_key(target));
  for (std::uint32_t i = 0; i < n; ++i) (void)rng();
  return rng();
}

}  // namespace iwscan::scan
