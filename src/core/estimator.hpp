// The initial-window estimator: one TCP connection implementing Figure 1 of
// the paper.
//
//   1. SYN with a small announced MSS and a large receive window (so the
//      sender is limited only by its IW, never by flow control).
//   2. ACK + request in one segment, triggering a response.
//   3. Collect data *without acknowledging*, tracking sequence ranges to
//      detect reordering and loss; a segment whose range was already fully
//      received at the start of the stream is the sender's RTO
//      retransmission → the IW burst is complete.
//   4. Verification: acknowledge everything with a window of only
//      2·MSS. New data ⇒ the sender was IW-limited (Success). A FIN or
//      silence ⇒ the sender simply ran out of data (FewData): only a lower
//      bound on the IW is known.
//
// SACK is deliberately never offered, which disables tail-loss probes that
// would otherwise skew the estimate (§3.1).
#pragma once

#include <functional>
#include <memory>

#include "core/result.hpp"
#include "netsim/event_loop.hpp"
#include "scanner/scan_engine.hpp"

namespace iwscan::core {

/// The collect/verify state of one connection: received ranges, the
/// reassembly buffer and its index, the request, hostile-stack and pacing
/// evidence, and the observation being built. A connection holds one only
/// once its target has answered the SYN (defined in estimator.cpp).
class ConnEvidence;

/// Free list of ConnEvidence blocks. A released block keeps its vectors'
/// capacity (up to a cap), so the next connection that gets a SYN/ACK
/// reuses both the block and its buffers. One pool serves the connections
/// of one event loop; it must outlive every estimator drawing from it.
class EvidencePool {
 public:
  EvidencePool() = default;
  ~EvidencePool();
  EvidencePool(const EvidencePool&) = delete;
  EvidencePool& operator=(const EvidencePool&) = delete;

  [[nodiscard]] std::unique_ptr<ConnEvidence> acquire();
  void release(std::unique_ptr<ConnEvidence> evidence) noexcept;

 private:
  ConnEvidence* free_ = nullptr;  // singly linked through ConnEvidence
};

class IwEstimator {
 public:
  /// Whoever runs the connection. The estimator asks for the request only
  /// when the target answers, so a SYN nobody answers never builds one.
  class Owner {
   public:
    /// Where the connection's evidence block comes from and goes back to.
    [[nodiscard]] virtual EvidencePool& evidence_pool() = 0;
    /// The request payload, asked for at most once per connection: on the
    /// first segment from the target that is not a RST.
    [[nodiscard]] virtual net::Bytes request() = 0;
    /// Fires exactly once; it may tear the estimator down only indirectly
    /// (schedule, don't destroy — the estimator is still on the call stack).
    virtual void connection_done(const ConnObservation& observation) = 0;

   protected:
    ~Owner() = default;
  };

  IwEstimator(scan::SessionServices& services, net::IPv4Address target,
              std::uint16_t target_port, std::uint16_t announced_mss, Owner& owner);
  ~IwEstimator();

  IwEstimator(const IwEstimator&) = delete;
  IwEstimator& operator=(const IwEstimator&) = delete;

  void start();
  void on_datagram(const net::Datagram& datagram);

  [[nodiscard]] bool finished() const noexcept { return phase_ == Phase::Done; }
  [[nodiscard]] std::uint16_t local_port() const noexcept { return local_port_; }

 private:
  enum class Phase : std::uint8_t { Idle, SynSent, Collect, Verify, Done };

  void on_syn_ack(const net::TcpSegment& segment);
  void on_collect_data(const net::TcpSegment& segment);
  void on_verify_data(const net::TcpSegment& segment);
  void note_payload(std::size_t payload_size);
  void enter_verify();
  void conclude(ConnOutcome outcome);
  void send_segment(std::uint32_t seq, std::uint32_t ack, std::uint8_t flags,
                    std::uint16_t window, std::span<const std::uint8_t> payload,
                    bool with_mss_option);
  void arm_timer(sim::SimTime delay, void (IwEstimator::*handler)());
  void on_syn_timeout();
  void on_collect_timeout();
  void on_verify_timeout();

  // The SYN phase holds only what follows; everything else is in
  // `evidence_`, drawn from the owner's pool when the target answers and
  // returned to it when the connection concludes.
  scan::SessionServices& services_;
  Owner& owner_;
  std::unique_ptr<ConnEvidence> evidence_;
  sim::EventId timer_ = sim::kNullEvent;
  net::IPv4Address target_;
  std::uint16_t target_port_;
  std::uint16_t announced_mss_;
  std::uint16_t local_port_ = 0;
  Phase phase_ = Phase::Idle;
  std::uint32_t isn_ = 0;  // our initial sequence number
};

/// The simplest Owner: a fixed request and a callback, for connections run
/// outside any prober (tests, the single-host example, micro benchmarks).
/// Must outlive every estimator it serves.
class FixedRequestOwner final : public IwEstimator::Owner {
 public:
  using DoneFn = std::function<void(const ConnObservation&)>;

  FixedRequestOwner(net::Bytes request, DoneFn done)
      : request_(std::move(request)), done_(std::move(done)) {}

  EvidencePool& evidence_pool() override { return pool_; }
  net::Bytes request() override { return request_; }
  void connection_done(const ConnObservation& observation) override {
    done_(observation);
  }

 private:
  EvidencePool pool_;
  net::Bytes request_;
  DoneFn done_;
};

}  // namespace iwscan::core
