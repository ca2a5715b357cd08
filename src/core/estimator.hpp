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
#include <vector>

#include "core/result.hpp"
#include "netsim/event_loop.hpp"
#include "scanner/scan_engine.hpp"

namespace iwscan::core {

class IwEstimator {
 public:
  /// `done` fires exactly once; it may tear the estimator down only
  /// indirectly (schedule, don't destroy — the estimator is still on the
  /// call stack).
  using DoneFn = std::function<void(const ConnObservation&)>;

  IwEstimator(scan::SessionServices& services, net::IPv4Address target,
              std::uint16_t target_port, std::uint16_t announced_mss, net::Bytes request,
              DoneFn done);
  ~IwEstimator();

  IwEstimator(const IwEstimator&) = delete;
  IwEstimator& operator=(const IwEstimator&) = delete;

  void start();
  void on_datagram(const net::Datagram& datagram);

  [[nodiscard]] bool finished() const noexcept { return phase_ == Phase::Done; }
  [[nodiscard]] std::uint16_t local_port() const noexcept { return local_port_; }

 private:
  enum class Phase { Idle, SynSent, Collect, Verify, Done };

  void on_syn_ack(const net::TcpSegment& segment);
  void on_collect_data(const net::TcpSegment& segment);
  void on_verify_data(const net::TcpSegment& segment);
  void record_range(std::uint64_t start, std::uint64_t end,
                    std::span<const std::uint8_t> payload);
  void store_chunk(std::uint64_t start, std::span<const std::uint8_t> payload);
  void reassemble_prefix();
  [[nodiscard]] bool covered(std::uint64_t start, std::uint64_t end) const noexcept;
  [[nodiscard]] bool overlaps(std::uint64_t start, std::uint64_t end) const noexcept;
  void note_payload(std::size_t payload_size);
  [[nodiscard]] bool contiguous_from_zero(std::uint64_t upto) const noexcept;
  void enter_verify();
  void conclude(ConnOutcome outcome);
  void send_segment(std::uint32_t seq, std::uint32_t ack, std::uint8_t flags,
                    std::uint16_t window, std::span<const std::uint8_t> payload,
                    bool with_mss_option);
  void arm_timer(sim::SimTime delay, void (IwEstimator::*handler)());
  void on_syn_timeout();
  void on_collect_timeout();
  void on_verify_timeout();

  scan::SessionServices& services_;
  net::IPv4Address target_;
  std::uint16_t target_port_;
  std::uint16_t announced_mss_;
  net::Bytes request_;
  DoneFn done_;

  Phase phase_ = Phase::Idle;
  std::uint16_t local_port_ = 0;
  std::uint32_t isn_ = 0;       // our initial sequence number
  std::uint32_t irs_ = 0;       // server initial sequence number
  std::uint32_t data_base_ = 0; // irs_ + 1: sequence of the first data byte

  // Received sequence ranges relative to data_base_ ([start, end)),
  // coalesced and sorted by start. Almost always a single range.
  struct Range {
    std::uint64_t start;
    std::uint64_t end;
  };
  std::vector<Range> ranges_;
  // Payload kept for prefix reassembly: the bytes of every stored segment
  // in arrival order, and an index of them sorted by stream offset, at most
  // one per offset. In-order segments append to both.
  struct Chunk {
    std::uint64_t start;   // stream offset, relative to data_base_
    std::uint32_t offset;  // position in chunk_bytes_
    std::uint32_t size;
  };
  net::Bytes chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::uint64_t max_end_ = 0;

  // Hostile-stack evidence (§5 / DESIGN.md §11). `request_acked_`
  // distinguishes a tarpit (SYN/ACK, then deaf) from a host that accepted
  // the request but had nothing to say; the trickle counter separates a
  // slowloris byte-dripper from a sender whose retransmissions were lost.
  bool request_acked_ = false;
  std::uint32_t trickle_gaps_ = 0;
  sim::SimTime last_data_at_ = sim::SimTime::min();

  // Pacing evidence: arrival instants of the first and last fresh data
  // byte, and how many distinct instants delivered fresh data. Evaluated
  // against the RTO window when the retransmission closes the collect
  // phase (enter_verify).
  sim::SimTime first_data_at_ = sim::SimTime::min();
  std::uint32_t fresh_arrival_instants_ = 0;

  ConnObservation observation_;
  sim::EventId timer_ = sim::kNullEvent;
};

}  // namespace iwscan::core
