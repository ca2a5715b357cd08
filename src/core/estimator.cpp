#include "core/estimator.hpp"

#include <algorithm>

#include "netbase/tcp_options.hpp"
#include "tcpstack/seq.hpp"

namespace iwscan::core {
namespace {

/// Handshake receive window: large, so the sender is limited only by its IW,
/// never by flow control (§3.1). No window scale is offered.
constexpr std::uint16_t kHandshakeWindow = 65535;
/// Verification window in announced segments: §3.1 acknowledges everything
/// with room for "only two segments".
constexpr std::uint16_t kVerifyWindowSegments = 2;
/// Phase deadlines: the SYN/ACK; the first flight through the sender's RTO
/// retransmission; data released by the verify ACK.
constexpr sim::SimTime kSynTimeout = sim::sec(3);
constexpr sim::SimTime kCollectTimeout = sim::sec(12);
constexpr sim::SimTime kVerifyTimeout = sim::sec(3);
/// In-order payload kept for application-layer analysis (HTTP status and
/// Location, TLS alert detection).
constexpr std::size_t kPrefixCap = 16 * 1024;
/// Segments the reassembly storage is first sized for: IW10, the window
/// most hosts use (§4), so a typical first flight stores without regrowth.
constexpr std::size_t kTypicalFlightSegments = 10;
/// Pacing evidence (ProbeAnomaly::PacedDelivery): the first flight counts
/// as paced — not a burst — when the span from first to last fresh data
/// byte covers at least this percentage of the first-data → retransmission
/// window, over at least kPacedMinArrivals distinct arrival instants. A
/// genuine burst spans only the path jitter (≪ the RTO window); a CDN
/// pacer spreads its flight over RTT multiples, far past this threshold.
constexpr std::int64_t kPacedWindowPercent = 8;
constexpr std::uint32_t kPacedMinArrivals = 3;

/// First range starting after `offset` (ranges are sorted by start).
template <typename Ranges>
auto first_range_after(Ranges& ranges, std::uint64_t offset) {
  return std::upper_bound(ranges.begin(), ranges.end(), offset,
                          [](std::uint64_t value, const auto& range) {
                            return value < range.start;
                          });
}

}  // namespace

IwEstimator::IwEstimator(scan::SessionServices& services, net::IPv4Address target,
                         std::uint16_t target_port, std::uint16_t announced_mss,
                         net::Bytes request, DoneFn done)
    : services_(services),
      target_(target),
      target_port_(target_port),
      announced_mss_(announced_mss),
      request_(std::move(request)),
      done_(std::move(done)) {}

IwEstimator::~IwEstimator() { services_.loop().cancel(timer_); }

void IwEstimator::start() {
  local_port_ = services_.allocate_port(target_);
  isn_ = static_cast<std::uint32_t>(services_.session_seed(target_));
  phase_ = Phase::SynSent;
  // SYN announcing the small MSS and a large window; SACK deliberately
  // absent (§3.1 — suppresses tail loss probes).
  send_segment(isn_, 0, net::kSyn, kHandshakeWindow, {}, /*with_mss_option=*/true);
  arm_timer(kSynTimeout, &IwEstimator::on_syn_timeout);
}

void IwEstimator::on_datagram(const net::Datagram& datagram) {
  if (phase_ == Phase::Done || phase_ == Phase::Idle) return;
  const auto* segment = std::get_if<net::TcpSegment>(&datagram);
  if (segment == nullptr) return;
  if (segment->tcp.dst_port != local_port_ || segment->tcp.src_port != target_port_) {
    return;  // belongs to another connection of this host session
  }

  if (segment->tcp.has(net::kRst)) {
    if (phase_ != Phase::SynSent && max_end_ > 0) {
      // The response had started flowing; a reset now is an injected abort
      // (middlebox or hostile daemon), not a closed port.
      observation_.anomaly = ProbeAnomaly::MidStreamRst;
    }
    conclude(phase_ == Phase::SynSent ? ConnOutcome::Refused : ConnOutcome::Error);
    return;
  }

  if (segment->tcp.has(net::kAck)) {
    const std::uint64_t acked = tcp::seq_diff(segment->tcp.ack, isn_ + 1);
    if (!request_.empty() && acked <= (std::uint64_t{1} << 31) &&
        acked >= request_.size()) {
      request_acked_ = true;  // the peer consumed our request
    }
    if (segment->tcp.window == 0) observation_.zero_window_seen = true;
  }

  switch (phase_) {
    case Phase::SynSent:
      if (segment->tcp.has(net::kSyn) && segment->tcp.has(net::kAck) &&
          segment->tcp.ack == isn_ + 1) {
        on_syn_ack(*segment);
      }
      break;
    case Phase::Collect:
      if (segment->tcp.has(net::kSyn) && segment->tcp.has(net::kAck) &&
          segment->tcp.seq == irs_) {
        // Retransmitted SYN/ACK: our handshake-ACK+request was lost on the
        // way out. Resend it, or the probe would idle into a false NoData.
        send_segment(isn_ + 1, data_base_, net::kAck | net::kPsh, kHandshakeWindow,
                     request_, /*with_mss_option=*/false);
        break;
      }
      on_collect_data(*segment);
      break;
    case Phase::Verify:
      on_verify_data(*segment);
      break;
    default:
      break;
  }
}

void IwEstimator::on_syn_ack(const net::TcpSegment& segment) {
  irs_ = segment.tcp.seq;
  data_base_ = irs_ + 1;
  phase_ = Phase::Collect;
  // Handshake ACK and the request ride in one segment (Fig. 1).
  send_segment(isn_ + 1, data_base_, net::kAck | net::kPsh, kHandshakeWindow, request_,
               /*with_mss_option=*/false);
  arm_timer(kCollectTimeout, &IwEstimator::on_collect_timeout);
}

void IwEstimator::on_collect_data(const net::TcpSegment& segment) {
  const bool has_fin = segment.tcp.has(net::kFin);
  if (segment.payload.empty() && !has_fin) return;  // bare ACK of our request

  if (!segment.payload.empty()) {
    note_payload(segment.payload.size());
    const std::uint64_t start = tcp::seq_diff(segment.tcp.seq, data_base_);
    // Sequences "before" the first data byte would wrap to huge offsets;
    // treat anything implausibly far out as noise.
    if (start > (std::uint64_t{1} << 31)) return;
    const std::uint64_t end = start + segment.payload.size();

    if (covered(start, end)) {
      if (start == 0) {
        // The sender's RTO retransmission of its first segment: the IW
        // burst is complete. Move to verification.
        enter_verify();
        return;
      }
      return;  // duplicate of a later segment; ignore
    }
    if (overlaps(start, end)) {
      // Intersects recorded data without being a pure duplicate or a
      // gap-fill: a well-behaved stack retransmits on exact segment
      // boundaries, so a straddling range is a shrinking/overlapping
      // retransmitter rewriting stream history.
      observation_.overlap_seen = true;
    }
    const sim::SimTime now = services_.loop().now();
    if (last_data_at_ != sim::SimTime::min() && now - last_data_at_ >= sim::msec(400)) {
      ++trickle_gaps_;  // slowloris evidence: fresh data after a long gap
    }
    if (first_data_at_ == sim::SimTime::min()) first_data_at_ = now;
    if (now != last_data_at_) ++fresh_arrival_instants_;
    last_data_at_ = now;
    record_range(start, end, segment.payload);
  }

  if (has_fin) {
    observation_.fin_seen = true;
    const std::uint64_t fin_at =
        tcp::seq_diff(segment.tcp.seq, data_base_) + segment.payload.size();
    // Response is complete once everything up to the FIN arrived; under
    // reordering a hole may still be in flight — the collect timer covers
    // the case where it never arrives.
    if (contiguous_from_zero(fin_at)) {
      conclude(max_end_ == 0 ? ConnOutcome::NoData : ConnOutcome::FewData);
    }
  }
}

void IwEstimator::on_verify_data(const net::TcpSegment& segment) {
  if (!segment.payload.empty()) {
    note_payload(segment.payload.size());
    const std::uint64_t start = tcp::seq_diff(segment.tcp.seq, data_base_);
    if (start <= (std::uint64_t{1} << 31)) {
      const std::uint64_t end = start + segment.payload.size();
      if (!covered(start, end)) {
        // Fresh data released by our ACK: the sender had more queued and
        // was therefore genuinely limited by its IW.
        observation_.verify_new_data = true;
        conclude(ConnOutcome::Success);
        return;
      }
    }
  }
  if (segment.tcp.has(net::kFin)) {
    observation_.fin_seen = true;
    conclude(max_end_ == 0 ? ConnOutcome::NoData : ConnOutcome::FewData);
  }
}

void IwEstimator::record_range(std::uint64_t start, std::uint64_t end,
                               std::span<const std::uint8_t> payload) {
  ++observation_.segments;
  observation_.max_segment = std::max(observation_.max_segment,
                                      static_cast<std::uint16_t>(payload.size()));
  if (start < max_end_) {
    observation_.reorder_seen = true;  // fills (part of) an earlier gap
  }

  // Keep payload for in-order prefix reassembly (HTTP status/Location).
  if (chunk_bytes_.size() < kPrefixCap) store_chunk(start, payload);

  // Insert [start,end) into the coalesced ranges: absorb the range it
  // extends (if any) and every later range it reaches.
  const auto after = first_range_after(ranges_, start);
  auto first = after;
  if (after != ranges_.begin() && std::prev(after)->end >= start) {
    first = std::prev(after);
    start = first->start;
    end = std::max(end, first->end);
  }
  auto last = after;
  while (last != ranges_.end() && last->start <= end) {
    end = std::max(end, last->end);
    ++last;
  }
  if (first == last) {
    ranges_.insert(first, Range{start, end});
  } else {
    *first = Range{start, end};
    ranges_.erase(std::next(first), last);
  }
  max_end_ = std::max(max_end_, end);
}

void IwEstimator::store_chunk(std::uint64_t start,
                              std::span<const std::uint8_t> payload) {
  if (chunks_.empty()) {
    // Sized once for a typical first flight, which then stores in place.
    chunks_.reserve(kTypicalFlightSegments);
    chunk_bytes_.reserve(std::min(kPrefixCap, kTypicalFlightSegments * payload.size()));
  }
  const auto at = std::lower_bound(
      chunks_.begin(), chunks_.end(), start,
      [](const Chunk& chunk, std::uint64_t value) { return chunk.start < value; });
  if (at != chunks_.end() && at->start == start) return;  // first copy wins
  chunks_.insert(at, Chunk{start, static_cast<std::uint32_t>(chunk_bytes_.size()),
                           static_cast<std::uint32_t>(payload.size())});
  chunk_bytes_.insert(chunk_bytes_.end(), payload.begin(), payload.end());
}

bool IwEstimator::covered(std::uint64_t start, std::uint64_t end) const noexcept {
  const auto after = first_range_after(ranges_, start);
  if (after == ranges_.begin()) return false;
  const Range& range = *std::prev(after);
  return range.start <= start && end <= range.end;
}

bool IwEstimator::overlaps(std::uint64_t start, std::uint64_t end) const noexcept {
  const auto after = first_range_after(ranges_, start);
  if (after != ranges_.begin() && std::prev(after)->end > start) return true;
  return after != ranges_.end() && after->start < end;
}

void IwEstimator::note_payload(std::size_t payload_size) {
  // §3.1 tolerates OS-level clamping of tiny announced MSS values up to the
  // RFC 1122 default of 536 bytes; anything beyond that floor is a stack
  // ignoring the option outright.
  const std::size_t limit = std::max<std::size_t>(announced_mss_, 536);
  if (payload_size > limit) observation_.mss_violation = true;
}

bool IwEstimator::contiguous_from_zero(std::uint64_t upto) const noexcept {
  if (upto == 0) return true;
  return !ranges_.empty() && ranges_.front().start == 0 && ranges_.front().end >= upto;
}

void IwEstimator::enter_verify() {
  phase_ = Phase::Verify;
  observation_.loss_holes = ranges_.size() > 1;  // holes inside the burst

  // Pacing evidence. The sender's RTO ran from its first data segment to
  // the retransmission that got us here, and the network shifts both
  // endpoints of that window by the same one-way latency — so
  // now − first_data_at_ is the sender's RTO window as observed on our
  // side, and the fresh-data span measures how much of it the first
  // flight occupied. A burst spans only the path jitter; a paced flight
  // covers a fixed fraction of the window, and its byte count is then a
  // lower bound, not an exact IW (conclude() downgrades Success).
  if (first_data_at_ != sim::SimTime::min() &&
      observation_.anomaly == ProbeAnomaly::None) {
    const std::int64_t window = (services_.loop().now() - first_data_at_).count();
    const std::int64_t span = (last_data_at_ - first_data_at_).count();
    if (window > 0 &&
        span * 100 >= window * kPacedWindowPercent &&
        fresh_arrival_instants_ >= kPacedMinArrivals) {
      observation_.anomaly = ProbeAnomaly::PacedDelivery;
    }
  }
  // Acknowledge everything received, advertising a window of just
  // 2·MSS: enough to see whether more data exists without being flooded.
  const std::uint32_t ack = data_base_ + static_cast<std::uint32_t>(max_end_);
  const auto verify_window =
      static_cast<std::uint16_t>(kVerifyWindowSegments * announced_mss_);
  send_segment(isn_ + 1 + static_cast<std::uint32_t>(request_.size()), ack, net::kAck,
               verify_window, {}, /*with_mss_option=*/false);
  arm_timer(kVerifyTimeout, &IwEstimator::on_verify_timeout);
}

void IwEstimator::conclude(ConnOutcome outcome) {
  if (phase_ == Phase::Done) return;
  // A paced first flight is never an exact-IW success: the bytes counted
  // before the retransmission bound the IW from below, but the pacer may
  // have withheld more. Degrade to the FewData (lower-bound) verdict.
  if (observation_.anomaly == ProbeAnomaly::PacedDelivery &&
      outcome == ConnOutcome::Success) {
    outcome = ConnOutcome::FewData;
  }
  const bool had_connection = phase_ != Phase::SynSent || outcome == ConnOutcome::Refused;
  phase_ = Phase::Done;
  services_.loop().cancel(timer_);
  timer_ = sim::kNullEvent;

  // Tear the server connection down; the scan never closes gracefully.
  if (had_connection && outcome != ConnOutcome::Refused &&
      outcome != ConnOutcome::Unreachable) {
    send_segment(isn_ + 1 + static_cast<std::uint32_t>(request_.size()),
                 data_base_ + static_cast<std::uint32_t>(max_end_),
                 net::kRst | net::kAck, 0, {}, false);
  }

  observation_.outcome = outcome;
  if (observation_.anomaly == ProbeAnomaly::None) {
    if (outcome == ConnOutcome::NoData && observation_.fin_seen) {
      observation_.anomaly = ProbeAnomaly::EarlyFin;
    } else if (observation_.overlap_seen) {
      observation_.anomaly = ProbeAnomaly::ShrinkingRetransmit;
    } else if (observation_.mss_violation) {
      observation_.anomaly = ProbeAnomaly::MssViolation;
    }
  }
  observation_.span_bytes = max_end_;
  if (observation_.max_segment > 0) {
    // §3.1: "monitor the actually used segment size and use the observed
    // maximum for our IW estimation" — robust against OS MSS clamping.
    observation_.iw_estimate = static_cast<std::uint32_t>(
        (max_end_ + observation_.max_segment - 1) / observation_.max_segment);
  }
  if (outcome == ConnOutcome::NoData) {
    observation_.iw_estimate = 0;
  }

  reassemble_prefix();
  done_(observation_);
}

void IwEstimator::reassemble_prefix() {
  // Walk the chunks in stream order up to the first hole; a chunk adds the
  // bytes past what earlier chunks covered. When every contributing chunk
  // sits in chunk_bytes_ at its own stream offset (segments arrived in
  // order), the prefix is a leading slice of chunk_bytes_ and is moved.
  std::uint64_t expect = 0;
  bool in_place = true;
  for (const Chunk& chunk : chunks_) {
    if (chunk.start > expect) break;  // hole
    if (expect - chunk.start < chunk.size) {
      in_place = in_place && chunk.offset == chunk.start;
      expect = chunk.start + chunk.size;
    }
  }
  if (in_place) {
    observation_.prefix = std::move(chunk_bytes_);
    observation_.prefix.resize(static_cast<std::size_t>(expect));
    return;
  }
  observation_.prefix.clear();
  observation_.prefix.reserve(static_cast<std::size_t>(expect));
  expect = 0;
  for (const Chunk& chunk : chunks_) {
    if (chunk.start > expect) break;
    const std::uint64_t skip = expect - chunk.start;
    if (skip < chunk.size) {
      const auto bytes = std::span<const std::uint8_t>(chunk_bytes_).subspan(
          chunk.offset + static_cast<std::size_t>(skip), chunk.size - skip);
      observation_.prefix.insert(observation_.prefix.end(), bytes.begin(), bytes.end());
      expect = chunk.start + chunk.size;
    }
  }
}

void IwEstimator::send_segment(std::uint32_t seq, std::uint32_t ack, std::uint8_t flags,
                               std::uint16_t window,
                               std::span<const std::uint8_t> payload,
                               bool with_mss_option) {
  net::Ipv4Header ip;
  ip.src = services_.scanner_address();
  ip.dst = target_;
  ip.ttl = 64;
  ip.dont_fragment = true;
  net::TcpHeader tcp;
  tcp.src_port = local_port_;
  tcp.dst_port = target_port_;
  tcp.seq = seq;
  tcp.ack = ack;
  tcp.flags = flags;
  tcp.window = window;
  if (with_mss_option) {
    tcp.options.push_back(net::MssOption{announced_mss_});
  }
  services_.send_packet(ip, tcp, payload);
}

void IwEstimator::arm_timer(sim::SimTime delay, void (IwEstimator::*handler)()) {
  services_.loop().cancel(timer_);
  timer_ = services_.loop().schedule(delay, [this, handler] {
    timer_ = sim::kNullEvent;
    (this->*handler)();
  });
}

void IwEstimator::on_syn_timeout() { conclude(ConnOutcome::Unreachable); }

void IwEstimator::on_collect_timeout() {
  if (observation_.fin_seen) {
    // FIN arrived but a hole never filled: tail of the response lost.
    observation_.loss_holes = ranges_.size() != 1 || ranges_.front().start != 0;
    conclude(max_end_ == 0 ? ConnOutcome::NoData : ConnOutcome::FewData);
  } else if (max_end_ == 0) {
    if (observation_.zero_window_seen) {
      observation_.anomaly = ProbeAnomaly::ZeroWindow;
    } else if (!request_acked_) {
      // Completed the handshake but never consumed our request: a tarpit
      // holding the connection open to waste scanner state.
      observation_.anomaly = ProbeAnomaly::Tarpit;
    }
    conclude(ConnOutcome::NoData);
  } else {
    // Data flowed but no retransmission was ever seen — all retransmits
    // lost, a middlebox interfered, or the stack simply never retransmits.
    // No trustworthy estimate either way. Repeated long inter-segment gaps
    // mark the slowloris variant that drips bytes to stall the collector.
    observation_.anomaly = trickle_gaps_ >= 2 ? ProbeAnomaly::Slowloris
                                              : ProbeAnomaly::NoRetransmit;
    conclude(ConnOutcome::Error);
  }
}

void IwEstimator::on_verify_timeout() {
  // No new data after the ACK release: the sender was out of data, so the
  // IW may not have been filled (lower bound only).
  conclude(max_end_ == 0 ? ConnOutcome::NoData : ConnOutcome::FewData);
}

}  // namespace iwscan::core
