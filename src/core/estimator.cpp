#include "core/estimator.hpp"

#include <algorithm>

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

/// Reassembly bytes a pooled evidence block keeps between connections: an
/// IW10 flight at the 64-byte MSS (640 B) fits. Longer flights give their
/// buffer back to the allocator, so the free list does not pin the largest
/// flight each block has seen (a 4 KiB cap cost ~2 MiB more peak heap on a
/// 2^15 HTTP scan).
constexpr std::size_t kRetainedBytes = 1024;

}  // namespace

class ConnEvidence {
 public:
  /// Back to the state of a fresh block, keeping vector capacity.
  void reset() noexcept;

  void record_range(std::uint64_t start, std::uint64_t end,
                    std::span<const std::uint8_t> payload);
  void store_chunk(std::uint64_t start, std::span<const std::uint8_t> payload);
  void reassemble_prefix();
  [[nodiscard]] bool covered(std::uint64_t start, std::uint64_t end) const noexcept;
  [[nodiscard]] bool overlaps(std::uint64_t start, std::uint64_t end) const noexcept;
  [[nodiscard]] bool contiguous_from_zero(std::uint64_t upto) const noexcept;

  ConnEvidence* next_free = nullptr;  // EvidencePool's list link

  net::Bytes request;
  std::uint32_t irs = 0;        // server initial sequence number
  std::uint32_t data_base = 0;  // irs + 1: sequence of the first data byte

  // Received sequence ranges relative to data_base ([start, end)),
  // coalesced and sorted by start. Almost always a single range.
  struct Range {
    std::uint64_t start;
    std::uint64_t end;
  };
  std::vector<Range> ranges;
  // Payload kept for prefix reassembly: the bytes of every stored segment
  // in arrival order, and an index of them sorted by stream offset, at most
  // one per offset. In-order segments append to both.
  struct Chunk {
    std::uint64_t start;   // stream offset, relative to data_base
    std::uint32_t offset;  // position in chunk_bytes
    std::uint32_t size;
  };
  net::Bytes chunk_bytes;
  std::vector<Chunk> chunks;
  std::uint64_t max_end = 0;

  // Hostile-stack evidence (§5 / DESIGN.md §11). `request_acked`
  // distinguishes a tarpit (SYN/ACK, then deaf) from a host that accepted
  // the request but had nothing to say; the trickle counter separates a
  // slowloris byte-dripper from a sender whose retransmissions were lost.
  bool request_acked = false;
  std::uint32_t trickle_gaps = 0;
  sim::SimTime last_data_at = sim::SimTime::min();

  // Pacing evidence: arrival instants of the first and last fresh data
  // byte, and how many distinct instants delivered fresh data. Evaluated
  // against the RTO window when the retransmission closes the collect
  // phase (enter_verify).
  sim::SimTime first_data_at = sim::SimTime::min();
  std::uint32_t fresh_arrival_instants = 0;

  ConnObservation observation;
};

void ConnEvidence::reset() noexcept {
  // Every field back to its initial value, except the vectors' capacity.
  // reassemble_prefix may have moved the reassembly buffer into the
  // observation's prefix; keep whichever of the two is larger.
  net::Bytes bytes = chunk_bytes.capacity() >= observation.prefix.capacity()
                         ? std::move(chunk_bytes)
                         : std::move(observation.prefix);
  std::vector<Range> kept_ranges = std::move(ranges);
  std::vector<Chunk> kept_chunks = std::move(chunks);
  *this = ConnEvidence{};
  bytes.clear();
  if (bytes.capacity() <= kRetainedBytes) chunk_bytes = std::move(bytes);
  kept_ranges.clear();
  ranges = std::move(kept_ranges);
  kept_chunks.clear();
  chunks = std::move(kept_chunks);
}

EvidencePool::~EvidencePool() {
  while (free_ != nullptr) {
    ConnEvidence* next = free_->next_free;
    delete free_;
    free_ = next;
  }
}

std::unique_ptr<ConnEvidence> EvidencePool::acquire() {
  if (free_ == nullptr) {
    // iwlint: allow(hot-path) -- the free list grows once per connection
    // the pool has not yet seen concurrently (its size is the peak of
    // answered connections in flight); every later SYN/ACK reuses a block
    return std::make_unique<ConnEvidence>();
  }
  std::unique_ptr<ConnEvidence> evidence(free_);
  free_ = free_->next_free;
  evidence->next_free = nullptr;
  return evidence;
}

void EvidencePool::release(std::unique_ptr<ConnEvidence> evidence) noexcept {
  evidence->reset();
  evidence->next_free = free_;
  free_ = evidence.release();
}

IwEstimator::IwEstimator(scan::SessionServices& services, net::IPv4Address target,
                         std::uint16_t target_port, std::uint16_t announced_mss,
                         Owner& owner)
    : services_(services),
      owner_(owner),
      target_(target),
      target_port_(target_port),
      announced_mss_(announced_mss) {}

IwEstimator::~IwEstimator() {
  services_.loop().cancel(timer_);
  // Torn down mid-connection (a budget kill, or the engine's teardown).
  if (evidence_) owner_.evidence_pool().release(std::move(evidence_));
}

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
    if (phase_ != Phase::SynSent && evidence_->max_end > 0) {
      // The response had started flowing; a reset now is an injected abort
      // (middlebox or hostile daemon), not a closed port.
      evidence_->observation.anomaly = ProbeAnomaly::MidStreamRst;
    }
    conclude(phase_ == Phase::SynSent ? ConnOutcome::Refused : ConnOutcome::Error);
    return;
  }

  if (!evidence_) {
    // Before the SYN/ACK only an acknowledging segment can matter; the
    // first one means the target answered, so the rest of the
    // connection's state is built now.
    if (!segment->tcp.has(net::kAck)) return;
    evidence_ = owner_.evidence_pool().acquire();
    evidence_->request = owner_.request();
  }
  ConnEvidence& evidence = *evidence_;

  if (segment->tcp.has(net::kAck)) {
    const std::uint64_t acked = tcp::seq_diff(segment->tcp.ack, isn_ + 1);
    if (!evidence.request.empty() && acked <= (std::uint64_t{1} << 31) &&
        acked >= evidence.request.size()) {
      evidence.request_acked = true;  // the peer consumed our request
    }
    if (segment->tcp.window == 0) evidence.observation.zero_window_seen = true;
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
          segment->tcp.seq == evidence.irs) {
        // Retransmitted SYN/ACK: our handshake-ACK+request was lost on the
        // way out. Resend it, or the probe would idle into a false NoData.
        send_segment(isn_ + 1, evidence.data_base, net::kAck | net::kPsh,
                     kHandshakeWindow, evidence.request, /*with_mss_option=*/false);
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
  ConnEvidence& evidence = *evidence_;
  evidence.irs = segment.tcp.seq;
  evidence.data_base = evidence.irs + 1;
  phase_ = Phase::Collect;
  // Handshake ACK and the request ride in one segment (Fig. 1).
  send_segment(isn_ + 1, evidence.data_base, net::kAck | net::kPsh, kHandshakeWindow,
               evidence.request, /*with_mss_option=*/false);
  arm_timer(kCollectTimeout, &IwEstimator::on_collect_timeout);
}

void IwEstimator::on_collect_data(const net::TcpSegment& segment) {
  ConnEvidence& evidence = *evidence_;
  const bool has_fin = segment.tcp.has(net::kFin);
  if (segment.payload.empty() && !has_fin) return;  // bare ACK of our request

  if (!segment.payload.empty()) {
    note_payload(segment.payload.size());
    const std::uint64_t start = tcp::seq_diff(segment.tcp.seq, evidence.data_base);
    // Sequences "before" the first data byte would wrap to huge offsets;
    // treat anything implausibly far out as noise.
    if (start > (std::uint64_t{1} << 31)) return;
    const std::uint64_t end = start + segment.payload.size();

    if (evidence.covered(start, end)) {
      if (start == 0) {
        // The sender's RTO retransmission of its first segment: the IW
        // burst is complete. Move to verification.
        enter_verify();
        return;
      }
      return;  // duplicate of a later segment; ignore
    }
    if (evidence.overlaps(start, end)) {
      // Intersects recorded data without being a pure duplicate or a
      // gap-fill: a well-behaved stack retransmits on exact segment
      // boundaries, so a straddling range is a shrinking/overlapping
      // retransmitter rewriting stream history.
      evidence.observation.overlap_seen = true;
    }
    const sim::SimTime now = services_.loop().now();
    if (evidence.last_data_at != sim::SimTime::min() &&
        now - evidence.last_data_at >= sim::msec(400)) {
      ++evidence.trickle_gaps;  // slowloris evidence: fresh data after a long gap
    }
    if (evidence.first_data_at == sim::SimTime::min()) evidence.first_data_at = now;
    if (now != evidence.last_data_at) ++evidence.fresh_arrival_instants;
    evidence.last_data_at = now;
    evidence.record_range(start, end, segment.payload);
  }

  if (has_fin) {
    evidence.observation.fin_seen = true;
    const std::uint64_t fin_at =
        tcp::seq_diff(segment.tcp.seq, evidence.data_base) + segment.payload.size();
    // Response is complete once everything up to the FIN arrived; under
    // reordering a hole may still be in flight — the collect timer covers
    // the case where it never arrives.
    if (evidence.contiguous_from_zero(fin_at)) {
      conclude(evidence.max_end == 0 ? ConnOutcome::NoData : ConnOutcome::FewData);
    }
  }
}

void IwEstimator::on_verify_data(const net::TcpSegment& segment) {
  ConnEvidence& evidence = *evidence_;
  if (!segment.payload.empty()) {
    note_payload(segment.payload.size());
    const std::uint64_t start = tcp::seq_diff(segment.tcp.seq, evidence.data_base);
    if (start <= (std::uint64_t{1} << 31)) {
      const std::uint64_t end = start + segment.payload.size();
      if (!evidence.covered(start, end)) {
        // Fresh data released by our ACK: the sender had more queued and
        // was therefore genuinely limited by its IW.
        evidence.observation.verify_new_data = true;
        conclude(ConnOutcome::Success);
        return;
      }
    }
  }
  if (segment.tcp.has(net::kFin)) {
    evidence.observation.fin_seen = true;
    conclude(evidence.max_end == 0 ? ConnOutcome::NoData : ConnOutcome::FewData);
  }
}

void ConnEvidence::record_range(std::uint64_t start, std::uint64_t end,
                                std::span<const std::uint8_t> payload) {
  ++observation.segments;
  observation.max_segment =
      std::max(observation.max_segment, static_cast<std::uint16_t>(payload.size()));
  if (start < max_end) {
    observation.reorder_seen = true;  // fills (part of) an earlier gap
  }

  // Keep payload for in-order prefix reassembly (HTTP status/Location).
  if (chunk_bytes.size() < kPrefixCap) store_chunk(start, payload);

  // Insert [start,end) into the coalesced ranges: absorb the range it
  // extends (if any) and every later range it reaches.
  const auto after = first_range_after(ranges, start);
  auto first = after;
  if (after != ranges.begin() && std::prev(after)->end >= start) {
    first = std::prev(after);
    start = first->start;
    end = std::max(end, first->end);
  }
  auto last = after;
  while (last != ranges.end() && last->start <= end) {
    end = std::max(end, last->end);
    ++last;
  }
  if (first == last) {
    ranges.insert(first, Range{start, end});
  } else {
    *first = Range{start, end};
    ranges.erase(std::next(first), last);
  }
  max_end = std::max(max_end, end);
}

void ConnEvidence::store_chunk(std::uint64_t start,
                               std::span<const std::uint8_t> payload) {
  if (chunks.empty()) {
    // Sized once for a typical first flight, which then stores in place
    // (a no-op when a pooled block kept a larger buffer).
    chunks.reserve(kTypicalFlightSegments);
    chunk_bytes.reserve(std::min(kPrefixCap, kTypicalFlightSegments * payload.size()));
  }
  const auto at = std::lower_bound(
      chunks.begin(), chunks.end(), start,
      [](const Chunk& chunk, std::uint64_t value) { return chunk.start < value; });
  if (at != chunks.end() && at->start == start) return;  // first copy wins
  chunks.insert(at, Chunk{start, static_cast<std::uint32_t>(chunk_bytes.size()),
                          static_cast<std::uint32_t>(payload.size())});
  chunk_bytes.insert(chunk_bytes.end(), payload.begin(), payload.end());
}

bool ConnEvidence::covered(std::uint64_t start, std::uint64_t end) const noexcept {
  const auto after = first_range_after(ranges, start);
  if (after == ranges.begin()) return false;
  const Range& range = *std::prev(after);
  return range.start <= start && end <= range.end;
}

bool ConnEvidence::overlaps(std::uint64_t start, std::uint64_t end) const noexcept {
  const auto after = first_range_after(ranges, start);
  if (after != ranges.begin() && std::prev(after)->end > start) return true;
  return after != ranges.end() && after->start < end;
}

void IwEstimator::note_payload(std::size_t payload_size) {
  // §3.1 tolerates OS-level clamping of tiny announced MSS values up to the
  // RFC 1122 default of 536 bytes; anything beyond that floor is a stack
  // ignoring the option outright.
  const std::size_t limit = std::max<std::size_t>(announced_mss_, 536);
  if (payload_size > limit) evidence_->observation.mss_violation = true;
}

bool ConnEvidence::contiguous_from_zero(std::uint64_t upto) const noexcept {
  if (upto == 0) return true;
  return !ranges.empty() && ranges.front().start == 0 && ranges.front().end >= upto;
}

void IwEstimator::enter_verify() {
  ConnEvidence& evidence = *evidence_;
  phase_ = Phase::Verify;
  evidence.observation.loss_holes = evidence.ranges.size() > 1;  // holes inside the burst

  // Pacing evidence. The sender's RTO ran from its first data segment to
  // the retransmission that got us here, and the network shifts both
  // endpoints of that window by the same one-way latency — so
  // now − first_data_at is the sender's RTO window as observed on our
  // side, and the fresh-data span measures how much of it the first
  // flight occupied. A burst spans only the path jitter; a paced flight
  // covers a fixed fraction of the window, and its byte count is then a
  // lower bound, not an exact IW (conclude() downgrades Success).
  if (evidence.first_data_at != sim::SimTime::min() &&
      evidence.observation.anomaly == ProbeAnomaly::None) {
    const std::int64_t window = (services_.loop().now() - evidence.first_data_at).count();
    const std::int64_t span = (evidence.last_data_at - evidence.first_data_at).count();
    if (window > 0 &&
        span * 100 >= window * kPacedWindowPercent &&
        evidence.fresh_arrival_instants >= kPacedMinArrivals) {
      evidence.observation.anomaly = ProbeAnomaly::PacedDelivery;
    }
  }
  // Acknowledge everything received, advertising a window of just
  // 2·MSS: enough to see whether more data exists without being flooded.
  const std::uint32_t ack =
      evidence.data_base + static_cast<std::uint32_t>(evidence.max_end);
  const auto verify_window =
      static_cast<std::uint16_t>(kVerifyWindowSegments * announced_mss_);
  send_segment(isn_ + 1 + static_cast<std::uint32_t>(evidence.request.size()), ack,
               net::kAck, verify_window, {}, /*with_mss_option=*/false);
  arm_timer(kVerifyTimeout, &IwEstimator::on_verify_timeout);
}

void IwEstimator::conclude(ConnOutcome outcome) {
  if (phase_ == Phase::Done) return;
  const bool had_connection = phase_ != Phase::SynSent || outcome == ConnOutcome::Refused;
  phase_ = Phase::Done;
  services_.loop().cancel(timer_);
  timer_ = sim::kNullEvent;

  if (!evidence_) {
    // The target never answered (SYN timeout) or answered only with a RST:
    // nothing was observed beyond the outcome.
    ConnObservation observation;
    observation.outcome = outcome;
    owner_.connection_done(observation);
    return;
  }
  ConnEvidence& evidence = *evidence_;
  ConnObservation& observation = evidence.observation;
  // A paced first flight is never an exact-IW success: the bytes counted
  // before the retransmission bound the IW from below, but the pacer may
  // have withheld more. Degrade to the FewData (lower-bound) verdict.
  if (observation.anomaly == ProbeAnomaly::PacedDelivery &&
      outcome == ConnOutcome::Success) {
    outcome = ConnOutcome::FewData;
  }

  // Tear the server connection down; the scan never closes gracefully.
  if (had_connection && outcome != ConnOutcome::Refused &&
      outcome != ConnOutcome::Unreachable) {
    send_segment(isn_ + 1 + static_cast<std::uint32_t>(evidence.request.size()),
                 evidence.data_base + static_cast<std::uint32_t>(evidence.max_end),
                 net::kRst | net::kAck, 0, {}, false);
  }

  observation.outcome = outcome;
  if (observation.anomaly == ProbeAnomaly::None) {
    if (outcome == ConnOutcome::NoData && observation.fin_seen) {
      observation.anomaly = ProbeAnomaly::EarlyFin;
    } else if (observation.overlap_seen) {
      observation.anomaly = ProbeAnomaly::ShrinkingRetransmit;
    } else if (observation.mss_violation) {
      observation.anomaly = ProbeAnomaly::MssViolation;
    }
  }
  observation.span_bytes = evidence.max_end;
  if (observation.max_segment > 0) {
    // §3.1: "monitor the actually used segment size and use the observed
    // maximum for our IW estimation" — robust against OS MSS clamping.
    observation.iw_estimate = static_cast<std::uint32_t>(
        (evidence.max_end + observation.max_segment - 1) / observation.max_segment);
  }
  if (outcome == ConnOutcome::NoData) {
    observation.iw_estimate = 0;
  }

  evidence.reassemble_prefix();
  owner_.connection_done(observation);
  // The owner has read the observation; the block goes back for the next
  // connection that gets a SYN/ACK.
  owner_.evidence_pool().release(std::move(evidence_));
}

void ConnEvidence::reassemble_prefix() {
  // Walk the chunks in stream order up to the first hole; a chunk adds the
  // bytes past what earlier chunks covered. When every contributing chunk
  // sits in chunk_bytes at its own stream offset (segments arrived in
  // order), the prefix is a leading slice of chunk_bytes and is moved.
  std::uint64_t expect = 0;
  bool in_place = true;
  for (const Chunk& chunk : chunks) {
    if (chunk.start > expect) break;  // hole
    if (expect - chunk.start < chunk.size) {
      in_place = in_place && chunk.offset == chunk.start;
      expect = chunk.start + chunk.size;
    }
  }
  if (in_place) {
    observation.prefix = std::move(chunk_bytes);
    observation.prefix.resize(static_cast<std::size_t>(expect));
    return;
  }
  observation.prefix.clear();
  observation.prefix.reserve(static_cast<std::size_t>(expect));
  expect = 0;
  for (const Chunk& chunk : chunks) {
    if (chunk.start > expect) break;
    const std::uint64_t skip = expect - chunk.start;
    if (skip < chunk.size) {
      const auto bytes = std::span<const std::uint8_t>(chunk_bytes).subspan(
          chunk.offset + static_cast<std::size_t>(skip), chunk.size - skip);
      observation.prefix.insert(observation.prefix.end(), bytes.begin(), bytes.end());
      expect = chunk.start + chunk.size;
    }
  }
}

void IwEstimator::send_segment(std::uint32_t seq, std::uint32_t ack, std::uint8_t flags,
                               std::uint16_t window,
                               std::span<const std::uint8_t> payload,
                               bool with_mss_option) {
  net::TcpSegment segment;
  segment.ip.src = services_.scanner_address();
  segment.ip.dst = target_;
  segment.ip.ttl = 64;
  segment.ip.dont_fragment = true;
  segment.tcp.src_port = local_port_;
  segment.tcp.dst_port = target_port_;
  segment.tcp.seq = seq;
  segment.tcp.ack = ack;
  segment.tcp.flags = flags;
  segment.tcp.window = window;
  if (with_mss_option) segment.tcp.mss = announced_mss_;
  segment.payload = payload;
  services_.send_packet(segment);
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
  ConnEvidence& evidence = *evidence_;
  ConnObservation& observation = evidence.observation;
  if (observation.fin_seen) {
    // FIN arrived but a hole never filled: tail of the response lost.
    observation.loss_holes =
        evidence.ranges.size() != 1 || evidence.ranges.front().start != 0;
    conclude(evidence.max_end == 0 ? ConnOutcome::NoData : ConnOutcome::FewData);
  } else if (evidence.max_end == 0) {
    if (observation.zero_window_seen) {
      observation.anomaly = ProbeAnomaly::ZeroWindow;
    } else if (!evidence.request_acked) {
      // Completed the handshake but never consumed our request: a tarpit
      // holding the connection open to waste scanner state.
      observation.anomaly = ProbeAnomaly::Tarpit;
    }
    conclude(ConnOutcome::NoData);
  } else {
    // Data flowed but no retransmission was ever seen — all retransmits
    // lost, a middlebox interfered, or the stack simply never retransmits.
    // No trustworthy estimate either way. Repeated long inter-segment gaps
    // mark the slowloris variant that drips bytes to stall the collector.
    observation.anomaly = evidence.trickle_gaps >= 2 ? ProbeAnomaly::Slowloris
                                                     : ProbeAnomaly::NoRetransmit;
    conclude(ConnOutcome::Error);
  }
}

void IwEstimator::on_verify_timeout() {
  // No new data after the ACK release: the sender was out of data, so the
  // IW may not have been filled (lower bound only).
  conclude(evidence_->max_end == 0 ? ConnOutcome::NoData : ConnOutcome::FewData);
}

}  // namespace iwscan::core
