#include "tcpstack/connection.hpp"

#include <algorithm>

#include "tcpstack/pacing.hpp"
#include "tcpstack/seq.hpp"
#include "util/rng.hpp"

namespace iwscan::tcp {

TcpConnection::TcpConnection(sim::EventLoop& loop, const StackConfig& config,
                             net::IPv4Address local_addr, std::uint16_t local_port,
                             net::IPv4Address remote_addr, std::uint16_t remote_port,
                             const net::TcpSegment& syn, std::uint32_t initial_seq,
                             std::unique_ptr<Application> app, SendFn send,
                             ClosedFn on_closed)
    : loop_(loop),
      config_(config),
      local_addr_(local_addr),
      local_port_(local_port),
      remote_addr_(remote_addr),
      remote_port_(remote_port),
      app_(std::move(app)),
      send_fn_(std::move(send)),
      on_closed_(std::move(on_closed)) {
  // RFC 1122: absent MSS option implies the 536-byte default.
  mss_ = effective_mss(config_.os, syn.tcp.mss.value_or(536), config_.own_mss_limit);
  cwnd_ = config_.iw.initial_cwnd(mss_);

  irs_ = syn.tcp.seq;
  rcv_nxt_ = irs_ + 1;
  rwnd_ = syn.tcp.window;

  iss_ = initial_seq;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  buffer_start_seq_ = iss_ + 1;

  rto_ = kInitialRto;
  synack_sent_at_ = loop_.now();
  send_syn_ack();
  arm_retransmit();
  touch_idle_timer();
}

TcpConnection::~TcpConnection() {
  loop_.cancel(retx_event_);
  loop_.cancel(idle_event_);
  for (const auto id : pacing_events_) loop_.cancel(id);
}

std::uint32_t TcpConnection::bytes_in_flight() const noexcept {
  return seq_diff(snd_nxt_, snd_una_);
}

std::uint32_t TcpConnection::unsent_bytes() const noexcept {
  const std::uint32_t data_end =
      buffer_start_seq_ + static_cast<std::uint32_t>(buffer_.size());
  const std::uint32_t sent_data_end = snd_nxt_ - (fin_sent_ ? 1 : 0);
  return seq_ge(sent_data_end, data_end) ? 0 : seq_diff(data_end, sent_data_end);
}

std::uint32_t TcpConnection::send_window() const noexcept {
  return std::min(cwnd_, std::uint32_t{rwnd_});
}

void TcpConnection::on_segment(const net::TcpSegment& segment) {
  if (state_ == TcpState::Closed) return;
  touch_idle_timer();
  in_segment_processing_ = true;
  const struct Reset {  // cleared on every exit path, incl. early returns
    bool* flag;
    ~Reset() { *flag = false; }
  } reset_guard{&in_segment_processing_};

  if (segment.tcp.has(net::kRst)) {
    // RFC 793: validate the RST is in the receive window; our peers always
    // send exact in-window resets so an exact-or-newer check suffices.
    enter_closed();
    return;
  }

  const std::uint64_t segments_sent_before = stats_.segments_sent;
  const std::uint32_t rcv_nxt_before = rcv_nxt_;

  if (state_ == TcpState::SynReceived) {
    if (segment.tcp.has(net::kSyn) && !segment.tcp.has(net::kAck)) {
      // Retransmitted SYN: answer with the same SYN/ACK.
      send_syn_ack();
      return;
    }
    if (!segment.tcp.has(net::kAck) || segment.tcp.ack != iss_ + 1) {
      return;  // not the handshake completion we expect
    }
    state_ = TcpState::Established;
    snd_una_ = segment.tcp.ack;
    rwnd_ = segment.tcp.window;
    // Handshake RTT (Karn: measured against the first SYN/ACK transmission)
    // — the pacing schedule spreads the first flight over a slice of it.
    handshake_rtt_ = loop_.now() - synack_sent_at_;
    loop_.cancel(retx_event_);
    retx_event_ = sim::kNullEvent;
    retx_count_ = 0;
    rto_ = kInitialRto;
    // Fall through: the handshake ACK may carry the request payload
    // (Fig. 1 of the paper: "ACK, REQUEST" in one segment).
  } else {
    handle_ack(segment);
  }
  if (state_ == TcpState::Closed) return;

  handle_payload(segment);
  if (state_ == TcpState::Closed) return;

  try_send();
  if (state_ == TcpState::Closed) return;

  // Acknowledge received data if nothing we sent carried the ACK. A
  // duplicate or out-of-order payload also triggers an immediate ACK (the
  // classic duplicate-ACK signal) so a retransmitting peer converges.
  const bool advanced = rcv_nxt_ != rcv_nxt_before;
  const bool unaccepted_payload = !segment.payload.empty() && !advanced;
  if ((advanced || unaccepted_payload) &&
      stats_.segments_sent == segments_sent_before) {
    send_pure_ack();
  }
}

void TcpConnection::handle_ack(const net::TcpSegment& segment) {
  if (!segment.tcp.has(net::kAck)) return;
  const std::uint32_t ack = segment.tcp.ack;
  if (seq_gt(ack, snd_nxt_)) {
    send_pure_ack();  // acks data we never sent
    return;
  }
  rwnd_ = segment.tcp.window;
  if (!seq_gt(ack, snd_una_)) return;  // duplicate or old ACK

  const std::uint32_t acked = seq_diff(ack, snd_una_);
  snd_una_ = ack;

  // A data ACK while pacing releases the remaining first flight at once:
  // the receiver is reading, so the window is governed by slow start from
  // here on (and the verify-phase ACK must trigger an immediate burst).
  if (pacing_active_) cancel_pacing();

  // Trim acknowledged bytes off the retransmission buffer.
  if (seq_gt(ack, buffer_start_seq_)) {
    const std::uint32_t buffer_acked = std::min<std::uint32_t>(
        seq_diff(ack, buffer_start_seq_), static_cast<std::uint32_t>(buffer_.size()));
    buffer_.erase(buffer_.begin(), buffer_.begin() + buffer_acked);
    buffer_start_seq_ += buffer_acked;
  }

  // Slow start (RFC 5681 §3.1): cwnd += min(acked, SMSS) per ACK.
  cwnd_ += std::min<std::uint32_t>(acked, mss_);

  retx_count_ = 0;
  rto_ = kInitialRto;
  if (bytes_in_flight() == 0) {
    loop_.cancel(retx_event_);
    retx_event_ = sim::kNullEvent;
  } else {
    arm_retransmit();
  }

  if (fin_sent_ && ack == snd_nxt_) {
    if (state_ == TcpState::FinWait1) {
      state_ = TcpState::FinWait2;
    } else if (state_ == TcpState::LastAck) {
      enter_closed();
    }
  }
}

void TcpConnection::handle_payload(const net::TcpSegment& segment) {
  const bool has_fin = segment.tcp.has(net::kFin);
  if (segment.payload.empty() && !has_fin) return;

  if (segment.tcp.seq != rcv_nxt_) {
    // Out-of-order or duplicate: drop and let the duplicate-ACK logic in
    // on_segment() answer. Reassembly is unnecessary against our probers.
    return;
  }

  rcv_nxt_ += static_cast<std::uint32_t>(segment.payload.size());
  if (!segment.payload.empty() && app_) {
    app_->on_data(*this, segment.payload);
    if (state_ == TcpState::Closed) return;  // app aborted
  }

  if (has_fin) {
    rcv_nxt_ += 1;
    switch (state_) {
      case TcpState::Established:
        state_ = TcpState::CloseWait;
        break;
      case TcpState::FinWait1:
      case TcpState::FinWait2:
        // Simultaneous/after-our-FIN close; skip TIME_WAIT.
        enter_closed();
        return;
      default:
        break;
    }
  }
}

void TcpConnection::send(std::span<const std::uint8_t> data) {
  if (state_ == TcpState::Closed || fin_pending_) return;
  // iwlint: allow(hot-path) -- per-connection send buffer reusing its
  // capacity across segments; bounded by the app's response size
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  // Inside segment processing, transmission is deferred until the app
  // callback returns — so a send()+close() pair lets the FIN piggyback on
  // the final data segment, as real stacks do.
  if (state_ != TcpState::SynReceived && !in_segment_processing_) try_send();
}

void TcpConnection::send(net::Bytes&& data) {
  // An empty send buffer adopts the bytes; send(span) then has nothing
  // left to copy and only starts the transmission.
  if (buffer_.empty() && state_ != TcpState::Closed && !fin_pending_) buffer_.swap(data);
  send(std::span<const std::uint8_t>(data));
}

void TcpConnection::close() {
  if (state_ == TcpState::Closed || fin_pending_) return;
  fin_pending_ = true;
  if (state_ != TcpState::SynReceived && !in_segment_processing_) try_send();
}

void TcpConnection::abort() {
  if (state_ == TcpState::Closed) return;
  send_rst(snd_nxt_);
  enter_closed();
}

void TcpConnection::set_initial_window(const IwConfig& iw) {
  if (state_ == TcpState::Closed || first_flight_started_ ||
      stats_.bytes_sent != 0) {
    return;
  }
  config_.iw = iw;
  cwnd_ = iw.initial_cwnd(mss_);
}

void TcpConnection::try_send() {
  if (state_ != TcpState::Established && state_ != TcpState::CloseWait) {
    return;
  }
  if (pacing_active_) return;  // slot timers own transmission
  if (config_.iw.pacing.paced() && !first_flight_started_ &&
      unsent_bytes() > 0) {
    start_paced_first_flight();
    return;
  }
  const std::uint32_t window = send_window();
  bool sent_any = false;

  while (true) {
    const std::uint32_t unsent = unsent_bytes();
    if (unsent == 0) break;
    const std::uint32_t in_flight = bytes_in_flight();
    if (in_flight >= window) break;
    const std::uint32_t room = window - in_flight;
    const std::uint32_t chunk = std::min({std::uint32_t{mss_}, unsent, room});
    if (chunk == 0) break;

    const std::uint32_t offset = seq_diff(snd_nxt_, buffer_start_seq_);
    const auto payload =
        std::span<const std::uint8_t>(buffer_).subspan(offset, chunk);
    const bool last_chunk = chunk == unsent;
    std::uint8_t flags = net::kAck;
    if (last_chunk) flags |= net::kPsh;
    const bool attach_fin = last_chunk && fin_pending_ && !fin_sent_;
    if (attach_fin) flags |= net::kFin;

    emit_segment(snd_nxt_, payload, flags);
    stats_.bytes_sent += chunk;
    snd_nxt_ += chunk;
    if (attach_fin) {
      fin_sent_ = true;
      snd_nxt_ += 1;
      state_ = state_ == TcpState::CloseWait ? TcpState::LastAck : TcpState::FinWait1;
    }
    sent_any = true;
  }

  // Bare FIN once every queued byte has been transmitted (data may still be
  // unacked; the FIN occupies the next sequence number after it).
  if (fin_pending_ && !fin_sent_ && unsent_bytes() == 0) {
    emit_segment(snd_nxt_, {}, net::kFin | net::kAck);
    fin_sent_ = true;
    snd_nxt_ += 1;
    state_ = state_ == TcpState::CloseWait ? TcpState::LastAck : TcpState::FinWait1;
    sent_any = true;
  }

  if (sent_any && bytes_in_flight() > 0) arm_retransmit();
}

void TcpConnection::start_paced_first_flight() {
  first_flight_started_ = true;
  // Schedule seed: (ISS, peer address) — unique per connection, stable per
  // replay, and independent of anything the scanner controls beyond timing.
  const auto schedule =
      build_pacing_schedule(config_.iw, mss_, handshake_rtt_, rto_,
                            util::mix64(iss_, remote_addr_.value()));
  if (schedule.empty()) return;
  pacing_slots_total_ = schedule.size();
  pacing_active_ = true;
  // iwlint: allow(hot-path) -- once per connection at first-flight start;
  // bounded by the slot count of one initial window
  pacing_events_.assign(schedule.size(), sim::kNullEvent);
  // iwlint: allow(hot-path) -- same once-per-connection slot table as above
  pacing_slot_bytes_.resize(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    pacing_slot_bytes_[i] = schedule[i].bytes;
  }
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    pacing_events_[i] =
        loop_.schedule(schedule[i].offset, [this, i] { on_pacing_slot(i); });
  }
  // Slot 0 fires inline (offset zero by construction); the RTO is armed
  // here, once, so the retransmission the scanner waits for comes exactly
  // one RTO after the first data segment — pacing must not reset it.
  on_pacing_slot(0);
}

void TcpConnection::on_pacing_slot(std::size_t index) {
  if (index < pacing_events_.size()) pacing_events_[index] = sim::kNullEvent;
  if (state_ == TcpState::Closed || !pacing_active_) return;
  const bool last_slot = index + 1 == pacing_slots_total_;
  emit_paced_chunk(pacing_slot_bytes_[index], last_slot);
  if (index == 0 && bytes_in_flight() > 0) arm_retransmit();
  if (!last_slot) return;

  pacing_active_ = false;
  // The flight is out. A trailing FIN rides its own segment (without
  // re-arming the RTO: the timer from slot 0 already covers everything
  // unacked); residual window-limited data waits for the next ACK.
  if (fin_pending_ && !fin_sent_ && unsent_bytes() == 0) {
    emit_segment(snd_nxt_, {}, net::kFin | net::kAck);
    fin_sent_ = true;
    snd_nxt_ += 1;
    state_ =
        state_ == TcpState::CloseWait ? TcpState::LastAck : TcpState::FinWait1;
  }
}

void TcpConnection::emit_paced_chunk(std::uint32_t chunk_bytes, bool last_slot) {
  const std::uint32_t unsent = unsent_bytes();
  const std::uint32_t window = send_window();
  const std::uint32_t in_flight = bytes_in_flight();
  const std::uint32_t room = in_flight >= window ? 0 : window - in_flight;
  const std::uint32_t chunk = std::min({chunk_bytes, unsent, room});
  if (chunk == 0) return;
  const std::uint32_t offset = seq_diff(snd_nxt_, buffer_start_seq_);
  const auto payload =
      std::span<const std::uint8_t>(buffer_).subspan(offset, chunk);
  std::uint8_t flags = net::kAck;
  if (last_slot || chunk == unsent) flags |= net::kPsh;
  emit_segment(snd_nxt_, payload, flags);
  stats_.bytes_sent += chunk;
  snd_nxt_ += chunk;
}

void TcpConnection::cancel_pacing() {
  for (auto& id : pacing_events_) {
    loop_.cancel(id);
    id = sim::kNullEvent;
  }
  pacing_active_ = false;
}

void TcpConnection::emit_segment(std::uint32_t seq,
                                 std::span<const std::uint8_t> payload,
                                 std::uint8_t flags) {
  net::TcpHeader tcp;
  tcp.src_port = local_port_;
  tcp.dst_port = remote_port_;
  tcp.seq = seq;
  tcp.ack = (flags & net::kAck) ? rcv_nxt_ : 0;
  tcp.flags = flags;
  tcp.window = kAdvertisedWindow;
  ++stats_.segments_sent;
  send_fn_({ip_header(), tcp, payload});
}

net::Ipv4Header TcpConnection::ip_header() const noexcept {
  net::Ipv4Header ip;
  ip.src = local_addr_;
  ip.dst = remote_addr_;
  ip.ttl = 64;
  ip.dont_fragment = true;
  return ip;
}

void TcpConnection::send_pure_ack() {
  emit_segment(snd_nxt_, {}, net::kAck);
}

void TcpConnection::send_syn_ack() {
  net::TcpHeader tcp;
  tcp.src_port = local_port_;
  tcp.dst_port = remote_port_;
  tcp.seq = iss_;
  tcp.ack = rcv_nxt_;
  tcp.flags = net::kSyn | net::kAck;
  tcp.window = kAdvertisedWindow;
  tcp.mss = config_.own_mss_limit;
  ++stats_.segments_sent;
  send_fn_({ip_header(), tcp, {}});
}

void TcpConnection::send_rst(std::uint32_t seq) {
  emit_segment(seq, {}, net::kRst | net::kAck);
}

void TcpConnection::arm_retransmit() {
  loop_.cancel(retx_event_);
  retx_event_ = loop_.schedule(rto_, [this] { on_retransmit_timeout(); });
}

void TcpConnection::on_retransmit_timeout() {
  retx_event_ = sim::kNullEvent;
  if (state_ == TcpState::Closed) return;
  if (pacing_active_) cancel_pacing();  // the RTO path owns transmission now
  if (++retx_count_ > kMaxRetransmits) {
    enter_closed();
    return;
  }

  if (state_ == TcpState::SynReceived) {
    send_syn_ack();
  } else if (bytes_in_flight() > 0) {
    // Retransmit only the first unacknowledged segment (classic RTO
    // behaviour — exactly what the scanner waits for, Fig. 1).
    const std::uint32_t sent_data_end = snd_nxt_ - (fin_sent_ ? 1 : 0);
    if (seq_lt(snd_una_, sent_data_end)) {
      const std::uint32_t offset = seq_diff(snd_una_, buffer_start_seq_);
      const std::uint32_t available = seq_diff(sent_data_end, snd_una_);
      const std::uint32_t len = std::min<std::uint32_t>({mss_, available});
      const auto payload =
          std::span<const std::uint8_t>(buffer_).subspan(offset, len);
      std::uint8_t flags = net::kAck;
      const bool covers_fin = fin_sent_ && snd_una_ + len == sent_data_end;
      if (covers_fin) flags |= net::kFin | net::kPsh;
      emit_segment(snd_una_, payload, flags);
    } else if (fin_sent_) {
      emit_segment(snd_una_, {}, net::kFin | net::kAck);
    }
  } else {
    return;  // nothing outstanding; timer was stale
  }

  rto_ *= 2;
  arm_retransmit();
}

void TcpConnection::touch_idle_timer() {
  loop_.cancel(idle_event_);
  idle_event_ = loop_.schedule(kIdleTimeout, [this] { on_idle_timeout(); });
}

void TcpConnection::on_idle_timeout() {
  idle_event_ = sim::kNullEvent;
  enter_closed();
}

void TcpConnection::enter_closed() {
  if (state_ == TcpState::Closed) return;
  state_ = TcpState::Closed;
  cancel_pacing();
  loop_.cancel(retx_event_);
  retx_event_ = sim::kNullEvent;
  loop_.cancel(idle_event_);
  idle_event_ = sim::kNullEvent;
  if (on_closed_) {
    // May destroy *this; nothing may run afterwards.
    on_closed_(*this);
  }
}

}  // namespace iwscan::tcp
