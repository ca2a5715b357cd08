// Server-side TCP connection (RFC 793 subset + RFC 5681 slow start).
//
// This models the probed host's sender behaviour, which is everything the
// IW-inference method observes: SYN/ACK with its own MSS, an initial
// congestion window per IwConfig, slow-start growth on ACKs, RTO-driven
// retransmission of the first unacked segment, FIN only once the send
// buffer drained, and RST/idle-abort edge cases.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "netbase/packet.hpp"
#include "netsim/event_loop.hpp"
#include "tcpstack/config.hpp"
#include "util/bytes.hpp"

namespace iwscan::tcp {

class TcpConnection;

/// Per-connection application protocol handler (HTTP or TLS server logic).
class Application {
 public:
  virtual ~Application() = default;
  /// In-order payload bytes arrived.
  virtual void on_data(TcpConnection& conn, std::span<const std::uint8_t> data) = 0;
};

enum class TcpState {
  SynReceived,
  Established,
  FinWait1,   // our FIN sent, not yet acked
  FinWait2,   // our FIN acked, peer still open
  CloseWait,  // peer FIN received, app not yet closed
  LastAck,    // peer FIN received and our FIN sent
  Closed,
};

struct ConnectionStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t bytes_sent = 0;  // payload bytes, first transmissions only
};

class TcpConnection {
 public:
  // What every simulated stack shares: the receive window it advertises,
  // its retransmission timer (Linux's 1 s initial RTO, doubled per timeout,
  // and the retries before it aborts) and the silence after which it drops
  // a connection. Against a silent peer the first flight is retransmitted
  // 1, 3, 7 and 15 s after it went out; the next retransmission would be
  // due at 31 s, but the idle timer closes the connection at 30 s first.
  // Retries run out (kMaxRetransmits + 1 timeouts, the last at 63 s) only
  // when the peer keeps talking without acknowledging anything new.
  static constexpr std::uint16_t kAdvertisedWindow = 65535;
  static constexpr sim::SimTime kInitialRto = sim::sec(1);
  static constexpr int kMaxRetransmits = 5;
  static constexpr sim::SimTime kIdleTimeout = sim::sec(30);

  /// Transmits one segment, whose payload is borrowed from the send buffer
  /// for the duration of the call.
  using SendFn = std::function<void(const net::TcpSegment&)>;
  using ClosedFn = std::function<void(TcpConnection&)>;

  /// Constructed by TcpHost in response to a SYN; sends the SYN/ACK.
  TcpConnection(sim::EventLoop& loop, const StackConfig& config,
                net::IPv4Address local_addr, std::uint16_t local_port,
                net::IPv4Address remote_addr, std::uint16_t remote_port,
                const net::TcpSegment& syn, std::uint32_t initial_seq,
                std::unique_ptr<Application> app, SendFn send, ClosedFn on_closed);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Segment addressed to this connection.
  void on_segment(const net::TcpSegment& segment);

  // --- Application API -----------------------------------------------
  /// Queue response bytes; transmission is governed by cwnd/rwnd.
  void send(std::span<const std::uint8_t> data);
  void send(std::string_view text) { send(util::as_bytes(text)); }
  /// Like send(span), for a response built whole: it becomes the send
  /// buffer without a copy when that is empty, and is appended otherwise.
  void send(net::Bytes&& data);
  /// Half-close after all queued data: FIN goes out once the buffer drains.
  void close();
  /// Abort with RST.
  void abort();
  /// Swap the initial-window policy before any payload has been sent — the
  /// per-vhost hook (same IP, different Host/SNI → different IwConfig).
  /// A no-op once the first flight started or the connection closed.
  void set_initial_window(const IwConfig& iw);

  // --- Introspection --------------------------------------------------
  [[nodiscard]] TcpState state() const noexcept { return state_; }
  [[nodiscard]] std::uint16_t mss() const noexcept { return mss_; }
  [[nodiscard]] std::uint32_t cwnd() const noexcept { return cwnd_; }
  [[nodiscard]] std::uint32_t bytes_in_flight() const noexcept;
  [[nodiscard]] net::IPv4Address remote_addr() const noexcept { return remote_addr_; }
  [[nodiscard]] std::uint16_t remote_port() const noexcept { return remote_port_; }
  [[nodiscard]] std::uint16_t local_port() const noexcept { return local_port_; }
  [[nodiscard]] sim::EventLoop& loop() noexcept { return loop_; }

 private:
  void handle_ack(const net::TcpSegment& segment);
  void handle_payload(const net::TcpSegment& segment);
  void try_send();
  void start_paced_first_flight();
  void on_pacing_slot(std::size_t index);
  void emit_paced_chunk(std::uint32_t chunk_bytes, bool last_slot);
  void cancel_pacing();
  void emit_segment(std::uint32_t seq, std::span<const std::uint8_t> payload,
                    std::uint8_t flags);
  [[nodiscard]] net::Ipv4Header ip_header() const noexcept;
  void send_pure_ack();
  void send_syn_ack();
  void send_rst(std::uint32_t seq);
  void arm_retransmit();
  void on_retransmit_timeout();
  void touch_idle_timer();
  void on_idle_timeout();
  void enter_closed();
  [[nodiscard]] std::uint32_t unsent_bytes() const noexcept;
  [[nodiscard]] std::uint32_t send_window() const noexcept;

  sim::EventLoop& loop_;
  StackConfig config_;
  net::IPv4Address local_addr_;
  std::uint16_t local_port_;
  net::IPv4Address remote_addr_;
  std::uint16_t remote_port_;
  std::unique_ptr<Application> app_;
  SendFn send_fn_;
  ClosedFn on_closed_;

  TcpState state_ = TcpState::SynReceived;
  std::uint16_t mss_ = 536;             // effective segment size toward peer

  // Send side.
  std::uint32_t iss_ = 0;       // our initial sequence number
  std::uint32_t snd_una_ = 0;   // oldest unacknowledged sequence
  std::uint32_t snd_nxt_ = 0;   // next sequence to send (incl. FIN if sent)
  std::uint32_t cwnd_ = 0;      // congestion window, bytes
  std::uint32_t rwnd_ = 0;      // peer-advertised receive window
  net::Bytes buffer_;           // unacked + unsent payload bytes
  std::uint32_t buffer_start_seq_ = 0;  // seq of buffer_[0]
  bool fin_pending_ = false;    // app called close()
  bool fin_sent_ = false;
  // True while processing an incoming segment: app-initiated send()/close()
  // defer transmission so FIN can coalesce with the last data segment.
  bool in_segment_processing_ = false;

  // Receive side.
  std::uint32_t irs_ = 0;      // peer initial sequence number
  std::uint32_t rcv_nxt_ = 0;  // next expected peer sequence

  // Timers.
  sim::EventId retx_event_ = sim::kNullEvent;
  sim::EventId idle_event_ = sim::kNullEvent;
  sim::SimTime rto_{};
  int retx_count_ = 0;

  // First-flight pacing (PacingMode::Paced). The handshake RTT is measured
  // SYN/ACK → handshake ACK; slot timers release the initial window over
  // the schedule from build_pacing_schedule(). A data ACK or an RTO cancels
  // the remaining slots (the window is then governed by slow start / the
  // retransmit path as usual).
  sim::SimTime synack_sent_at_{};
  sim::SimTime handshake_rtt_{};
  std::vector<sim::EventId> pacing_events_;
  std::vector<std::uint32_t> pacing_slot_bytes_;
  std::size_t pacing_slots_total_ = 0;
  bool pacing_active_ = false;
  bool first_flight_started_ = false;

  ConnectionStats stats_;
};

}  // namespace iwscan::tcp
