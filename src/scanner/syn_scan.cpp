#include "scanner/syn_scan.hpp"

namespace iwscan::scan {
namespace {

class SynSession final : public ProbeSession {
 public:
  SynSession(SessionServices& services, net::IPv4Address target, std::uint16_t port,
             SynScanModule::ResultFn* on_result, std::function<void()> finish)
      : services_(services),
        target_(target),
        port_(port),
        on_result_(on_result),
        finish_(std::move(finish)) {}

  ~SynSession() override { services_.loop().cancel(timeout_event_); }

  void start() override {
    source_port_ = services_.allocate_port(target_);
    isn_ = static_cast<std::uint32_t>(services_.session_seed(target_));

    net::TcpSegment syn;
    syn.ip.src = services_.scanner_address();
    syn.ip.dst = target_;
    syn.ip.ttl = 64;
    syn.ip.dont_fragment = true;
    syn.tcp.src_port = source_port_;
    syn.tcp.dst_port = port_;
    syn.tcp.seq = isn_;
    syn.tcp.flags = net::kSyn;
    syn.tcp.window = 65535;
    services_.send_packet(syn);

    timeout_event_ = services_.loop().schedule(SynScanModule::kTimeout, [this] {
      timeout_event_ = sim::kNullEvent;
      conclude(PortState::Unresponsive);
    });
  }

  void on_datagram(const net::Datagram& datagram) override {
    if (finished_) return;
    const auto* segment = std::get_if<net::TcpSegment>(&datagram);
    if (segment == nullptr) return;
    if (segment->tcp.dst_port != source_port_ ||
        segment->tcp.src_port != port_) {
      return;
    }
    if (segment->tcp.has(net::kRst)) {
      conclude(PortState::Closed);
      return;
    }
    if (segment->tcp.has(net::kSyn) && segment->tcp.has(net::kAck) &&
        segment->tcp.ack == isn_ + 1) {
      // Reset the half-open connection, exactly like ZMap's TCP module.
      net::TcpSegment rst;
      rst.ip.src = services_.scanner_address();
      rst.ip.dst = target_;
      rst.ip.ttl = 64;
      rst.tcp.src_port = source_port_;
      rst.tcp.dst_port = port_;
      rst.tcp.seq = isn_ + 1;
      rst.tcp.flags = net::kRst;
      services_.send_packet(rst);
      conclude(PortState::Open);
    }
  }

 private:
  void conclude(PortState state) {
    if (finished_) return;
    finished_ = true;
    services_.loop().cancel(timeout_event_);
    timeout_event_ = sim::kNullEvent;
    if (*on_result_) (*on_result_)(SynScanResult{target_, state});
    finish_();  // may destroy *this (via the engine graveyard); return now
  }

  SessionServices& services_;
  net::IPv4Address target_;
  std::uint16_t port_;
  SynScanModule::ResultFn* on_result_;
  std::function<void()> finish_;
  std::uint16_t source_port_ = 0;
  std::uint32_t isn_ = 0;
  sim::EventId timeout_event_ = sim::kNullEvent;
  bool finished_ = false;
};

}  // namespace

std::unique_ptr<ProbeSession> SynScanModule::create_session(
    SessionServices& services, net::IPv4Address target, std::function<void()> finish) {
  return std::make_unique<SynSession>(services, target, port_, &on_result_,
                                      std::move(finish));
}

}  // namespace iwscan::scan
