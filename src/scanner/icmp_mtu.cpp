#include "scanner/icmp_mtu.hpp"

namespace iwscan::scan {
namespace {

constexpr std::uint32_t kInitialMtu = 1500;  // the first probe's size
constexpr std::uint32_t kMinMtu = 68;        // RFC 791 minimum
constexpr sim::SimTime kTimeout = sim::sec(5);
constexpr int kMaxProbes = 8;

class MtuSession final : public ProbeSession {
 public:
  MtuSession(SessionServices& services, net::IPv4Address target,
             IcmpMtuModule::ResultFn* on_result, std::function<void()> finish)
      : services_(services),
        target_(target),
        on_result_(on_result),
        finish_(std::move(finish)) {}

  ~MtuSession() override { services_.loop().cancel(timeout_event_); }

  void start() override {
    echo_id_ = static_cast<std::uint16_t>(services_.session_seed(target_));
    probe(kInitialMtu);
  }

  void on_datagram(const net::Datagram& datagram) override {
    if (finished_) return;
    const auto* icmp = std::get_if<net::IcmpDatagram>(&datagram);
    if (icmp == nullptr) return;

    if (icmp->icmp.type == net::IcmpType::EchoReply &&
        icmp->icmp.id_or_unused == echo_id_) {
      // The probe at `current_mtu_` traversed the path whole.
      conclude(true, current_mtu_);
      return;
    }
    if (icmp->icmp.type == net::IcmpType::DestinationUnreachable &&
        icmp->icmp.code == net::kIcmpFragNeeded) {
      const std::uint32_t next_hop = icmp->icmp.seq_or_mtu;
      if (next_hop >= kMinMtu && next_hop < current_mtu_ &&
          probes_sent_ < kMaxProbes) {
        probe(next_hop);  // confirm the advertised MTU end-to-end
      } else {
        conclude(false, 0);
      }
    }
  }

 private:
  void probe(std::uint32_t mtu) {
    current_mtu_ = mtu;
    ++probes_sent_;

    net::IcmpDatagram echo;
    echo.ip.src = services_.scanner_address();
    echo.ip.dst = target_;
    echo.ip.ttl = 64;
    echo.ip.dont_fragment = true;
    echo.icmp.type = net::IcmpType::Echo;
    echo.icmp.code = 0;
    echo.icmp.id_or_unused = echo_id_;
    echo.icmp.seq_or_mtu = static_cast<std::uint16_t>(probes_sent_);
    // Pad so the datagram is exactly `mtu` bytes: 20 IP + 8 ICMP + payload.
    const net::Bytes pad(mtu > 28 ? mtu - 28 : 0, 0x5a);
    echo.icmp.payload = pad;
    services_.send_packet(echo);

    services_.loop().cancel(timeout_event_);
    timeout_event_ = services_.loop().schedule(kTimeout, [this] {
      timeout_event_ = sim::kNullEvent;
      conclude(false, 0);
    });
  }

  void conclude(bool responded, std::uint32_t mtu) {
    if (finished_) return;
    finished_ = true;
    services_.loop().cancel(timeout_event_);
    timeout_event_ = sim::kNullEvent;
    if (*on_result_) (*on_result_)(MtuProbeResult{target_, responded, mtu});
    finish_();  // may destroy *this
  }

  SessionServices& services_;
  net::IPv4Address target_;
  IcmpMtuModule::ResultFn* on_result_;
  std::function<void()> finish_;
  std::uint16_t echo_id_ = 0;
  std::uint32_t current_mtu_ = 0;
  int probes_sent_ = 0;
  sim::EventId timeout_event_ = sim::kNullEvent;
  bool finished_ = false;
};

}  // namespace

std::unique_ptr<ProbeSession> IcmpMtuModule::create_session(
    SessionServices& services, net::IPv4Address target, std::function<void()> finish) {
  return std::make_unique<MtuSession>(services, target, &on_result_, std::move(finish));
}

}  // namespace iwscan::scan
