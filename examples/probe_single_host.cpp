// Probe a single, explicitly-configured host and trace the Figure-1
// conversation on the wire: the scan's SYN with its small MSS, the
// server's IW burst, the RTO retransmission that ends it, and the
// ACK-release verification.
//
//   $ ./build/examples/probe_single_host --iw 10 --os windows --page 16000
//
// Useful as an operator tool: configure your server model the way your
// production host is configured and check what a scanner would measure.
#include <cstdio>
#include <fstream>

#include "core/estimator.hpp"
#include "httpd/http_server.hpp"
#include "netsim/capture.hpp"
#include "netsim/network.hpp"
#include "scanner/scan_engine.hpp"
#include "tcpstack/host.hpp"
#include "util/bytes.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

namespace {

using namespace iwscan;

/// SessionServices bound directly to the network, with a packet tracer.
class TracingServices final : public scan::SessionServices, public sim::Endpoint {
 public:
  TracingServices(sim::Network& network, net::IPv4Address self)
      : network_(network), self_(self) {
    network_.attach(self_, this);
  }
  ~TracingServices() override { network_.detach(self_); }

  void set_handler(std::function<void(const net::Datagram&)> handler) {
    handler_ = std::move(handler);
  }

  void handle_packet(net::PacketView bytes) override {
    const auto datagram = net::decode_datagram(bytes);
    if (!datagram) return;
    if (const auto* segment = std::get_if<net::TcpSegment>(&*datagram)) {
      trace("<-", *segment);
    }
    if (handler_) handler_(*datagram);
  }

  void send_packet(net::Bytes bytes) override {
    if (const auto datagram = net::decode_datagram(bytes)) {
      if (const auto* segment = std::get_if<net::TcpSegment>(&*datagram)) {
        trace("->", *segment);
      }
    }
    network_.send(std::move(bytes));
  }

  sim::EventLoop& loop() override { return network_.loop(); }
  net::IPv4Address scanner_address() const override { return self_; }
  std::uint16_t allocate_port(net::IPv4Address) override { return port_++; }
  std::uint64_t session_seed(net::IPv4Address) override { return seed_ += 7919; }

 private:
  void trace(const char* direction, const net::TcpSegment& segment) {
    std::string flags;
    if (segment.tcp.has(net::kSyn)) flags += "SYN ";
    if (segment.tcp.has(net::kAck)) flags += "ACK ";
    if (segment.tcp.has(net::kFin)) flags += "FIN ";
    if (segment.tcp.has(net::kRst)) flags += "RST ";
    if (segment.tcp.has(net::kPsh)) flags += "PSH ";
    std::printf("%8.3f ms %s %-18s seq=%-10u ack=%-10u win=%-5u len=%zu",
                std::chrono::duration<double, std::milli>(loop().now()).count(),
                direction, flags.c_str(), segment.tcp.seq, segment.tcp.ack,
                segment.tcp.window, segment.payload.size());
    if (segment.tcp.mss) std::printf(" mss=%u", *segment.tcp.mss);
    std::printf("\n");
  }

  sim::Network& network_;
  net::IPv4Address self_;
  std::function<void(const net::Datagram&)> handler_;
  std::uint16_t port_ = 40000;
  std::uint64_t seed_ = 1;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define_u64("iw", 10, "initial window of the host under test (segments)");
  flags.define_u64("iw-bytes", 0, "byte-counted IW (overrides --iw when set)");
  flags.define_string("os", "linux", "MSS-clamping profile: linux | windows");
  flags.define_u64("page", 16'000, "response body size in bytes");
  flags.define_u64("mss", 64, "MSS announced by the scanner");
  flags.define_string("pcap", "", "also write the conversation to this .pcap file");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(), flags.usage(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage(argv[0]).c_str());
    return 0;
  }

  sim::EventLoop loop;
  sim::Network network(loop, 1);
  sim::PathConfig path;
  path.latency = sim::msec(20);
  network.set_default_path(path);

  sim::PacketCapture capture;
  if (!flags.str("pcap").empty()) capture.attach(network);

  // The host under test.
  tcp::StackConfig stack;
  stack.os = util::iequals(flags.str("os"), "windows") ? tcp::OsProfile::Windows
                                                       : tcp::OsProfile::Linux;
  stack.iw = flags.u64("iw-bytes") > 0
                 ? tcp::IwConfig::bytes_of(static_cast<std::uint32_t>(flags.u64("iw-bytes")))
                 : tcp::IwConfig::segments_of(static_cast<std::uint32_t>(flags.u64("iw")));
  const net::IPv4Address host_ip{10, 0, 0, 1};
  tcp::TcpHost host(network, host_ip, stack, 42);
  http::WebConfig web;
  web.page_size = flags.u64("page");
  host.listen(80, http::HttpServerApp::factory(web));
  network.attach(host_ip, &host);

  // One estimation connection, traced.
  TracingServices services(network, net::IPv4Address{192, 0, 2, 1});
  const auto announced_mss = static_cast<std::uint16_t>(flags.u64("mss"));

  std::printf("probing 10.0.0.1:80 — announced MSS %u, host IW %s, OS %s\n\n",
              announced_mss,
              stack.iw.policy == tcp::IwPolicy::Bytes
                  ? (std::to_string(stack.iw.bytes) + " bytes").c_str()
                  : (std::to_string(stack.iw.segments) + " segments").c_str(),
              flags.str("os").c_str());

  bool done = false;
  core::ConnObservation result;
  core::FixedRequestOwner owner(
      net::to_bytes("GET / HTTP/1.1\r\nHost: 10.0.0.1\r\nConnection: close\r\n\r\n"),
      [&](const core::ConnObservation& observation) {
        result = observation;
        done = true;
      });
  core::IwEstimator estimator(services, host_ip, 80, announced_mss, owner);
  services.set_handler([&](const net::Datagram& d) { estimator.on_datagram(d); });
  estimator.start();
  while (!done && loop.step()) {
  }

  std::printf("\noutcome: %s\n", std::string(to_string(result.outcome)).c_str());
  if (result.outcome == core::ConnOutcome::Success) {
    std::printf("estimated IW: %u segments (%llu bytes, observed MSS %u)\n",
                result.iw_estimate,
                static_cast<unsigned long long>(result.span_bytes),
                result.max_segment);
  } else if (result.outcome == core::ConnOutcome::FewData) {
    std::printf("response ended before the IW filled: lower bound IW >= %u\n",
                result.iw_estimate);
  }

  if (!flags.str("pcap").empty()) {
    const auto pcap = capture.pcap();
    std::ofstream file(flags.str("pcap"), std::ios::binary);
    const std::string_view text = iwscan::util::as_text(pcap);
    file.write(text.data(), static_cast<std::streamsize>(text.size()));
    std::printf("wrote %zu packets to %s (Wireshark-compatible, linktype RAW)\n",
                capture.size(), flags.str("pcap").c_str());
  }
  return 0;
}
