// CDN configuration survey: model the IW configurations the paper found in
// content networks (Cloudflare IW10, Akamai IW4, GoDaddy's static IW48,
// Technicolor-style 4 kB byte IWs) and run the full dual-MSS multi-probe
// methodology against each — including §4.2's byte-limit detection.
//
//   $ ./build/examples/cdn_config_survey
#include <cstdio>

#include "analysis/table_writer.hpp"
#include "core/host_prober.hpp"
#include "httpd/http_server.hpp"
#include "netsim/network.hpp"
#include "scanner/direct_services.hpp"
#include "tcpstack/host.hpp"
#include "tls/tls_server.hpp"

namespace {

using namespace iwscan;

core::HostScanRecord probe(sim::Network& network, net::IPv4Address target,
                           core::ProbeProtocol protocol) {
  scan::DirectServices services(network);
  core::IwScanConfig config;
  config.protocol = protocol;
  config.port = protocol == core::ProbeProtocol::Http ? 80 : 443;
  return core::probe_host(services, target, config);
}

}  // namespace

int main() {
  sim::EventLoop loop;
  sim::Network network(loop, 7);
  sim::PathConfig path;
  path.latency = sim::msec(15);
  network.set_default_path(path);

  struct Vendor {
    const char* name;
    tcp::IwConfig iw;
    tcp::OsProfile os;
  };
  const Vendor vendors[] = {
      {"cloudflare-style IW10", tcp::IwConfig::segments_of(10), tcp::OsProfile::Linux},
      {"akamai-style IW4", tcp::IwConfig::segments_of(4), tcp::OsProfile::Linux},
      {"akamai-custom IW16", tcp::IwConfig::segments_of(16), tcp::OsProfile::Linux},
      {"akamai-custom IW32", tcp::IwConfig::segments_of(32), tcp::OsProfile::Linux},
      {"godaddy-style IW48", tcp::IwConfig::segments_of(48), tcp::OsProfile::Linux},
      {"legacy IW2", tcp::IwConfig::segments_of(2), tcp::OsProfile::Linux},
      {"IIS on Windows IW10", tcp::IwConfig::segments_of(10), tcp::OsProfile::Windows},
      {"technicolor CPE 4kB", tcp::IwConfig::bytes_of(4096), tcp::OsProfile::Linux},
      {"mtu-fill device 1536B", tcp::IwConfig::bytes_of(1536), tcp::OsProfile::Linux},
  };

  std::vector<std::unique_ptr<tcp::TcpHost>> hosts;
  std::vector<net::IPv4Address> addresses;
  for (std::size_t i = 0; i < std::size(vendors); ++i) {
    const net::IPv4Address ip(10, 0, 1, static_cast<std::uint8_t>(i + 1));
    tcp::StackConfig stack;
    stack.os = vendors[i].os;
    stack.iw = vendors[i].iw;
    auto host = std::make_unique<tcp::TcpHost>(network, ip, stack, i);

    http::WebConfig web;
    web.page_size = 64 * 1024;  // large landing page: IW always fills
    host->listen(80, http::HttpServerApp::factory(web));
    tls::TlsConfig tls_config;
    tls_config.chain_bytes = 40 * 1024;  // generous chain for the big IWs
    tls_config.server_name = vendors[i].name;
    host->listen(443, tls::TlsServerApp::factory(tls_config));
    network.attach(ip, host.get());
    hosts.push_back(std::move(host));
    addresses.push_back(ip);
  }

  std::printf("Dual-MSS (64/128) multi-probe survey of modeled vendor configs\n"
              "(methodology of the IMC'17 IW-scanning paper, incl. §4.2\n"
              " byte-limit detection):\n\n");

  analysis::TextTable table({"vendor config", "HTTP IW@64", "HTTP IW@128",
                             "TLS IW@64", "byte-limited?", "observed MSS"});
  for (std::size_t i = 0; i < std::size(vendors); ++i) {
    const auto http = probe(network, addresses[i], core::ProbeProtocol::Http);
    const auto tls = probe(network, addresses[i], core::ProbeProtocol::Tls);
    table.add_row(
        {vendors[i].name,
         http.success() ? std::to_string(http.iw_segments) : "?",
         http.iw_segments_b ? std::to_string(http.iw_segments_b) : "?",
         tls.success() ? std::to_string(tls.iw_segments) : "?",
         http.byte_limited() ? "YES (IW set in bytes)" : "no",
         std::to_string(http.observed_mss)});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nNote the Windows host: it ignores the scanner's 64 B MSS and\n"
              "sends 536 B segments — the estimator normalizes by the observed\n"
              "segment size (§3.1), so the IW in segments is still exact.\n");
  return 0;
}
