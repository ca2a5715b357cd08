// Multi-probe host sessions: 3-probe agreement, dual-MSS byte-limit
// detection, redirect and long-URI escalation (§3.2, §4).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/host_prober.hpp"
#include "testbed.hpp"
#include "util/bytes.hpp"

namespace iwscan {
namespace {

using test::Testbed;

core::IwScanConfig http_config() {
  core::IwScanConfig config;
  config.protocol = core::ProbeProtocol::Http;
  config.port = 80;
  return config;
}

core::IwScanConfig tls_config() {
  core::IwScanConfig config;
  config.protocol = core::ProbeProtocol::Tls;
  config.port = 443;
  return config;
}

tcp::StackConfig stack_with_iw(std::uint32_t segments,
                               tcp::OsProfile os = tcp::OsProfile::Linux) {
  tcp::StackConfig stack;
  stack.os = os;
  stack.iw = tcp::IwConfig::segments_of(segments);
  return stack;
}

http::WebConfig big_page(std::size_t bytes) {
  http::WebConfig web;
  web.root = http::RootBehavior::Page;
  web.page_size = bytes;
  return web;
}

TEST(HostProber, SuccessWithAgreementAcrossSixProbes) {
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 1};
  bed.add_http_host(host, stack_with_iw(10), big_page(16'000));

  const auto record = bed.probe_host(host, http_config());
  EXPECT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_EQ(record.iw_segments, 10u);
  EXPECT_EQ(record.probes_run, 6);  // 3 probes × 2 MSS values
  EXPECT_EQ(record.iw_segments_b, 10u) << "segment-based IW is MSS-invariant";
}

TEST(HostProber, ByteLimitedHostDetectedViaDualMss) {
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 2};
  tcp::StackConfig stack;
  stack.iw = tcp::IwConfig::bytes_of(4096);
  bed.add_http_host(host, stack, big_page(12'000));

  const auto record = bed.probe_host(host, http_config());
  ASSERT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_EQ(record.iw_segments, 64u);
  EXPECT_EQ(record.iw_segments_b, 32u);
  EXPECT_TRUE(record.byte_limited());
}

TEST(HostProber, SegmentHostIsNotByteLimited) {
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 3};
  bed.add_http_host(host, stack_with_iw(4), big_page(8'000));

  const auto record = bed.probe_host(host, http_config());
  ASSERT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_FALSE(record.byte_limited());
}

TEST(HostProber, RedirectIsFollowedToSuccess) {
  // "/" answers 301 with a Location; the follow-up connection fetches the
  // large canonical page and fills the IW.
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 4};
  http::WebConfig web;
  web.root = http::RootBehavior::RedirectToName;
  web.canonical_name = "www.redirect-target.test";
  web.redirected_page_size = 16'000;
  bed.add_http_host(host, stack_with_iw(10), web);

  const auto record = bed.probe_host(host, http_config());
  EXPECT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_EQ(record.iw_segments, 10u);
  EXPECT_GT(record.connections_used, 6)
      << "each probe needs the redirect follow-up connection";
}

TEST(HostProber, LongUriBloatsEchoingErrorPages) {
  // 404-echo host: "/" yields a tiny 404, but the bloated URI inflates the
  // error response beyond the IW (§3.2).
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 5};
  http::WebConfig web;
  web.root = http::RootBehavior::NotFoundEcho;
  bed.add_http_host(host, stack_with_iw(10), web);

  const auto record = bed.probe_host(host, http_config());
  EXPECT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_EQ(record.iw_segments, 10u);
}

TEST(HostProber, NonEchoing404StaysFewData) {
  // The "Akamai change": when the error page stops echoing the URI, the
  // host can no longer be pushed to success.
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 6};
  http::WebConfig web;
  web.root = http::RootBehavior::VirtualHosted;  // IP Host → short 404
  bed.add_http_host(host, stack_with_iw(10), web);

  const auto record = bed.probe_host(host, http_config());
  EXPECT_EQ(record.outcome, core::HostOutcome::FewData);
  EXPECT_GE(record.lower_bound, 1u);
  EXPECT_LE(record.lower_bound, 10u);
}

TEST(HostProber, HttpRequestShape) {
  // §3.2: the first request names the IP as Host, identifies the scan in
  // its User-Agent and asks the server to close (its FIN then marks an
  // unfilled IW); a non-echoing 404 triggers the long-URI retry.
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 11};
  http::WebConfig web;
  web.root = http::RootBehavior::VirtualHosted;  // IP Host → short 404
  bed.add_http_host(host, stack_with_iw(10), web);
  std::vector<net::TcpSegment> wire;
  bed.tap_segments(wire);

  core::IwScanConfig config = http_config();
  config.probes_per_mss = 1;
  config.mss_secondary = 0;
  const auto record = bed.probe_host(host, config);
  ASSERT_EQ(record.connections_used, 2);

  std::vector<std::string> requests;
  for (const auto& segment : wire) {
    if (segment.ip.src == test::kScannerIp && !segment.payload.empty()) {
      requests.emplace_back(util::as_text(segment.payload));
    }
  }
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0],
            "GET / HTTP/1.1\r\n"
            "Host: 10.1.0.11\r\n"
            "User-Agent: iwscan/1.0 (+https://iw.example.net/research)\r\n"
            "Accept: */*\r\n"
            "Connection: close\r\n\r\n");
  ASSERT_TRUE(requests[1].starts_with("GET /"));
  const std::size_t path_end = requests[1].find(" HTTP/1.1\r\n");
  ASSERT_NE(path_end, std::string::npos);
  EXPECT_EQ(path_end - 4, 1300u) << "long-URI path length";
  EXPECT_NE(requests[1].find("\r\nHost: 10.1.0.11\r\n"), std::string::npos);
}

TEST(HostProber, TlsRequestMatchesPinnedBytes) {
  // §3.3's probe on the wire: one handshake record (TLS 1.0 record version)
  // carrying a TLS 1.2 ClientHello with the 40-suite probe list, the null
  // compression method, the OCSP status request and, in curated mode, the
  // SNI. Each record is pinned by its length and FNV-1a digest, as the
  // composed encoders (a ClientHello body, a handshake frame, a record
  // fragmenter) wrote it.
  struct Pin {
    std::string_view server_name;
    std::size_t length;
    std::uint64_t digest;
  };
  static constexpr Pin kPins[] = {
      {"", 177, 0x3e706ff5629427c5ULL},
      {"www.example.net", 201, 0x0377b3e449d56d48ULL},
  };
  for (const Pin& pin : kPins) {
    const net::Bytes wire = core::client_hello(0x5eed, pin.server_name);
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const std::uint8_t byte : wire) digest = (digest ^ byte) * 0x100000001b3ULL;
    EXPECT_EQ(wire.size(), pin.length) << "SNI '" << pin.server_name << "'";
    EXPECT_EQ(digest, pin.digest) << "SNI '" << pin.server_name << "'";
  }
}

/// Every payload the scanner put on the wire while probing one host (the
/// six requests or ClientHellos of a full session), folded to a digest.
struct WirePayloads {
  std::size_t count = 0;
  std::size_t bytes = 0;
  std::uint64_t digest = 0;
};

WirePayloads probe_payloads(bool tls, const std::string& curated_host,
                            http::RootBehavior root, core::HostOutcome expected) {
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 12};
  if (tls) {
    tls::TlsConfig config;
    config.chain_bytes = 3'000;
    bed.add_tls_host(host, stack_with_iw(4), config);
  } else {
    http::WebConfig web = big_page(16'000);
    web.root = root;
    web.canonical_name = "www.redirect-target.test";
    web.redirected_page_size = 16'000;
    bed.add_http_host(host, stack_with_iw(10), web);
  }
  std::vector<net::TcpSegment> wire;
  bed.tap_segments(wire);
  core::IwScanConfig config = tls ? tls_config() : http_config();
  config.curated_host = curated_host;
  const auto record = bed.probe_host(host, config);
  EXPECT_EQ(record.outcome, expected);

  WirePayloads out;
  std::string all;
  for (const auto& segment : wire) {
    if (segment.ip.src == test::kScannerIp && !segment.payload.empty()) {
      ++out.count;
      out.bytes += segment.payload.size();
      all += util::as_text(segment.payload);
    }
  }
  out.digest = util::hash_seed(all);
  return out;
}

TEST(HostProber, RequestBytesArePinned) {
  // The probe builds its request only when the target answers; the bytes
  // it sends are pinned to those of the prober that built its request plan
  // at launch, for HTTP and TLS, each with and without curated mode (the
  // ClientHello random comes from the per-probe seed draw). Two more HTTP
  // rows pin the follow-ups: each probe's request after a 301 (Host is the
  // canonical name) and a non-echoing 404's long-URI retries.
  using Root = http::RootBehavior;
  using Outcome = core::HostOutcome;
  struct Case {
    bool tls;
    std::string curated_host;
    Root root;
    Outcome outcome;
    WirePayloads expected;
  };
  const Case cases[] = {
      {false, "", Root::Page, Outcome::Success, {6, 756, 0x973a5b3c444a0cbeULL}},
      {false, "www.example.net", Root::Page, Outcome::Success,
       {6, 696, 0xfa6aaf48d7171e75ULL}},
      {true, "", Root::Page, Outcome::Success, {6, 1062, 0x8e78734e4f3091bfULL}},
      {true, "www.example.net", Root::Page, Outcome::Success,
       {6, 1206, 0xff077d92a6f0d88bULL}},
      {false, "", Root::RedirectToName, Outcome::Success, {12, 1602, 0xb1b55f0baedbab85ULL}},
      {false, "", Root::VirtualHosted, Outcome::FewData, {12, 9306, 0x7dbb2978a93e8681ULL}},
  };
  for (const Case& c : cases) {
    const WirePayloads got = probe_payloads(c.tls, c.curated_host, c.root, c.outcome);
    const auto row = ::testing::Message()
                     << c.tls << " '" << c.curated_host << "' root "
                     << static_cast<int>(c.root);
    EXPECT_EQ(got.count, c.expected.count) << row;
    EXPECT_EQ(got.bytes, c.expected.bytes) << row;
    EXPECT_EQ(got.digest, c.expected.digest) << row;
  }
}

TEST(HostProber, UnreachableHostShortCircuits) {
  Testbed bed;
  const auto record = bed.probe_host(net::IPv4Address{10, 1, 0, 7}, http_config());
  EXPECT_EQ(record.outcome, core::HostOutcome::Unreachable);
  EXPECT_EQ(record.probes_run, 1) << "no point probing a dead host six times";
}

TEST(HostProber, AbortingHostIsError) {
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 8};
  // An HTTP host that resets every connection as soon as data arrives.
  class AbortApp final : public tcp::Application {
   public:
    void on_data(tcp::TcpConnection& conn, std::span<const std::uint8_t>) override {
      conn.abort();
    }
  };
  auto host_obj = std::make_unique<tcp::TcpHost>(bed.network(), host,
                                                 stack_with_iw(10), 7);
  host_obj->listen(80, [](net::IPv4Address, std::uint16_t) {
    return std::make_unique<AbortApp>();
  });
  bed.network().attach(host, host_obj.get());

  const auto record = bed.probe_host(host, http_config());
  EXPECT_EQ(record.outcome, core::HostOutcome::Error);
  bed.network().detach(host);
}

TEST(HostProber, TlsHostEndToEnd) {
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 9};
  tls::TlsConfig config;
  config.chain_bytes = 3'000;
  bed.add_tls_host(host, stack_with_iw(4), config);

  const auto record = bed.probe_host(host, tls_config());
  ASSERT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_EQ(record.iw_segments, 4u);
  EXPECT_EQ(record.iw_segments_b, 4u);
}

TEST(HostProber, TailLossIsAbsorbedByMaximumRule) {
  // With moderate loss, individual probes may underestimate; the ≥2-of-3 +
  // maximum rule should still usually recover IW 10 or fail gracefully —
  // and must never report > 10.
  int successes = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Testbed bed(1000 + static_cast<std::uint64_t>(trial));
    const net::IPv4Address host{10, 1, 1, static_cast<std::uint8_t>(trial + 1)};
    bed.add_http_host(host, stack_with_iw(10), big_page(16'000));
    sim::PathConfig path = bed.network().default_path();
    path.loss_rate = 0.03;
    bed.network().set_path(host, path);

    const auto record = bed.probe_host(host, http_config());
    if (record.outcome == core::HostOutcome::Success) {
      ++successes;
      EXPECT_LE(record.iw_segments, 10u);
    }
  }
  EXPECT_GE(successes, 7) << "3% loss should rarely defeat the 3-probe rule";
}

TEST(HostProber, SingleMssModeSkipsSecondPass) {
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 10};
  bed.add_http_host(host, stack_with_iw(10), big_page(16'000));

  core::IwScanConfig config = http_config();
  config.mss_secondary = 0;
  const auto record = bed.probe_host(host, config);
  EXPECT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_EQ(record.probes_run, 3);
  EXPECT_EQ(record.iw_segments_b, 0u);
}

}  // namespace
}  // namespace iwscan
