// Internet model: registry invariants, ground-truth purity, population
// statistics matching the encoded anchors, and lazy host materialization.
#include <gtest/gtest.h>

#include <map>

#include "inetmodel/censys_certs.hpp"
#include "inetmodel/internet.hpp"
#include "testbed.hpp"
#include "util/rng.hpp"

namespace iwscan::model {
namespace {

// ----------------------------------------------------------- registry ----

TEST(AsRegistry, PrefixesDoNotOverlap) {
  const auto registry = AsRegistry::standard(18);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  for (const auto& as : registry.all()) {
    for (const auto& prefix : as.prefixes) {
      ranges.emplace_back(prefix.first().value(),
                          prefix.first().value() + prefix.size() - 1);
    }
  }
  std::sort(ranges.begin(), ranges.end());
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_GT(ranges[i].first, ranges[i - 1].second) << "overlap at " << i;
  }
}

TEST(AsRegistry, FindIsConsistentWithPrefixes) {
  const auto registry = AsRegistry::standard(18);
  for (const auto& as : registry.all()) {
    for (const auto& prefix : as.prefixes) {
      EXPECT_EQ(registry.find(prefix.first()), &as);
      EXPECT_EQ(registry.find(prefix.at(prefix.size() - 1)), &as);
    }
  }
  EXPECT_EQ(registry.find(net::IPv4Address(1, 1, 1, 1)), nullptr);
  EXPECT_EQ(registry.find(net::IPv4Address(172, 16, 0, 1)), nullptr);
}

TEST(AsRegistry, LookupByName) {
  const auto registry = AsRegistry::standard(18);
  const auto* cloudflare = registry.by_name("Cloudflare");
  ASSERT_NE(cloudflare, nullptr);
  EXPECT_EQ(cloudflare->asn, 13335u);
  EXPECT_EQ(registry.by_name("Akamai")->asn, 20940u);
  EXPECT_EQ(registry.by_name("nope"), nullptr);
}

TEST(AsRegistry, PaperNamedNetworksExist) {
  const auto registry = AsRegistry::standard(18);
  for (const char* name : {"Amazon-EC2", "Cloudflare", "Akamai", "Microsoft-Azure",
                           "GoDaddy", "Comcast", "Telmex", "VodafonIT",
                           "KoreaTelecom", "Nat.Int.Backbone"}) {
    EXPECT_NE(registry.by_name(name), nullptr) << name;
  }
}

TEST(AsRegistry, PopularBlocksOnlyInContentNetworks) {
  const auto registry = AsRegistry::standard(18);
  for (const auto& as : registry.all()) {
    const bool content = as.kind == AsKind::Cloud || as.kind == AsKind::Cdn ||
                         as.kind == AsKind::Hoster;
    EXPECT_EQ(as.popular_prefix.has_value(), content) << as.name;
    if (as.popular_prefix) {
      EXPECT_TRUE(as.prefixes.front().contains(as.popular_prefix->first()));
    }
  }
}

TEST(AsRegistry, ScanSpaceMatchesPrefixSizes) {
  const auto registry = AsRegistry::standard(18);
  const auto space = registry.scan_space();
  std::uint64_t total = 0;
  for (const auto& cidr : space) total += cidr.size();
  EXPECT_EQ(total, registry.scan_space_size());
  EXPECT_LE(total, 1ull << 18);
  EXPECT_GT(total, (1ull << 18) / 2) << "most of the universe is allocated";
}

// ------------------------------------------------------- censys certs ----

TEST(CertChainDistribution, MatchesPublishedAnchors) {
  util::Rng rng(1);
  const int n = 200'000;
  double sum = 0;
  int ge640 = 0;
  int ge2176 = 0;
  std::size_t min_len = SIZE_MAX;
  std::size_t max_len = 0;
  for (int i = 0; i < n; ++i) {
    const std::size_t length = CertChainDistribution::sample(rng);
    sum += static_cast<double>(length);
    ge640 += length >= 640;
    ge2176 += length >= 2176;
    min_len = std::min(min_len, length);
    max_len = std::max(max_len, length);
  }
  EXPECT_NEAR(sum / n, 2186.0, 220.0);          // mean 2186 B
  EXPECT_NEAR(ge640 / double(n), 0.86, 0.01);   // P(≥640) = 0.86
  EXPECT_NEAR(ge2176 / double(n), 0.50, 0.01);  // P(≥2176) = 0.50
  EXPECT_GE(min_len, CertChainDistribution::kMinBytes);
  EXPECT_LE(max_len, CertChainDistribution::kMaxBytes);
}

TEST(CertChainDistribution, CcdfIsMonotoneAndAnchored) {
  EXPECT_DOUBLE_EQ(CertChainDistribution::ccdf(0), 1.0);
  EXPECT_NEAR(CertChainDistribution::ccdf(640), 0.86, 0.001);
  EXPECT_NEAR(CertChainDistribution::ccdf(2176), 0.50, 0.001);
  EXPECT_EQ(CertChainDistribution::ccdf(70'000), 0.0);
  double previous = 1.0;
  for (double bytes = 0; bytes < 66'000; bytes += 500) {
    const double value = CertChainDistribution::ccdf(bytes);
    EXPECT_LE(value, previous + 1e-12);
    previous = value;
  }
}

// ------------------------------------------------------- ground truth ----

/// A world of the given seed at the given drift epoch, with no overlays.
ModelConfig world(std::uint64_t seed, int epoch = 0) {
  ModelConfig config;
  config.seed = seed;
  config.epoch = epoch;
  return config;
}

TEST(GroundTruth, PureFunctionOfSeedAndIp) {
  const auto registry = AsRegistry::standard(16);
  const net::IPv4Address ip{10, 0, 1, 77};
  const auto a = synthesize_host(registry, world(42), ip);
  const auto b = synthesize_host(registry, world(42), ip);
  EXPECT_EQ(a.present, b.present);
  EXPECT_EQ(a.http, b.http);
  EXPECT_EQ(a.tls, b.tls);
  EXPECT_EQ(a.http_iw.segments, b.http_iw.segments);
  EXPECT_EQ(a.chain_bytes, b.chain_bytes);
  EXPECT_EQ(a.rdns, b.rdns);
  EXPECT_EQ(a.path_mtu, b.path_mtu);
}

TEST(GroundTruth, OutsideUniverseIsAbsent) {
  const auto registry = AsRegistry::standard(16);
  const auto gt = synthesize_host(registry, world(42), net::IPv4Address(8, 8, 8, 8));
  EXPECT_FALSE(gt.present);
}

TEST(GroundTruth, DensityApproximatesArchetype) {
  const auto registry = AsRegistry::standard(18);
  const auto* comcast = registry.by_name("Comcast");
  ASSERT_NE(comcast, nullptr);
  const auto& prefix = comcast->prefixes.front();
  int present = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    // Skip the (nonexistent for access) popular block; sample the middle.
    const auto ip = prefix.at(prefix.size() / 2 + i);
    present += synthesize_host(registry, world(42), ip).present;
  }
  EXPECT_NEAR(present / double(n), comcast->archetype.host_density, 0.03);
}

TEST(GroundTruth, FewDataBoundNeverExceedsTrueIw) {
  const auto registry = AsRegistry::standard(18);
  int checked = 0;
  for (std::uint32_t offset = 0; offset < 60'000 && checked < 2000; ++offset) {
    const net::IPv4Address ip{net::IPv4Address(10, 0, 0, 0).value() + offset};
    const auto gt = synthesize_host(registry, world(7), ip);
    if (!gt.present || !gt.http || gt.http_category != HttpCategory::FewData) {
      continue;
    }
    ++checked;
    EXPECT_GE(gt.true_iw_segments(false, 64), gt.few_bound) << ip.to_string();
    EXPECT_GE(gt.few_bound, 1u);
  }
  EXPECT_GT(checked, 500);
}

TEST(GroundTruth, SuccessPagesExceedIwAtBothMss) {
  const auto registry = AsRegistry::standard(18);
  int checked = 0;
  for (std::uint32_t offset = 0; offset < 60'000 && checked < 2000; ++offset) {
    const net::IPv4Address ip{net::IPv4Address(10, 0, 0, 0).value() + offset};
    const auto gt = synthesize_host(registry, world(7), ip);
    if (!gt.present || !gt.http) continue;
    if (gt.http_category != HttpCategory::SuccessDirect) continue;
    ++checked;
    const std::uint16_t eff64 = tcp::effective_mss(gt.os, 64, 1460);
    const std::uint16_t eff128 = tcp::effective_mss(gt.os, 128, 1460);
    const std::size_t worst_iw = std::max(gt.http_iw.initial_cwnd(eff64),
                                          gt.http_iw.initial_cwnd(eff128));
    EXPECT_GT(gt.http_page_bytes, worst_iw) << ip.to_string();
  }
  EXPECT_GT(checked, 300);
}

TEST(GroundTruth, EchoHostsHaveCompatibleProfiles) {
  const auto registry = AsRegistry::standard(18);
  for (std::uint32_t offset = 0; offset < 60'000; ++offset) {
    const net::IPv4Address ip{net::IPv4Address(10, 0, 0, 0).value() + offset};
    const auto gt = synthesize_host(registry, world(7), ip);
    if (!gt.present || gt.http_category != HttpCategory::SuccessEcho) continue;
    EXPECT_EQ(gt.os, tcp::OsProfile::Linux);
    ASSERT_EQ(gt.http_iw.policy, tcp::IwPolicy::Segments);
    EXPECT_LE(gt.http_iw.segments, 10u);
  }
}

TEST(GroundTruth, CloudflareIsAllIw10) {
  const auto registry = AsRegistry::standard(18);
  const auto* cloudflare = registry.by_name("Cloudflare");
  ASSERT_NE(cloudflare, nullptr);
  const auto& prefix = cloudflare->prefixes.front();
  for (std::uint64_t i = 0; i < prefix.size(); ++i) {
    const auto gt = synthesize_host(registry, world(42), prefix.at(i));
    if (!gt.present) continue;
    if (gt.http && gt.http_category != HttpCategory::FewData) {
      EXPECT_EQ(gt.http_iw.segments, 10u);
    }
    if (gt.tls) {
      EXPECT_EQ(gt.tls_iw.segments, 10u);
    }
  }
}

TEST(GroundTruth, TelmexHasByteLimitedCpe) {
  const auto registry = AsRegistry::standard(18);
  const auto* telmex = registry.by_name("Telmex");
  ASSERT_NE(telmex, nullptr);
  const auto& prefix = telmex->prefixes.front();
  int byte_hosts = 0;
  int http_hosts = 0;
  for (std::uint64_t i = 0; i < prefix.size(); ++i) {
    const auto gt = synthesize_host(registry, world(42), prefix.at(i));
    if (!gt.present || !gt.http) continue;
    ++http_hosts;
    if (gt.http_iw.policy == tcp::IwPolicy::Bytes) ++byte_hosts;
  }
  ASSERT_GT(http_hosts, 100);
  EXPECT_NEAR(byte_hosts / double(http_hosts), 0.29, 0.06)
      << "~30% of Telmex HTTP hosts are byte-IW CPE (§4.2 source)";
}

TEST(GroundTruth, AccessRdnsEncodesIpAndIspTag) {
  const auto registry = AsRegistry::standard(18);
  const auto* comcast = registry.by_name("Comcast");
  const auto& prefix = comcast->prefixes.front();
  int with_rdns = 0;
  int encoding = 0;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const auto ip = prefix.at(prefix.size() / 3 + i);
    const auto gt = synthesize_host(registry, world(42), ip);
    if (!gt.present || gt.rdns.empty()) continue;
    ++with_rdns;
    char needle[32];
    std::snprintf(needle, sizeof(needle), "%u-%u-%u-%u", ip.octet(0), ip.octet(1),
                  ip.octet(2), ip.octet(3));
    if (gt.rdns.find(needle) != std::string::npos) ++encoding;
    EXPECT_NE(gt.rdns.find("comcastline"), std::string::npos) << gt.rdns;
  }
  ASSERT_GT(with_rdns, 200);
  EXPECT_GT(encoding / double(with_rdns), 0.85);
}

TEST(GroundTruth, PathMtuDistributionAnchors) {
  const auto registry = AsRegistry::standard(18);
  int n = 0;
  int ge1376 = 0;
  int ge1476 = 0;
  for (std::uint32_t offset = 0; offset < 60'000; ++offset) {
    const net::IPv4Address ip{net::IPv4Address(10, 0, 0, 0).value() + offset};
    const auto gt = synthesize_host(registry, world(11), ip);
    if (!gt.present) continue;
    ++n;
    ge1376 += gt.path_mtu >= 1376;
    ge1476 += gt.path_mtu >= 1476;
  }
  ASSERT_GT(n, 5000);
  EXPECT_NEAR(ge1376 / double(n), 0.99, 0.01);  // MSS 1336 support
  EXPECT_NEAR(ge1476 / double(n), 0.80, 0.02);  // MSS 1436 support
}

TEST(GroundTruth, DriftIsMonotoneAndTargetsLegacyLinux) {
  const auto registry = AsRegistry::standard(18);
  const ModelConfig late = world(3, 12);

  int upgraded = 0;
  int legacy_at_zero = 0;
  for (std::uint32_t offset = 0; offset < 40'000; ++offset) {
    const net::IPv4Address ip{net::IPv4Address(10, 0, 0, 0).value() + offset};
    const auto epoch0 = synthesize_host(registry, world(3), ip);
    if (!epoch0.present || !epoch0.http) continue;

    const auto epoch12 = synthesize_host(registry, late, ip);
    // Non-IW fields are untouched by drift.
    EXPECT_EQ(epoch0.http_category, epoch12.http_category);
    EXPECT_EQ(epoch0.os, epoch12.os);
    EXPECT_EQ(epoch0.chain_bytes, epoch12.chain_bytes);

    const bool legacy = epoch0.os == tcp::OsProfile::Linux &&
                        epoch0.http_iw.policy == tcp::IwPolicy::Segments &&
                        epoch0.http_iw.segments <= 4;
    if (legacy) {
      ++legacy_at_zero;
      if (epoch12.http_iw.segments == 10) ++upgraded;
      // Monotone: once upgraded at an epoch, upgraded at all later epochs.
      const auto epoch6 = synthesize_host(registry, world(3, 6), ip);
      if (epoch6.http_iw.segments == 10) {
        EXPECT_EQ(epoch12.http_iw.segments, 10u) << ip.to_string();
      }
    } else {
      // Windows / byte-IW / already-modern hosts never change.
      EXPECT_EQ(epoch12.http_iw.segments, epoch0.http_iw.segments);
      EXPECT_EQ(epoch12.http_iw.policy, epoch0.http_iw.policy);
    }
  }
  ASSERT_GT(legacy_at_zero, 1000);
  // After 12 epochs at 6%: 1-(0.94^12) ≈ 52% of legacy hosts upgraded.
  EXPECT_NEAR(upgraded / double(legacy_at_zero), 0.52, 0.05);
}

// ------------------------------------------------------ InternetModel ----

TEST(InternetModel, LazyMaterializationAndEviction) {
  sim::EventLoop loop;
  sim::Network network(loop, 1);
  ModelConfig config;
  config.scale_log2 = 16;
  InternetModel internet(network, config);
  internet.install();

  EXPECT_EQ(internet.live_hosts(), 0u);

  // Find a present host and poke it with a SYN.
  net::IPv4Address target{0};
  for (std::uint32_t offset = 0; offset < 1000; ++offset) {
    const net::IPv4Address candidate{net::IPv4Address(10, 0, 0, 0).value() + offset};
    const auto gt = internet.truth(candidate);
    if (gt.present && gt.http) {
      target = candidate;
      break;
    }
  }
  ASSERT_NE(target.value(), 0u);

  std::vector<net::Bytes> replies;
  network.set_tap([&](net::PacketView bytes) {
    if (net::peek_source(bytes) == target) replies.emplace_back(bytes.begin(), bytes.end());
  });
  net::TcpSegment syn;
  syn.ip.src = net::IPv4Address{192, 0, 2, 1};
  syn.ip.dst = target;
  syn.tcp.src_port = 40000;
  syn.tcp.dst_port = 80;
  syn.tcp.seq = 1;
  syn.tcp.flags = net::kSyn;
  syn.tcp.window = 65535;
  syn.tcp.mss = 64;
  network.send(net::encode(syn));
  loop.run_until(sim::msec(500));
  EXPECT_EQ(internet.live_hosts(), 1u);
  EXPECT_EQ(internet.hosts_instantiated(), 1u);
  ASSERT_FALSE(replies.empty());
  const net::Bytes first_syn_ack = replies.front();

  // After the connection idles out, the sweeper evicts the host.
  loop.run_until(sim::sec(60));
  EXPECT_EQ(internet.live_hosts(), 0u);

  // The same SYN rebuilds the host, which answers byte for byte as before.
  replies.clear();
  network.send(net::encode(syn));
  loop.run_until(sim::sec(61));
  EXPECT_EQ(internet.live_hosts(), 1u);
  EXPECT_EQ(internet.hosts_instantiated(), 2u);
  ASSERT_FALSE(replies.empty());
  EXPECT_EQ(replies.front(), first_syn_ack);
}

/// The fields of one host-sent segment that its stack and daemon decide.
struct HostSegment {
  std::uint8_t flags;
  std::uint32_t seq;
  std::uint32_t ack;
  std::uint16_t window;
  net::Bytes payload;
  bool operator==(const HostSegment&) const = default;
};

/// Runs the paper's HTTP probe against `ip` (generic, then naming the
/// host's canonical vhost) and its TLS probe, and returns every segment the
/// host sent, in injection order.
std::vector<HostSegment> probe_exchange(test::Testbed& bed, net::IPv4Address ip,
                                        const GroundTruth& gt) {
  std::vector<net::TcpSegment> wire;
  bed.tap_segments(wire);
  for (const bool named : {false, true}) {
    if (named && gt.canonical_name.empty()) continue;
    if (gt.http) {
      core::IwScanConfig http;
      if (named) http.curated_host = gt.canonical_name;
      bed.probe_host(ip, http);
    }
    if (gt.tls && !named) {
      core::IwScanConfig tls;
      tls.protocol = core::ProbeProtocol::Tls;
      tls.port = 443;
      bed.probe_host(ip, tls);
    }
  }
  bed.network().set_tap(nullptr);
  std::vector<HostSegment> out;
  for (const net::TcpSegment& segment : wire) {
    if (segment.ip.src != ip) continue;
    out.push_back(HostSegment{segment.tcp.flags, segment.tcp.seq, segment.tcp.ack,
                              segment.tcp.window,
                              net::Bytes(segment.payload.begin(), segment.payload.end())});
  }
  return out;
}

/// Resets each connection when its request arrives: the eager twin of the
/// model's Table-1 "Error" daemon.
class EagerAbortApp final : public tcp::Application {
 public:
  void on_data(tcp::TcpConnection& conn, std::span<const std::uint8_t>) override {
    conn.abort();
  }
};

/// The eager twin of a modeled host: both daemons' configs are made once,
/// up front, from the same truth, and shared by every connection.
std::unique_ptr<tcp::TcpHost> eager_host(test::Testbed& bed, const InternetModel& internet,
                                         net::IPv4Address ip, const GroundTruth& gt) {
  tcp::StackConfig base;
  base.os = gt.os;
  base.own_mss_limit =
      static_cast<std::uint16_t>(gt.path_mtu >= 1500 ? 1460 : gt.path_mtu - 40);
  auto host = std::make_unique<tcp::TcpHost>(bed.network(), ip, base,
                                             util::mix64(internet.config().seed, ip.value()));
  const auto abort_factory = [](net::IPv4Address, std::uint16_t) {
    return std::make_unique<EagerAbortApp>();
  };
  if (gt.http) {
    host->listen(80,
                 gt.http_category == HttpCategory::Abort
                     ? tcp::TcpHost::AppFactory(abort_factory)
                     : http::HttpServerApp::factory(internet.web_config(ip, gt)),
                 gt.http_iw);
  }
  if (gt.tls) {
    host->listen(443,
                 gt.tls_category == TlsCategory::Abort
                     ? tcp::TcpHost::AppFactory(abort_factory)
                     : tls::TlsServerApp::factory(internet.tls_config(ip, gt)),
                 gt.tls_iw);
  }
  sim::PathConfig path = bed.network().default_path();
  path.latency = sim::usec(gt.latency_us);
  path.jitter = InternetModel::kPathJitter;
  path.path_mtu = gt.path_mtu;
  bed.network().set_path(ip, path);
  bed.network().attach(ip, host.get());
  return host;
}

TEST(InternetModel, TruthDerivedServicesMatchEagerBuild) {
  ModelConfig config;
  config.scale_log2 = 12;
  config.loss_rate = 0.0;
  config.reorder_rate = 0.0;
  config.cdn_fraction = 0.3;  // adds per-vhost IW splits on both ports

  // Each host is probed in a fresh world and against a fresh eager twin, so
  // both see the same scanner ports, seeds and virtual times.
  test::Testbed selection_bed;
  const InternetModel internet(selection_bed.network(), config);

  // Two present hosts per HTTP and per TLS category, plus two with each
  // vhost split.
  std::map<int, int> http_seen;
  std::map<int, int> tls_seen;
  int http_vhosts = 0;
  int tls_vhosts = 0;
  std::vector<net::IPv4Address> hosts;
  for (const net::Cidr& prefix : internet.registry().scan_space()) {
    for (std::uint64_t i = 0; i < prefix.size(); ++i) {
      const net::IPv4Address ip = prefix.at(i);
      const GroundTruth gt = internet.truth(ip);
      if (!gt.present || gt.adversary) continue;
      bool wanted = false;
      if (gt.http && http_seen[static_cast<int>(gt.http_category)]++ < 2) wanted = true;
      if (gt.tls && tls_seen[static_cast<int>(gt.tls_category)]++ < 2) wanted = true;
      if (gt.http_vhost_iw && http_vhosts++ < 2) wanted = true;
      if (gt.tls_vhost_iw && tls_vhosts++ < 2) wanted = true;
      if (wanted) hosts.push_back(ip);
    }
  }
  for (const HttpCategory category :
       {HttpCategory::SuccessDirect, HttpCategory::SuccessRedirect,
        HttpCategory::SuccessEcho, HttpCategory::FewData, HttpCategory::NoData,
        HttpCategory::Abort}) {
    EXPECT_GE(http_seen[static_cast<int>(category)], 1)
        << "HTTP category " << static_cast<int>(category);
  }
  for (const TlsCategory category :
       {TlsCategory::Normal, TlsCategory::SniAlert, TlsCategory::SniSilent,
        TlsCategory::ExoticCipher, TlsCategory::Abort}) {
    EXPECT_GE(tls_seen[static_cast<int>(category)], 1)
        << "TLS category " << static_cast<int>(category);
  }
  EXPECT_GE(http_vhosts, 1);
  EXPECT_GE(tls_vhosts, 1);

  for (const net::IPv4Address ip : hosts) {
    SCOPED_TRACE(ip.to_string());
    const GroundTruth gt = internet.truth(ip);
    test::Testbed eager_bed;
    const auto twin = eager_host(eager_bed, internet, ip, gt);
    test::Testbed lazy_bed;
    InternetModel world(lazy_bed.network(), config);
    world.install();

    const auto eager = probe_exchange(eager_bed, ip, gt);
    ASSERT_FALSE(eager.empty());
    EXPECT_EQ(probe_exchange(lazy_bed, ip, gt), eager);

    // Idle past every timeout: the model evicts the host and rebuilds it
    // from the same truth on the next SYN, serving the same bytes again.
    eager_bed.loop().run_until(eager_bed.loop().now() + sim::sec(120));
    lazy_bed.loop().run_until(lazy_bed.loop().now() + sim::sec(120));
    EXPECT_EQ(world.live_hosts(), 0u);
    const std::uint64_t built_before = world.hosts_instantiated();
    EXPECT_EQ(probe_exchange(lazy_bed, ip, gt), probe_exchange(eager_bed, ip, gt));
    EXPECT_GT(world.hosts_instantiated(), built_before);
  }
}

TEST(InternetModel, DarkAddressesStayDark) {
  sim::EventLoop loop;
  sim::Network network(loop, 1);
  ModelConfig config;
  config.scale_log2 = 16;
  InternetModel internet(network, config);
  internet.install();

  // An address outside every AS prefix.
  net::TcpSegment syn;
  syn.ip.src = net::IPv4Address{192, 0, 2, 1};
  syn.ip.dst = net::IPv4Address{172, 31, 0, 1};
  syn.tcp.src_port = 40000;
  syn.tcp.dst_port = 80;
  syn.tcp.flags = net::kSyn;
  network.send(net::encode(syn));
  loop.run_until(sim::sec(1));
  EXPECT_EQ(internet.live_hosts(), 0u);
  EXPECT_GE(network.stats().packets_unroutable, 1u);
}

}  // namespace
}  // namespace iwscan::model
