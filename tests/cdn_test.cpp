// The CDN/modern-stack battery: every edge-stack profile the follow-up
// study describes (IW16/32/50 tiers, byte-budget tiers, paced first
// flights, per-vhost windows) is scanned by the full engine and must
// (a) terminate within its budget on virtual time,
// (b) classify to the expected HostOutcome + ProbeAnomaly — in particular,
//     a paced host is NEVER reported as an exact-IW success,
// (c) leak no engine sessions, and
// (d) behave deterministically — same scenario, same record.
// Plus the longitudinal/identity contracts: monotone T0/T1/T2 tier drift,
// cdn_fraction == 0 reproducing pre-overlay worlds, and every epoch's
// records coming out byte-identical for any shard count and under the spill
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/scan_runner.hpp"
#include "inetmodel/internet.hpp"
#include "store/spill.hpp"
#include "testbed.hpp"

namespace iwscan {
namespace {

// ------------------------------------------------------------- battery ----

/// One CDN-edge scenario: a modeled TcpHost (real HTTP/TLS daemon, not an
/// adversarial endpoint) with a modern IwConfig, probed by the full engine.
struct CdnScenario {
  std::string_view name;
  tcp::IwConfig iw{};
  core::ProbeProtocol protocol = core::ProbeProtocol::Http;
  std::size_t content_bytes = 8192;  // HTTP page / TLS chain bytes
  core::HostOutcome expect_outcome{};
  core::ProbeAnomaly expect_anomaly{};
  std::uint32_t expect_iw = 0;         // Success: exact segments at MSS 64
  std::uint32_t expect_min_lower = 0;  // FewData: lower bound at least this
  bool expect_byte_limited = false;
  sim::SimTime deadline = sim::sec(900);
};

const CdnScenario kCdnBattery[] = {
    {.name = "burst-iw16",
     .iw = tcp::IwConfig::iw16(),
     .expect_outcome = core::HostOutcome::Success,
     .expect_anomaly = core::ProbeAnomaly::None,
     .expect_iw = 16},
    {.name = "burst-iw32",
     .iw = tcp::IwConfig::iw32(),
     .expect_outcome = core::HostOutcome::Success,
     .expect_anomaly = core::ProbeAnomaly::None,
     .expect_iw = 32},
    {.name = "burst-iw50",
     .iw = tcp::IwConfig::iw50(),
     .content_bytes = 16384,
     .expect_outcome = core::HostOutcome::Success,
     .expect_anomaly = core::ProbeAnomaly::None,
     .expect_iw = 50},
    {.name = "byte-tier-16k",
     .iw = tcp::IwConfig::byte_tier_kib(16),
     .content_bytes = 24576,
     .expect_outcome = core::HostOutcome::Success,
     .expect_anomaly = core::ProbeAnomaly::None,
     .expect_iw = 256,  // 16 KiB at MSS 64 (128 at MSS 128: byte-limited)
     .expect_byte_limited = true},
    {.name = "paced-iw16",
     .iw = tcp::IwConfig::iw16().paced_over(600),
     .expect_outcome = core::HostOutcome::FewData,
     .expect_anomaly = core::ProbeAnomaly::PacedDelivery,
     .expect_min_lower = 16},
    {.name = "paced-iw50",
     .iw = tcp::IwConfig::iw50().paced_over(1200),
     .content_bytes = 16384,
     .expect_outcome = core::HostOutcome::FewData,
     .expect_anomaly = core::ProbeAnomaly::PacedDelivery,
     .expect_min_lower = 50},
    {.name = "paced-byte-tier",
     .iw = tcp::IwConfig::byte_tier_kib(16).paced_over(800),
     .content_bytes = 24576,
     .expect_outcome = core::HostOutcome::FewData,
     .expect_anomaly = core::ProbeAnomaly::PacedDelivery,
     .expect_min_lower = 256},
    {.name = "tls-burst-iw32",
     .iw = tcp::IwConfig::iw32(),
     .protocol = core::ProbeProtocol::Tls,
     .expect_outcome = core::HostOutcome::Success,
     .expect_anomaly = core::ProbeAnomaly::None,
     .expect_iw = 32},
    {.name = "tls-paced-iw16",
     .iw = tcp::IwConfig::iw16().paced_over(600),
     .protocol = core::ProbeProtocol::Tls,
     .expect_outcome = core::HostOutcome::FewData,
     .expect_anomaly = core::ProbeAnomaly::PacedDelivery,
     .expect_min_lower = 16},
};

/// Run one scenario to completion against the full scan engine (mirrors
/// test::run_scenario, with a modeled edge host instead of an adversary).
test::ScenarioResult run_cdn_scenario(const CdnScenario& scenario,
                                      std::uint64_t scan_seed = 7) {
  const net::IPv4Address target{10, 66, 0, 1};

  sim::EventLoop loop;
  sim::Network network(loop, 1);
  sim::PathConfig path;
  path.latency = sim::msec(10);
  network.set_default_path(path);

  tcp::StackConfig stack;
  stack.iw = scenario.iw;
  tcp::TcpHost host(network, target, stack, 0xfeed);
  if (scenario.protocol == core::ProbeProtocol::Http) {
    http::WebConfig web;
    web.page_size = scenario.content_bytes;
    host.listen(80, http::HttpServerApp::factory(std::move(web)));
  } else {
    tls::TlsConfig config;
    config.chain_bytes = scenario.content_bytes;
    host.listen(443, tls::TlsServerApp::factory(std::move(config)));
  }
  network.attach(target, &host);

  core::IwScanConfig probe;
  probe.protocol = scenario.protocol;
  probe.port = scenario.protocol == core::ProbeProtocol::Http ? 80 : 443;

  test::ScenarioResult result;
  core::IwProbeModule module(
      probe, [&](const core::HostScanRecord& r) { result.record = r; });

  scan::EngineConfig config;
  config.scanner_address = test::kScannerIp;
  config.rate_pps = 1000;
  config.max_outstanding = 16;
  config.seed = scan_seed;

  scan::GeneratorTargetSource targets(
      scan::TargetGenerator({net::Cidr{target, 32}}, {}, scan_seed, 1.0));
  scan::ScanEngine engine(network, config, targets, module);
  const sim::SimTime start = loop.now();
  engine.start();
  while (!engine.done() && loop.now() - start < scenario.deadline && loop.step()) {
  }
  result.completed = engine.done();
  result.elapsed = loop.now() - start;
  result.stats = engine.stats();
  result.live_sessions = engine.live_sessions();
  network.detach(target);
  return result;
}

TEST(CdnBattery, EveryEdgeProfileTerminatesAndClassifies) {
  const std::uint64_t seed = test::env_scan_seed();
  for (const CdnScenario& scenario : kCdnBattery) {
    SCOPED_TRACE(std::string(scenario.name));
    const test::ScenarioResult result = run_cdn_scenario(scenario, seed);

    EXPECT_TRUE(result.completed);
    EXPECT_LT(result.elapsed, scenario.deadline);
    EXPECT_EQ(result.live_sessions, 0u);

    EXPECT_EQ(result.record.outcome, scenario.expect_outcome);
    EXPECT_EQ(result.record.anomaly, scenario.expect_anomaly);
    if (scenario.expect_iw != 0) {
      EXPECT_EQ(result.record.iw_segments, scenario.expect_iw);
    }
    if (scenario.expect_min_lower != 0) {
      EXPECT_GE(result.record.lower_bound, scenario.expect_min_lower);
    }
    EXPECT_EQ(result.record.byte_limited(), scenario.expect_byte_limited);
    // The acceptance criterion, per scenario: a paced first flight must
    // never be folded into an exact-IW success.
    if (scenario.iw.pacing.paced()) {
      EXPECT_NE(result.record.outcome, core::HostOutcome::Success);
    }
  }
}

TEST(CdnBattery, ScenariosAreDeterministic) {
  for (const CdnScenario& scenario :
       {kCdnBattery[0], kCdnBattery[3], kCdnBattery[4], kCdnBattery[8]}) {
    SCOPED_TRACE(std::string(scenario.name));
    const test::ScenarioResult first = run_cdn_scenario(scenario);
    const test::ScenarioResult second = run_cdn_scenario(scenario);
    EXPECT_TRUE(first.record == second.record);
    EXPECT_EQ(first.elapsed, second.elapsed);
    EXPECT_EQ(first.stats.packets_sent, second.stats.packets_sent);
    EXPECT_EQ(first.stats.packets_received, second.stats.packets_received);
  }
}

// ------------------------------------------------- estimator boundaries ----

// The paced/burst decision compares the first→last fresh-data span against
// kPacedWindowPercent (8%) of the first-data→retransmission window (the
// sender's RTO, 1 s — one-way latency shifts both endpoints and cancels).
// With spread_rtt_percent = 400, zero schedule jitter and a 10 ms one-way
// path, the span is exactly 4 × 20 ms = 80 ms = the threshold; shaving
// 125 ns off the latency shaves 4 × 250 ns = 1 µs off the span and the very
// same host flips back to a clean burst.
TEST(PacingBoundary, OneMicrosecondOfSpanFlipsPacedToBurst) {
  const net::IPv4Address target{10, 0, 0, 1};
  tcp::StackConfig stack;
  stack.iw = tcp::IwConfig::iw16().paced_over(400, /*jitter_percent=*/0);
  http::WebConfig web;
  web.page_size = 8192;

  {  // span == threshold (80 ms vs. 8% of 1 s): paced, bounded estimate.
    test::Testbed bed;
    bed.add_http_host(target, stack, web);
    const core::ConnObservation observation =
        bed.estimate(target, 80, 64, test::Testbed::http_get(target));
    EXPECT_EQ(observation.outcome, core::ConnOutcome::FewData);
    EXPECT_EQ(observation.anomaly, core::ProbeAnomaly::PacedDelivery);
    EXPECT_EQ(observation.iw_estimate, 16u);
  }
  {  // span == threshold − 1 µs: a burst, exact success.
    test::Testbed bed;
    sim::PathConfig path;
    path.latency = sim::msec(10) - sim::SimTime(125);
    bed.network().set_default_path(path);
    bed.add_http_host(target, stack, web);
    const core::ConnObservation observation =
        bed.estimate(target, 80, 64, test::Testbed::http_get(target));
    EXPECT_EQ(observation.outcome, core::ConnOutcome::Success);
    EXPECT_EQ(observation.anomaly, core::ProbeAnomaly::None);
    EXPECT_EQ(observation.iw_estimate, 16u);
  }
}

// Per-vhost worlds: the same IP serves IW16 for IP-as-Host probing and
// IW32 when the request names the canonical vhost. The two probes must be
// reported as a split — two exact measurements — never averaged.
TEST(PerVhost, HttpHostHeaderSelectsADifferentWindow) {
  const net::IPv4Address target{10, 0, 0, 2};
  test::Testbed bed;
  tcp::StackConfig stack;
  stack.iw = tcp::IwConfig::iw16();
  http::WebConfig web;
  web.page_size = 16384;
  web.canonical_name = "www.edge-a.example";
  web.vhost_iw = tcp::IwConfig::iw32();
  bed.add_http_host(target, stack, web);

  core::IwScanConfig config;
  const core::HostScanRecord by_ip = bed.probe_host(target, config);
  config.curated_host = "www.edge-a.example";
  const core::HostScanRecord by_name = bed.probe_host(target, config);

  EXPECT_EQ(by_ip.outcome, core::HostOutcome::Success);
  EXPECT_EQ(by_ip.iw_segments, 16u);
  EXPECT_EQ(by_name.outcome, core::HostOutcome::Success);
  EXPECT_EQ(by_name.iw_segments, 32u);
}

TEST(PerVhost, TlsSniSelectsADifferentWindow) {
  const net::IPv4Address target{10, 0, 0, 3};
  test::Testbed bed;
  tcp::StackConfig stack;
  stack.iw = tcp::IwConfig::iw16();
  tls::TlsConfig tls;
  tls.chain_bytes = 9000;
  tls.server_name = "www.edge-b.example";
  tls.sni_iw = tcp::IwConfig::iw32();
  bed.add_tls_host(target, stack, tls);

  core::IwScanConfig config;
  config.protocol = core::ProbeProtocol::Tls;
  config.port = 443;
  const core::HostScanRecord sniless = bed.probe_host(target, config);
  config.curated_host = "www.edge-b.example";
  const core::HostScanRecord by_sni = bed.probe_host(target, config);

  EXPECT_EQ(sniless.outcome, core::HostOutcome::Success);
  EXPECT_EQ(sniless.iw_segments, 16u);
  EXPECT_EQ(by_sni.outcome, core::HostOutcome::Success);
  EXPECT_EQ(by_sni.iw_segments, 32u);
}

// ------------------------------------------------ longitudinal contracts ----

/// CDN-heavy world for the identity tests: small universe, every second
/// web host in a CDN-eligible AS overlaid.
model::ModelConfig cdn_world() {
  model::ModelConfig config;
  config.scale_log2 = 12;
  config.cdn_fraction = 0.6;
  return config;
}

analysis::ScanOptions cdn_scan_options() {
  analysis::ScanOptions options;
  options.rate_pps = 40'000;
  options.scan_seed = test::env_scan_seed();
  return options;
}

analysis::ScanOutput scan_world(const model::ModelConfig& model_config,
                                const analysis::ScanOptions& options) {
  sim::EventLoop loop;
  sim::Network network(loop, 1);
  model::InternetModel internet(network, model_config);
  internet.install();
  return analysis::run_iw_scan(network, internet, options);
}

TEST(CdnLongitudinal, TierDriftIsMonotonePerHost) {
  model::ModelConfig config;
  config.scale_log2 = 12;
  config.cdn_fraction = 1.0;

  sim::EventLoop loop;
  sim::Network network(loop, 1);
  config.epoch = 0;
  model::InternetModel t0(network, config);
  config.epoch = 4;
  model::InternetModel t1(network, config);
  config.epoch = 8;
  model::InternetModel t2(network, config);

  int overlaid = 0;
  int upgraded = 0;
  for (std::uint32_t i = 0; i < (1u << 12); ++i) {
    const net::IPv4Address ip{10, 0, static_cast<std::uint8_t>(i >> 8),
                              static_cast<std::uint8_t>(i & 0xff)};
    const auto g0 = t0.truth(ip);
    const auto g1 = t1.truth(ip);
    const auto g2 = t2.truth(ip);
    ASSERT_LE(g0.cdn_tier, g1.cdn_tier) << ip.to_string();
    ASSERT_LE(g1.cdn_tier, g2.cdn_tier) << ip.to_string();
    if (g0.http) {
      // Tier drift may raise the window, but never flips a host between
      // burst and paced delivery (the pacing draw is epoch-independent).
      ASSERT_EQ(g0.http_iw.pacing, g2.http_iw.pacing) << ip.to_string();
    }
    if (g0.cdn_tier > 0) {
      ++overlaid;
      if (g2.cdn_tier > g0.cdn_tier) ++upgraded;
    }
  }
  EXPECT_GT(overlaid, 0);
  EXPECT_GT(upgraded, 0);  // eight epochs at 8 % per step: drift must be visible
}

TEST(CdnOverlay, FractionZeroReproducesPreOverlayWorlds) {
  // Ground truth: with the overlay disabled, no epoch's tier drift reaches
  // a host; and the overlay's draws perturb no other draw, so a host the
  // overlay skips in a CDN-heavy world is the host a fraction-zero world
  // holds at that address.
  model::ModelConfig off;
  off.scale_log2 = 12;
  off.cdn_fraction = 0.0;
  model::ModelConfig on = cdn_world();
  const auto key = [](const model::GroundTruth& gt) {
    return std::tuple(gt.present, gt.http, gt.tls, gt.os, gt.http_iw, gt.tls_iw,
                      gt.http_category, gt.tls_category, gt.http_page_bytes,
                      gt.chain_bytes, gt.canonical_name, gt.cdn_tier);
  };

  sim::EventLoop loop;
  sim::Network network(loop, 1);
  int overlaid = 0;
  int skipped = 0;
  for (const int epoch : {0, 4, 8}) {
    off.epoch = epoch;
    on.epoch = epoch;
    const model::InternetModel w_off(network, off);
    const model::InternetModel w_on(network, on);
    for (std::uint32_t i = 0; i < (1u << 12); ++i) {
      const net::IPv4Address ip{10, 0, static_cast<std::uint8_t>(i >> 8),
                                static_cast<std::uint8_t>(i & 0xff)};
      const auto g_off = w_off.truth(ip);
      ASSERT_EQ(g_off.cdn_tier, 0u) << ip.to_string();
      ASSERT_FALSE(g_off.http_vhost_iw.has_value()) << ip.to_string();
      ASSERT_FALSE(g_off.tls_vhost_iw.has_value()) << ip.to_string();
      const auto g_on = w_on.truth(ip);
      if (g_on.cdn_tier != 0) {
        ++overlaid;
        continue;
      }
      ++skipped;
      ASSERT_TRUE(key(g_off) == key(g_on)) << ip.to_string();
    }
  }
  EXPECT_GT(overlaid, 0);
  EXPECT_GT(skipped, 0);

  // Scan level: every host the overlay skips yields the same record in
  // the CDN-heavy world's scan as in the fraction-zero world's.
  off.epoch = 0;
  on.epoch = 0;
  const analysis::ScanOptions options = cdn_scan_options();
  const auto r_off = scan_world(off, options);
  const auto r_on = scan_world(on, options);
  ASSERT_FALSE(r_off.records.empty());
  const model::InternetModel w_on(network, on);
  std::map<std::uint32_t, const core::HostScanRecord*> on_by_ip;
  for (const auto& record : r_on.records) on_by_ip[record.ip.value()] = &record;
  std::size_t compared = 0;
  for (const auto& record : r_off.records) {
    if (w_on.truth(record.ip).cdn_tier != 0) continue;
    const auto it = on_by_ip.find(record.ip.value());
    ASSERT_NE(it, on_by_ip.end()) << record.ip.to_string();
    EXPECT_TRUE(*it->second == record) << record.ip.to_string();
    ++compared;
  }
  EXPECT_GT(compared, 0u);
  EXPECT_LT(compared, r_off.records.size());  // the overlay did take hosts
}

TEST(CdnShardIdentity, RecordsAreByteIdenticalAcrossShardCounts) {
  const model::ModelConfig world = cdn_world();
  std::vector<core::HostScanRecord> baseline;
  for (const std::uint64_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(shards);
    analysis::ScanOptions options = cdn_scan_options();
    options.shards = shards;
    const auto output = scan_world(world, options);
    ASSERT_FALSE(output.records.empty());
    if (shards == 1) {
      baseline = output.records;
    } else {
      EXPECT_TRUE(output.records == baseline);
    }
  }

  // Acceptance: no host whose true first flight is paced may be reported
  // as an exact-IW success — and the battery must actually exercise some.
  sim::EventLoop loop;
  sim::Network network(loop, 1);
  model::InternetModel internet(network, world);
  int paced_truth = 0;
  int paced_flagged = 0;
  for (const auto& record : baseline) {
    const auto gt = internet.truth(record.ip);
    if (!gt.http_iw.pacing.paced()) continue;
    ++paced_truth;
    EXPECT_NE(record.outcome, core::HostOutcome::Success)
        << record.ip.to_string();
    if (record.anomaly == core::ProbeAnomaly::PacedDelivery) ++paced_flagged;
  }
  EXPECT_GT(paced_truth, 0);
  EXPECT_GT(paced_flagged, 0);
}

TEST(CdnShardIdentity, TwoPhaseSweepIsByteIdenticalAcrossShardCounts) {
  const model::ModelConfig world = cdn_world();
  analysis::ScanOptions options = cdn_scan_options();
  options.two_phase = true;

  options.shards = 1;
  const auto one = scan_world(world, options);
  options.shards = 4;
  const auto four = scan_world(world, options);
  ASSERT_FALSE(one.records.empty());
  EXPECT_EQ(one.promoted, four.promoted);
  EXPECT_TRUE(one.records == four.records);
}

TEST(CdnShardIdentity, SpillPathReproducesTheInMemoryRecords) {
  const model::ModelConfig world = cdn_world();
  const analysis::ScanOptions options = cdn_scan_options();
  const auto in_memory = scan_world(world, options);
  ASSERT_FALSE(in_memory.records.empty());

  analysis::ScanOptions spilling = options;
  spilling.spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "cdn_spill").string();
  const auto spilled = scan_world(world, spilling);
  ASSERT_TRUE(spilled.records.empty());  // streamed to disk, not RAM
  std::vector<core::HostScanRecord> merged;
  std::string error;
  ASSERT_TRUE(store::read_merged<core::HostScanRecord>(spilled.spill_files,
                                                       merged, &error))
      << error;
  EXPECT_TRUE(merged == in_memory.records);
}

/// The records of `world` at T0/T1/T2 (the §5 trend-monitoring loop): each
/// epoch is scanned on a freshly synthesized world, so nothing leaks from
/// one epoch's scan into the next. With `options.spill_dir` set, each epoch
/// spills under "<dir>/epoch<N>" and is read back through the K-way merge.
std::vector<std::vector<core::HostScanRecord>> epoch_records(
    model::ModelConfig world, const analysis::ScanOptions& options) {
  std::vector<std::vector<core::HostScanRecord>> epochs;
  for (const int epoch : {0, 1, 2}) {
    world.epoch = epoch;
    analysis::ScanOptions scan = options;
    if (!scan.spill_dir.empty()) scan.spill_dir += "/epoch" + std::to_string(epoch);
    const analysis::ScanOutput output = scan_world(world, scan);
    std::vector<core::HostScanRecord> records = output.records;
    if (!scan.spill_dir.empty()) {
      std::string error;
      EXPECT_TRUE(store::read_merged<core::HostScanRecord>(output.spill_files,
                                                           records, &error))
          << error;
    }
    epochs.push_back(std::move(records));
  }
  return epochs;
}

// The longitudinal scan over T0/T1/T2 is byte-identical for any shard count
// and under --spill-dir, epoch by epoch.
TEST(CdnLongitudinal, EpochRecordsAreByteIdenticalAcrossShardsAndSpill) {
  const model::ModelConfig world = cdn_world();
  analysis::ScanOptions options = cdn_scan_options();

  options.shards = 1;
  const auto pinned = epoch_records(world, options);
  options.shards = 4;
  const auto sharded = epoch_records(world, options);
  options.shards = 1;
  options.spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "cdn_longitudinal").string();
  const auto spilled = epoch_records(world, options);
  ASSERT_EQ(pinned.size(), 3u);
  ASSERT_EQ(sharded.size(), 3u);
  ASSERT_EQ(spilled.size(), 3u);

  // Each epoch's content: every CDN AS answers with at least one success,
  // and large (IW >= 16) windows and paced first flights are measured.
  // (Per-host tier drift is monotone — pinned on ground truth above — but
  // the *measured* IWs may wiggle by a host or two across epochs because
  // each epoch redraws the path loss/jitter streams, so they are not
  // compared here.)
  const model::AsRegistry registry = model::AsRegistry::standard(world.scale_log2);
  const auto cdn_count = static_cast<std::size_t>(std::count_if(
      registry.all().begin(), registry.all().end(),
      [](const model::AsInfo& as) { return as.kind == model::AsKind::Cdn; }));
  ASSERT_GE(cdn_count, 5u);
  for (std::size_t epoch = 0; epoch < pinned.size(); ++epoch) {
    SCOPED_TRACE(epoch);
    ASSERT_FALSE(pinned[epoch].empty());
    EXPECT_TRUE(sharded[epoch] == pinned[epoch]);
    EXPECT_TRUE(spilled[epoch] == pinned[epoch]);

    std::set<std::uint32_t> cdn_ases;
    std::uint64_t large_iw = 0;
    std::uint64_t paced = 0;
    for (const auto& record : pinned[epoch]) {
      if (record.anomaly == core::ProbeAnomaly::PacedDelivery) ++paced;
      if (record.outcome != core::HostOutcome::Success) continue;
      if (record.iw_segments >= 16) ++large_iw;
      const model::AsInfo* as = registry.find(record.ip);
      if (as != nullptr && as->kind == model::AsKind::Cdn) cdn_ases.insert(as->asn);
    }
    EXPECT_EQ(cdn_ases.size(), cdn_count);
    EXPECT_GT(large_iw, 0u);
    EXPECT_GT(paced, 0u);
  }
}

}  // namespace
}  // namespace iwscan
