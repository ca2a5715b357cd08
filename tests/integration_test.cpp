// End-to-end scans of the simulated Internet: engine + prober + population.
// These tests assert the *shape* of the paper's headline results on a
// small universe (Table 1 rates, Fig. 3 dominance, ground-truth accuracy).
#include <gtest/gtest.h>

#include <set>

#include "analysis/iw_table.hpp"
#include "analysis/scan_runner.hpp"
#include "inetmodel/internet.hpp"

namespace iwscan {
namespace {

struct SmallInternet {
  sim::EventLoop loop;
  sim::Network network{loop, 123};
  model::InternetModel internet;

  explicit SmallInternet(int scale = 14, double loss = 0.002)
      : internet(network, make_config(scale, loss)) {
    internet.install();
  }

  static model::ModelConfig make_config(int scale, double loss) {
    model::ModelConfig config;
    config.scale_log2 = scale;  // 16 Ki addresses — a few thousand hosts
    config.loss_rate = loss;
    return config;
  }
};

analysis::ScanOptions http_options() {
  analysis::ScanOptions options;
  options.protocol = core::ProbeProtocol::Http;
  options.rate_pps = 40'000;
  return options;
}

analysis::ScanOptions tls_options() {
  analysis::ScanOptions options;
  options.protocol = core::ProbeProtocol::Tls;
  options.rate_pps = 40'000;
  return options;
}

TEST(Integration, HttpScanCompletesAndClassifies) {
  SmallInternet world;
  const auto output = analysis::run_iw_scan(world.network, world.internet,
                                            http_options());

  ASSERT_GT(output.records.size(), 500u);
  const auto summary = analysis::summarize(output.records);
  EXPECT_GT(summary.reachable, 300u);
  // Table 1 shape: success around half, few-data most of the rest, errors
  // marginal.
  EXPECT_GT(summary.success_rate(), 0.35);
  EXPECT_LT(summary.success_rate(), 0.70);
  EXPECT_GT(summary.few_data_rate(), 0.25);
  EXPECT_LT(summary.error_rate(), 0.06);
}

TEST(Integration, TlsScanHasHigherSuccessRateThanHttp) {
  SmallInternet http_world;
  const auto http = analysis::run_iw_scan(http_world.network, http_world.internet,
                                          http_options());
  SmallInternet tls_world;
  const auto tls = analysis::run_iw_scan(tls_world.network, tls_world.internet,
                                         tls_options());

  const auto http_summary = analysis::summarize(http.records);
  const auto tls_summary = analysis::summarize(tls.records);
  // §4 "Success rates": TLS probing succeeds far more often (85.6% vs
  // 50.8%) because certificate chains supply the data.
  EXPECT_GT(tls_summary.success_rate(), http_summary.success_rate() + 0.15);
  EXPECT_GT(tls_summary.success_rate(), 0.70);
}

TEST(Integration, StandardIwsDominate) {
  SmallInternet world;
  const auto output = analysis::run_iw_scan(world.network, world.internet,
                                            http_options());
  const auto fractions = analysis::iw_fractions(output.records);

  double standard = 0.0;
  for (const std::uint32_t iw : {1u, 2u, 3u, 4u, 10u}) {
    if (const auto it = fractions.find(iw); it != fractions.end()) {
      standard += it->second;
    }
  }
  // Fig. 3: IWs 1/2/4/10 cover > 97% (we include 3 as the paper's x-axis
  // does); our synthetic population keeps the same dominance.
  EXPECT_GT(standard, 0.90);
  ASSERT_TRUE(fractions.contains(10));
  EXPECT_GT(fractions.at(10), 0.25);
}

TEST(Integration, EstimatesMatchGroundTruth) {
  SmallInternet world;
  const auto output = analysis::run_iw_scan(world.network, world.internet,
                                            http_options());

  std::uint64_t checked = 0;
  std::uint64_t exact = 0;
  for (const auto& record : output.records) {
    if (record.outcome != core::HostOutcome::Success) continue;
    const auto gt = world.internet.truth(record.ip);
    ASSERT_TRUE(gt.present);
    const std::uint32_t expected = gt.true_iw_segments(/*for_tls=*/false, 64);
    ++checked;
    if (record.iw_segments == expected) ++exact;
    EXPECT_LE(record.iw_segments, expected)
        << record.ip.to_string() << ": overestimate";
  }
  ASSERT_GT(checked, 200u);
  // Near-perfect accuracy at 0.2% loss; tail loss may shave a few.
  EXPECT_GT(static_cast<double>(exact) / static_cast<double>(checked), 0.97);
}

TEST(Integration, FewDataLowerBoundsNeverExceedTruth) {
  SmallInternet world;
  const auto output = analysis::run_iw_scan(world.network, world.internet,
                                            http_options());

  std::uint64_t few = 0;
  for (const auto& record : output.records) {
    if (record.outcome != core::HostOutcome::FewData) continue;
    const auto gt = world.internet.truth(record.ip);
    const std::uint32_t truth = gt.true_iw_segments(false, 64);
    ++few;
    EXPECT_LE(record.lower_bound, truth)
        << record.ip.to_string() << ": bound above the real IW";
  }
  EXPECT_GT(few, 100u);
}

TEST(Integration, SamplingIsDeterministicAndScansSubset) {
  analysis::ScanOptions options = http_options();
  options.sample_fraction = 0.25;
  SmallInternet world_a;
  const auto a = analysis::run_iw_scan(world_a.network, world_a.internet, options);
  SmallInternet world_b;
  const auto b = analysis::run_iw_scan(world_b.network, world_b.internet, options);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_TRUE(a.records[i] == b.records[i]) << "record " << i;
  }
  EXPECT_LT(a.engine.targets_started, world_a.internet.registry().scan_space_size() / 2);
}

TEST(Integration, PopularSpaceIsIw10Dominated) {
  SmallInternet world(15);
  analysis::ScanOptions options = http_options();
  options.allow = world.internet.registry().popular_space();
  const auto output = analysis::run_iw_scan(world.network, world.internet, options);

  const auto summary = analysis::summarize(output.records);
  ASSERT_GT(summary.success, 50u);
  // Fig. 4: popular hosts succeed more often and are dominated by IW 10.
  EXPECT_GT(summary.success_rate(), 0.65);
  const auto fractions = analysis::iw_fractions(output.records);
  ASSERT_TRUE(fractions.contains(10));
  EXPECT_GT(fractions.at(10), 0.70);
}

TEST(Integration, ShardedScannersPartitionTheWork) {
  // Distributed scanning (ZMap's shard model): two engines with disjoint
  // shards of the same permutation must cover every host exactly once.
  SmallInternet world;
  std::vector<core::HostScanRecord> all_records;

  for (std::uint64_t shard = 0; shard < 2; ++shard) {
    core::IwScanConfig probe;
    probe.protocol = core::ProbeProtocol::Http;
    probe.port = 80;
    scan::GeneratorTargetSource targets(scan::TargetGenerator(
        world.internet.registry().scan_space(), {}, /*seed=*/7, 1.0, shard, 2));
    core::IwProbeModule module(probe, [&](const core::HostScanRecord& record) {
      all_records.push_back(record);
    });
    scan::EngineConfig engine_config;
    engine_config.scanner_address =
        net::IPv4Address{192, 0, 2, static_cast<std::uint8_t>(10 + shard)};
    engine_config.rate_pps = 40'000;
    scan::ScanEngine engine(world.network, engine_config, targets, module);
    engine.start();
    while (!engine.done() && world.loop.step()) {
    }
  }

  std::set<net::IPv4Address> unique;
  for (const auto& record : all_records) {
    EXPECT_TRUE(unique.insert(record.ip).second)
        << record.ip.to_string() << " probed by both shards";
  }
  EXPECT_EQ(all_records.size(),
            world.internet.registry().scan_space_size());
}

TEST(Integration, HostsAreEvictedAfterScan) {
  SmallInternet world;
  const auto output = analysis::run_iw_scan(world.network, world.internet,
                                            http_options());
  ASSERT_GT(output.records.size(), 100u);
  // Drain the remaining idle/sweep events for a minute of virtual time.
  world.loop.run_until(world.loop.now() + sim::sec(60));
  EXPECT_LT(world.internet.live_hosts(), world.internet.hosts_instantiated() / 10)
      << "sweeper failed to evict quiescent hosts";
}

}  // namespace
}  // namespace iwscan
