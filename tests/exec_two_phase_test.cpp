// The two-phase executor: stateless sweep feeding the stateful estimator.
// Pins the headline invariants — byte-identical output for any shard count,
// phase-2 records identical to a stateful-everywhere scan restricted to the
// responsive set, deterministic promotion truncation, and the stateless
// tier's no-state/no-stall behavior against the hostile-host battery
// (inetmodel/adversarial.hpp).
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/scan_runner.hpp"
#include "exec/executor.hpp"
#include "inetmodel/adversarial.hpp"
#include "inetmodel/internet.hpp"
#include "scanner/stateless.hpp"
#include "testbed.hpp"

namespace iwscan::exec {
namespace {

// A fresh small world per run: byte-identity across shard counts is
// guaranteed for identically-seeded worlds (a reused loop would have
// advanced its per-flow impairment streams).
struct FreshWorld {
  sim::EventLoop loop;
  sim::Network network{loop, 123};
  model::InternetModel internet;

  explicit FreshWorld(model::ModelConfig config = make_config())
      : internet(network, config) {
    internet.install();
  }

  static model::ModelConfig make_config() {
    model::ModelConfig config;
    config.scale_log2 = 12;  // 4 Ki addresses — the smallest supported world
    return config;
  }
};

analysis::ScanOptions two_phase_options(std::uint64_t shards,
                                        std::uint64_t max_promoted = 0,
                                        std::uint64_t seed = 7) {
  analysis::ScanOptions options;
  options.protocol = core::ProbeProtocol::Http;
  options.rate_pps = 40'000;
  options.scan_seed = seed;
  options.shards = shards;
  options.two_phase = true;
  options.sweep_rate_pps = 400'000;
  options.max_promoted_hosts = max_promoted;
  return options;
}

analysis::ScanOutput run_two_phase(std::uint64_t shards,
                                   std::uint64_t max_promoted = 0,
                                   std::uint64_t seed = 7) {
  FreshWorld world;
  return analysis::run_iw_scan(world.network, world.internet,
                               two_phase_options(shards, max_promoted, seed));
}

/// The addresses a standalone sweep finds responsive on a fresh world built
/// like the scan's: the two-phase scan's promotion set.
std::unordered_set<std::uint32_t> responsive_set(const model::ModelConfig& config,
                                                 const analysis::ScanOptions& options) {
  FreshWorld world(config);
  scan::SweepConfig sweep_config;
  sweep_config.rate_pps = options.sweep_rate_pps;
  sweep_config.seed = options.scan_seed;
  std::unordered_set<std::uint32_t> responsive;
  scan::TargetGenerator targets(world.internet.registry().scan_space(), {},
                                options.scan_seed);
  scan::StatelessSweep sweep(
      world.network, sweep_config, std::move(targets),
      [&responsive](const scan::SweepEvent& event) {
        if (event.kind == scan::SweepEventKind::Responsive) {
          responsive.insert(event.source.value());
        }
      });
  sweep.start();
  while (!sweep.done() && world.loop.step()) {
  }
  return responsive;
}

void expect_identical(const analysis::ScanOutput& got,
                      const analysis::ScanOutput& want, std::uint64_t shards) {
  ASSERT_EQ(got.records.size(), want.records.size()) << shards;
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    ASSERT_TRUE(got.records[i] == want.records[i])
        << "record " << i << " diverges at shards=" << shards << " (ip "
        << want.records[i].ip.to_string() << ")";
  }
  EXPECT_EQ(got.promoted, want.promoted) << shards;
  EXPECT_EQ(got.truncated, want.truncated) << shards;
}

// ------------------------------------------------ sharded byte-identity ----

TEST(TwoPhaseScan, ShardedTwoPhaseScanIsByteIdenticalToSingleShard) {
  const analysis::ScanOutput baseline = run_two_phase(1);
  ASSERT_FALSE(baseline.records.empty());
  EXPECT_EQ(baseline.promoted, baseline.records.size());
  // The sweep tiers the population: open and closed ports show up as their
  // own buckets.
  EXPECT_GT(baseline.sweep.responsive, 0u);
  EXPECT_GT(baseline.sweep.closed, 0u);

  for (const std::uint64_t shards : {2u, 4u}) {
    const analysis::ScanOutput sharded = run_two_phase(shards);
    expect_identical(sharded, baseline, shards);
    // Counter invariants survive the shard split.
    EXPECT_EQ(sharded.sweep.responsive, baseline.sweep.responsive);
    EXPECT_EQ(sharded.sweep.closed, baseline.sweep.closed);
    EXPECT_EQ(sharded.sweep.targets_probed, baseline.sweep.targets_probed);
    EXPECT_EQ(sharded.engine.targets_started, baseline.engine.targets_started);
    EXPECT_EQ(sharded.engine.targets_finished, baseline.engine.targets_finished);
    EXPECT_EQ(sharded.address_space, baseline.address_space);
  }
}

TEST(TwoPhaseScan, AdversarialHostsKeepTwoPhaseByteIdentity) {
  auto run = [](std::uint64_t shards) {
    model::ModelConfig config;
    config.scale_log2 = 12;
    config.adversarial_fraction = 0.15;
    FreshWorld world(config);
    return analysis::run_iw_scan(world.network, world.internet,
                                 two_phase_options(shards, 0, test::env_scan_seed(7)));
  };
  const analysis::ScanOutput baseline = run(1);
  ASSERT_FALSE(baseline.records.empty());
  bool anomaly_seen = false;
  for (const core::HostScanRecord& record : baseline.records) {
    if (record.anomaly != core::ProbeAnomaly::None) anomaly_seen = true;
  }
  EXPECT_TRUE(anomaly_seen);  // the promoted set actually contains hostiles
  for (const std::uint64_t shards : {2u, 4u}) {
    const analysis::ScanOutput sharded = run(shards);
    expect_identical(sharded, baseline, shards);
  }
}

// ------------------------------------- phase 2 vs. stateful-everywhere ----

TEST(TwoPhaseScan, PhaseTwoMatchesStatefulScanRestrictedToResponsiveSet) {
  // A clean world, and iwbench's hostile_lossy world: tarpits, CDN pacing,
  // loss, reordering and duplicates. Hosts the sweep touched may be evicted
  // during its cooldown and rebuilt for phase 2; that must not show either.
  model::ModelConfig hostile = FreshWorld::make_config();
  hostile.adversarial_fraction = 0.05;
  hostile.cdn_fraction = 0.30;
  hostile.loss_rate = 0.02;
  hostile.reorder_rate = 0.01;
  hostile.duplicate_rate = 0.005;
  const std::pair<const char*, model::ModelConfig> worlds[] = {
      {"clean", FreshWorld::make_config()}, {"hostile_lossy", hostile}};
  for (const auto& [name, config] : worlds) {
    for (const std::uint64_t shards : {1u, 2u}) {
      SCOPED_TRACE(std::string(name) + " world, shards=" + std::to_string(shards));
      FreshWorld two_phase_world(config);
      const analysis::ScanOutput two_phase = analysis::run_iw_scan(
          two_phase_world.network, two_phase_world.internet, two_phase_options(shards));
      ASSERT_FALSE(two_phase.records.empty());
      const std::unordered_set<std::uint32_t> promoted =
          responsive_set(config, two_phase_options(shards));
      EXPECT_EQ(promoted.size(), two_phase.promoted);

      FreshWorld stateful_world(config);
      analysis::ScanOptions stateful = two_phase_options(shards);
      stateful.two_phase = false;
      const analysis::ScanOutput everywhere = analysis::run_iw_scan(
          stateful_world.network, stateful_world.internet, stateful);
      ASSERT_GT(everywhere.records.size(), two_phase.records.size());

      std::vector<core::HostScanRecord> expected;
      for (const core::HostScanRecord& record : everywhere.records) {
        if (promoted.contains(record.ip.value())) expected.push_back(record);
      }
      // Running the sweep first must not change a single bit of what the
      // stateful tier measures — the tiers ride disjoint flows.
      ASSERT_EQ(two_phase.records.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_TRUE(two_phase.records[i] == expected[i])
            << "record " << i << " (ip " << expected[i].ip.to_string() << ")";
      }
    }
  }
}

// ------------------------------------------------- promotion truncation ----

TEST(TwoPhaseScan, MaxPromotedHostsTruncatesToLowestCycleIndices) {
  const analysis::ScanOutput full = run_two_phase(1);
  ASSERT_GT(full.promoted, 2u);
  EXPECT_EQ(full.truncated, 0u);

  const std::uint64_t cap = full.promoted / 2;
  const analysis::ScanOutput capped = run_two_phase(1, cap);
  EXPECT_EQ(capped.promoted, cap);
  EXPECT_EQ(capped.truncated, full.promoted - cap);
  // The sweep itself is unaffected by the cap.
  EXPECT_EQ(capped.sweep.responsive, full.sweep.responsive);
  EXPECT_EQ(capped.sweep.closed, full.sweep.closed);
  EXPECT_EQ(capped.sweep.packets_sent, full.sweep.packets_sent);
  // Phase 2 ran against exactly the first `cap` promoted hosts in global
  // permutation-cycle order — a prefix of the uncapped run's records.
  ASSERT_EQ(capped.records.size(), cap);
  for (std::size_t i = 0; i < capped.records.size(); ++i) {
    ASSERT_TRUE(capped.records[i] == full.records[i])
        << "record " << i << " (ip " << full.records[i].ip.to_string() << ")";
  }

  // The truncation is global: any shard count picks the same K hosts, also
  // with more shards than pool threads (8 shards on a 4-thread machine).
  for (const std::uint64_t shards : {2u, 4u, 8u}) {
    const analysis::ScanOutput sharded = run_two_phase(shards, cap);
    expect_identical(sharded, capped, shards);
  }
}

TEST(TwoPhaseScan, CapAboveResponsiveCountPromotesEverything) {
  const analysis::ScanOutput full = run_two_phase(1);
  const analysis::ScanOutput capped = run_two_phase(1, full.promoted + 100);
  EXPECT_EQ(capped.promoted, full.promoted);
  EXPECT_EQ(capped.truncated, 0u);
  ASSERT_EQ(capped.records.size(), full.records.size());
  for (std::size_t i = 0; i < full.records.size(); ++i) {
    ASSERT_TRUE(capped.records[i] == full.records[i]) << i;
  }
}

// ------------------------------------------------ hostile battery sweep ----

TEST(StatelessSweepAdversarial, HostileBatteryHoldsNoStateAndAlwaysFinishes) {
  // The PR 5 battery's wire-level pathologies, through the stateless tier:
  // a tarpit that goes silent, a zero-window staller, and an RST injector.
  // The sweep must finish on its own cooldown, classify the host as
  // responsive, and — by construction — hold zero per-host sessions.
  for (const model::AdversarialBehavior behavior :
       {model::AdversarialBehavior::Tarpit, model::AdversarialBehavior::ZeroWindow,
        model::AdversarialBehavior::RstInjector}) {
    sim::EventLoop loop;
    sim::Network network(loop, 1);
    sim::PathConfig path;
    path.latency = sim::msec(10);
    network.set_default_path(path);
    const net::IPv4Address target{10, 66, 0, 1};
    const auto host = model::make_adversarial_host(network, target, behavior, 0xfeed);
    network.attach(target, host.get());

    scan::SweepConfig config;
    config.seed = test::env_scan_seed(7);
    std::vector<scan::SweepEvent> events;
    scan::StatelessSweep sweep(
        network, config,
        scan::TargetGenerator({net::Cidr{target, 32}}, {}, config.seed, 1.0),
        [&](const scan::SweepEvent& event) { events.push_back(event); });

    const sim::SimTime deadline = sim::sec(900);
    const sim::SimTime start = loop.now();
    sweep.start();
    while (!sweep.done() && loop.now() - start < deadline && loop.step()) {
    }
    EXPECT_TRUE(sweep.done()) << to_string(behavior);  // no stall, ever
    EXPECT_EQ(sweep.live_sessions(), 0u) << to_string(behavior);
    EXPECT_EQ(sweep.stats().responsive, 1u) << to_string(behavior);
    ASSERT_FALSE(events.empty()) << to_string(behavior);
    EXPECT_EQ(events.front().kind, scan::SweepEventKind::Responsive);
    EXPECT_EQ(events.front().source, target);
    network.detach(target);
  }
}

TEST(StatelessSweepAdversarial, TwoPhaseOverHostilePopulationLeaksNoSessions) {
  // End-to-end: a population with a hostile fraction, run through both
  // tiers. The run must complete with every stateful session reaped (the
  // engine pins live_sessions()==0 via done(); reaching here proves it).
  model::ModelConfig config;
  config.scale_log2 = 12;
  config.adversarial_fraction = 0.25;
  FreshWorld world(config);
  const analysis::ScanOutput output = analysis::run_iw_scan(
      world.network, world.internet, two_phase_options(1, 0, test::env_scan_seed(7)));
  EXPECT_GT(output.sweep.responsive, 0u);
  EXPECT_EQ(output.promoted, output.records.size());
  // Hostile hosts that answered the SYN were promoted and classified by the
  // stateful tier rather than wedging the sweep.
  bool anomaly_seen = false;
  for (const core::HostScanRecord& record : output.records) {
    if (record.anomaly != core::ProbeAnomaly::None) anomaly_seen = true;
  }
  EXPECT_TRUE(anomaly_seen);
}

}  // namespace
}  // namespace iwscan::exec
