// The parallel scan executor: channel/pool primitives, shard planning,
// stats merging, and the headline invariant — a sharded scan is
// byte-identical to the single-shard scan for any shard count.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/scan_runner.hpp"
#include "exec/channel.hpp"
#include "exec/executor.hpp"
#include "exec/shard_plan.hpp"
#include "exec/thread_pool.hpp"
#include "inetmodel/internet.hpp"
#include "testbed.hpp"

namespace iwscan::exec {
namespace {

// ------------------------------------------------------------- channel ----

TEST(BoundedChannel, FifoWithinOneThread) {
  BoundedChannel<int> channel(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(channel.push(i));
  for (int i = 0; i < 5; ++i) {
    const auto value = channel.pop();
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, i);
  }
}

TEST(BoundedChannel, CloseDrainsQueuedItemsThenReportsExhaustion) {
  BoundedChannel<int> channel(8);
  EXPECT_TRUE(channel.push(1));
  EXPECT_TRUE(channel.push(2));
  channel.close();
  EXPECT_FALSE(channel.push(3));  // producers see the closed channel
  EXPECT_EQ(channel.pop(), 1);
  EXPECT_EQ(channel.pop(), 2);
  EXPECT_EQ(channel.pop(), std::nullopt);
}

TEST(BoundedChannel, BoundedCapacityBlocksProducerUntilConsumed) {
  BoundedChannel<int> channel(2);
  std::atomic<int> produced{0};
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(channel.push(i));
      produced.fetch_add(1);
    }
  });
  int expected = 0;
  while (expected < 100) {
    const auto value = channel.pop();
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, expected);  // single producer keeps FIFO order
    ++expected;
  }
  producer.join();
  EXPECT_EQ(produced.load(), 100);
}

TEST(BoundedChannel, ManyProducersDeliverEverything) {
  BoundedChannel<int> channel(4);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&channel, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(channel.push(p * kPerProducer + i));
      }
    });
  }
  std::set<int> received;
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    const auto value = channel.pop();
    ASSERT_TRUE(value.has_value());
    EXPECT_TRUE(received.insert(*value).second);
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(received.size(), static_cast<std::size_t>(kProducers * kPerProducer));
}

// --------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
  for (int i = 0; i < 10; ++i) pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPool, ZeroRequestedThreadsStillRuns) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait();
  EXPECT_TRUE(ran.load());
}

// ---------------------------------------------------------- shard plan ----

TEST(ShardPlan, DividesRateAndSessionBudgetEvenly) {
  const ShardPlan plan = ShardPlan::make(4, 100'000, 20'000);
  ASSERT_EQ(plan.shards.size(), 4u);
  for (std::uint64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(plan.shards[k].shard, k);
    EXPECT_EQ(plan.shards[k].total_shards, 4u);
    EXPECT_DOUBLE_EQ(plan.shards[k].rate_pps, 25'000.0);
    EXPECT_EQ(plan.shards[k].max_outstanding, 5'000u);
  }
}

TEST(ShardPlan, ClampsDegenerateInputs) {
  const ShardPlan zero = ShardPlan::make(0, 1000, 100);
  ASSERT_EQ(zero.shards.size(), 1u);
  // More shards than sessions: every worker still gets one session slot.
  const ShardPlan thin = ShardPlan::make(8, 1000, 4);
  for (const ShardSpec& spec : thin.shards) {
    EXPECT_EQ(spec.max_outstanding, 1u);
  }
}

// --------------------------------------------------------- EngineStats ----

TEST(EngineStats, AccumulationSumsCountersAndTakesTimeEnvelope) {
  scan::EngineStats a;
  a.targets_started = 10;
  a.targets_finished = 9;
  a.packets_sent = 100;
  a.packets_received = 80;
  a.stray_packets = 1;
  a.started_at = sim::msec(5);
  a.finished_at = sim::msec(50);

  scan::EngineStats b;
  b.targets_started = 4;
  b.targets_finished = 4;
  b.packets_sent = 40;
  b.packets_received = 39;
  b.stray_packets = 2;
  b.started_at = sim::msec(2);
  b.finished_at = sim::msec(30);

  a += b;
  EXPECT_EQ(a.targets_started, 14u);
  EXPECT_EQ(a.targets_finished, 13u);
  EXPECT_EQ(a.packets_sent, 140u);
  EXPECT_EQ(a.packets_received, 119u);
  EXPECT_EQ(a.stray_packets, 3u);
  EXPECT_EQ(a.started_at, sim::msec(2));
  EXPECT_EQ(a.finished_at, sim::msec(50));
}

// ------------------------------------------------- sharded scan runner ----

// A fresh small world per run: byte-identity across shard counts is
// guaranteed for identically-seeded worlds (a reused loop would have
// advanced its per-flow impairment streams).
struct FreshWorld {
  sim::EventLoop loop;
  sim::Network network{loop, 123};
  model::InternetModel internet;

  FreshWorld() : internet(network, make_config()) { internet.install(); }

  static model::ModelConfig make_config() {
    model::ModelConfig config;
    config.scale_log2 = 12;  // 4 Ki addresses — the smallest supported world
    return config;
  }
};

analysis::ScanOutput scan_with_shards(std::uint64_t shards) {
  FreshWorld world;
  analysis::ScanOptions options;
  options.protocol = core::ProbeProtocol::Http;
  options.rate_pps = 40'000;
  options.scan_seed = 7;
  options.shards = shards;
  return analysis::run_iw_scan(world.network, world.internet, options);
}

TEST(ScanExecutor, ShardedScanIsByteIdenticalToSingleShard) {
  const analysis::ScanOutput baseline = scan_with_shards(1);
  ASSERT_FALSE(baseline.records.empty());

  for (const std::uint64_t shards : {2u, 4u, 8u}) {
    const analysis::ScanOutput sharded = scan_with_shards(shards);
    // Records: identical content in identical order (field-wise equality).
    ASSERT_EQ(sharded.records.size(), baseline.records.size()) << shards;
    for (std::size_t i = 0; i < baseline.records.size(); ++i) {
      EXPECT_TRUE(sharded.records[i] == baseline.records[i])
          << "record " << i << " diverges at shards=" << shards << " (ip "
          << baseline.records[i].ip.to_string() << ")";
    }
    // Engine counters: summed shard stats equal the single-shard stats.
    EXPECT_EQ(sharded.engine.targets_started, baseline.engine.targets_started);
    EXPECT_EQ(sharded.engine.targets_finished, baseline.engine.targets_finished);
    EXPECT_EQ(sharded.engine.packets_sent, baseline.engine.packets_sent);
    EXPECT_EQ(sharded.engine.packets_received, baseline.engine.packets_received);
    EXPECT_EQ(sharded.engine.stray_packets, baseline.engine.stray_packets);
    EXPECT_EQ(sharded.address_space, baseline.address_space);
  }
}

TEST(ScanExecutor, ImpairedPathsKeepShardedByteIdentity) {
  // Per-flow impairment RNGs are keyed by (network seed, flow), so loss,
  // reordering and duplication replay identically in every shard's world —
  // the identity must survive a meaningfully lossy Internet.
  auto run = [](std::uint64_t shards) {
    sim::EventLoop loop;
    sim::Network network(loop, 123);
    model::ModelConfig config;
    config.scale_log2 = 12;
    config.loss_rate = 0.02;
    config.reorder_rate = 0.01;
    config.duplicate_rate = 0.005;
    model::InternetModel internet(network, config);
    internet.install();
    analysis::ScanOptions options;
    options.rate_pps = 40'000;
    options.scan_seed = test::env_scan_seed(7);
    options.shards = shards;
    return analysis::run_iw_scan(network, internet, options);
  };
  const analysis::ScanOutput baseline = run(1);
  ASSERT_FALSE(baseline.records.empty());
  for (const std::uint64_t shards : {2u, 4u}) {
    const analysis::ScanOutput sharded = run(shards);
    ASSERT_EQ(sharded.records.size(), baseline.records.size()) << shards;
    for (std::size_t i = 0; i < baseline.records.size(); ++i) {
      ASSERT_TRUE(sharded.records[i] == baseline.records[i])
          << "record " << i << " diverges at shards=" << shards << " (ip "
          << baseline.records[i].ip.to_string() << ")";
    }
  }
}

TEST(ScanExecutor, AdversarialHostsKeepShardedByteIdentity) {
  // Hostile stacks (tarpits, slowloris, RST injectors…) respond only to
  // their own flow's clock, so mixing them in must not break the merge.
  auto run = [](std::uint64_t shards) {
    sim::EventLoop loop;
    sim::Network network(loop, 123);
    model::ModelConfig config;
    config.scale_log2 = 12;
    config.adversarial_fraction = 0.15;
    model::InternetModel internet(network, config);
    internet.install();
    analysis::ScanOptions options;
    options.rate_pps = 40'000;
    options.scan_seed = test::env_scan_seed(7);
    options.shards = shards;
    return analysis::run_iw_scan(network, internet, options);
  };
  const analysis::ScanOutput baseline = run(1);
  ASSERT_FALSE(baseline.records.empty());
  bool anomaly_seen = false;
  for (const core::HostScanRecord& record : baseline.records) {
    if (record.anomaly != core::ProbeAnomaly::None) anomaly_seen = true;
  }
  EXPECT_TRUE(anomaly_seen);  // the mix actually contains hostile hosts
  for (const std::uint64_t shards : {2u, 4u}) {
    const analysis::ScanOutput sharded = run(shards);
    ASSERT_EQ(sharded.records.size(), baseline.records.size()) << shards;
    for (std::size_t i = 0; i < baseline.records.size(); ++i) {
      ASSERT_TRUE(sharded.records[i] == baseline.records[i])
          << "record " << i << " diverges at shards=" << shards << " (ip "
          << baseline.records[i].ip.to_string() << ")";
    }
    EXPECT_EQ(sharded.engine.sessions_killed_wall,
              baseline.engine.sessions_killed_wall);
  }
}

TEST(ScanExecutor, SampledShardedScanMatchesSingleShard) {
  auto run = [](std::uint64_t shards) {
    FreshWorld world;
    analysis::ScanOptions options;
    options.rate_pps = 40'000;
    options.scan_seed = 11;
    options.sample_fraction = 0.5;
    options.shards = shards;
    return analysis::run_iw_scan(world.network, world.internet, options);
  };
  const analysis::ScanOutput baseline = run(1);
  const analysis::ScanOutput sharded = run(3);
  ASSERT_EQ(sharded.records.size(), baseline.records.size());
  for (std::size_t i = 0; i < baseline.records.size(); ++i) {
    EXPECT_TRUE(sharded.records[i] == baseline.records[i]) << "record " << i;
  }
}

TEST(ScanExecutor, EmptyAllowIsTheRegistryScanSpace) {
  auto run = [](bool explicit_allow) {
    FreshWorld world;
    analysis::ScanOptions options;
    options.rate_pps = 40'000;
    if (explicit_allow) options.allow = world.internet.registry().scan_space();
    return analysis::run_iw_scan(world.network, world.internet, options);
  };
  const analysis::ScanOutput implicit = run(false);
  const analysis::ScanOutput listed = run(true);
  ASSERT_FALSE(implicit.records.empty());
  ASSERT_EQ(listed.records.size(), implicit.records.size());
  for (std::size_t i = 0; i < implicit.records.size(); ++i) {
    EXPECT_TRUE(listed.records[i] == implicit.records[i]) << "record " << i;
  }
  EXPECT_EQ(listed.engine.targets_started, implicit.engine.targets_started);
  EXPECT_EQ(listed.engine.targets_finished, implicit.engine.targets_finished);
  EXPECT_EQ(listed.engine.packets_sent, implicit.engine.packets_sent);
  EXPECT_EQ(listed.engine.packets_received, implicit.engine.packets_received);
  EXPECT_EQ(listed.engine.stray_packets, implicit.engine.stray_packets);
  EXPECT_EQ(listed.engine.finished_at, implicit.engine.finished_at);
  EXPECT_EQ(listed.duration, implicit.duration);
  EXPECT_EQ(listed.address_space, implicit.address_space);
}

TEST(ScanExecutorDeathTest, InvalidProcessStrideAborts) {
  // A zero stride would revisit index 0 forever; shard 3 of 2 would walk
  // shard 1's stride from index 3 on, overlapping it and dropping index 1.
  auto run = [](std::uint64_t shard, std::uint64_t shards) {
    FreshWorld world;
    analysis::ScanOptions options;
    options.rate_pps = 40'000;
    options.process_shard = shard;
    options.process_shards = shards;
    (void)analysis::run_iw_scan(world.network, world.internet, options);
  };
  EXPECT_DEATH(run(0, 0), "process_shard 0, process_shards 0");
  EXPECT_DEATH(run(3, 2), "process_shard 3, process_shards 2");
}

TEST(ScanExecutorDeathTest, InvalidRateOrFractionAborts) {
  // Rates used to fall back to a hidden 1 pps, and a fraction outside
  // (0, 1] reached expected_records' double -> size_t cast.
  auto run = [](auto tweak) {
    FreshWorld world;
    analysis::ScanOptions options;
    options.rate_pps = 40'000;
    options.allow = {*net::Cidr::parse("10.0.0.0/28")};
    tweak(options);
    (void)analysis::run_iw_scan(world.network, world.internet, options);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(run([](auto& o) { o.rate_pps = -5; }), "rate_pps -5: need a finite rate > 0");
  EXPECT_DEATH(run([](auto& o) { o.rate_pps = 0; }), "rate_pps 0: need");
  EXPECT_DEATH(run([&](auto& o) { o.rate_pps = nan; }), "rate_pps nan: need");
  EXPECT_DEATH(run([&](auto& o) { o.rate_pps = inf; }), "rate_pps inf: need");
  EXPECT_DEATH(run([](auto& o) {
                 o.two_phase = true;
                 o.sweep_rate_pps = 0;
               }),
               "sweep_rate_pps 0: need a finite rate > 0");
  EXPECT_DEATH(run([](auto& o) { o.sample_fraction = 0; }),
               "sample_fraction 0: need a value in .0, 1.");
  EXPECT_DEATH(run([](auto& o) { o.sample_fraction = -0.5; }), "sample_fraction -0.5");
  EXPECT_DEATH(run([](auto& o) { o.sample_fraction = 1.5; }), "sample_fraction 1.5");
  EXPECT_DEATH(run([&](auto& o) { o.sample_fraction = nan; }), "sample_fraction nan");
}

TEST(ScanExecutorDeathTest, ReusedWorldAborts) {
  // At shards=1 a second scan would run on the first scan's hosts and
  // flows; at shards>1 on private fresh worlds. The outputs would differ
  // with the shard count, so run_scan refuses a used world outright.
  auto run = [] {
    FreshWorld world;
    analysis::ScanOptions options;
    options.rate_pps = 40'000;
    options.allow = {*net::Cidr::parse("10.0.0.0/28")};
    (void)analysis::run_iw_scan(world.network, world.internet, options);
    (void)analysis::run_iw_scan(world.network, world.internet, options);
  };
  EXPECT_DEATH(run(), "this one was used by an earlier scan");
}

struct ProgressCase {
  const char* name = "";
  bool two_phase = false;
  std::uint64_t max_promoted_hosts = 0;
  std::uint64_t shards = 1;
  std::uint64_t progress_interval = 1024;
};

void PrintTo(const ProgressCase& mode, std::ostream* os) { *os << mode.name; }

class ProgressSnapshotsAreMonotoneAndComplete
    : public ::testing::TestWithParam<ProgressCase> {};

TEST_P(ProgressSnapshotsAreMonotoneAndComplete, InEveryMode) {
  const ProgressCase& mode = GetParam();
  FreshWorld world;
  analysis::ScanOptions options;
  options.rate_pps = 40'000;
  options.shards = mode.shards;
  options.progress_interval = mode.progress_interval;
  options.two_phase = mode.two_phase;
  options.sweep_rate_pps = 400'000;
  options.max_promoted_hosts = mode.max_promoted_hosts;
  std::vector<ProgressSnapshot> snapshots;
  options.progress = [&snapshots](const ProgressSnapshot& snap) {
    snapshots.push_back(snap);
  };
  const analysis::ScanOutput output =
      analysis::run_iw_scan(world.network, world.internet, options);

  ASSERT_GT(snapshots.size(), mode.shards);  // interval snapshots, not just shard ends
  std::uint64_t last_merged = 0;
  std::uint64_t last_done = 0;
  for (const ProgressSnapshot& snap : snapshots) {
    EXPECT_GE(snap.records_merged, last_merged);
    EXPECT_GE(snap.shards_done, last_done);
    EXPECT_GE(snap.targets_started, snap.records_merged);
    EXPECT_EQ(snap.shards_total, mode.shards);
    last_merged = snap.records_merged;
    last_done = snap.shards_done;
  }
  const ProgressSnapshot& final_snap = snapshots.back();
  EXPECT_EQ(final_snap.shards_done, final_snap.shards_total);
  EXPECT_EQ(final_snap.records_merged, output.records.size());
}

INSTANTIATE_TEST_SUITE_P(
    ScanExecutor, ProgressSnapshotsAreMonotoneAndComplete,
    ::testing::Values(ProgressCase{"stateful", false, 0, 2, 16},
                      ProgressCase{"two_phase_uncapped", true, 0, 4, 4},
                      ProgressCase{"two_phase_capped", true, 64, 4, 4}),
    [](const ::testing::TestParamInfo<ProgressCase>& info) {
      return std::string(info.param.name);
    });

TEST(ScanExecutor, MoreShardsThanTargetsStillCoversEverything) {
  // 16 addresses across 8 shards: some workers get two targets, none get
  // zero-probed garbage, and the merge still matches shards=1.
  auto run = [](std::uint64_t shards) {
    FreshWorld world;
    exec::ScanOptions job;
    job.protocol = core::ProbeProtocol::Http;
    job.rate_pps = 40'000;
    job.scan_seed = 5;
    job.allow = {*net::Cidr::parse("10.0.0.0/28")};
    job.shards = shards;
    return run_scan(job, world.network, world.internet);
  };
  const ScanResult baseline = run(1);
  const ScanResult sharded = run(8);
  ASSERT_EQ(sharded.records.size(), baseline.records.size());
  for (std::size_t i = 0; i < baseline.records.size(); ++i) {
    EXPECT_TRUE(sharded.records[i] == baseline.records[i]) << "record " << i;
  }
  EXPECT_EQ(sharded.engine.targets_started, baseline.engine.targets_started);
}

}  // namespace
}  // namespace iwscan::exec
