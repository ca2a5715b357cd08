// Scanner engine substrate: address permutation, target generation,
// pacing, and the single-exchange probe modules.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string_view>
#include <utility>

#include "httpd/http_server.hpp"
#include "netbase/checksum.hpp"
#include "netbase/packet.hpp"
#include "scanner/icmp_mtu.hpp"
#include "scanner/permutation.hpp"
#include "scanner/scan_engine.hpp"
#include "scanner/stateless.hpp"
#include "scanner/syncookie.hpp"
#include "scanner/targets.hpp"
#include "tcpstack/host.hpp"
#include "util/bytes.hpp"

namespace iwscan::scan {
namespace {

// -------------------------------------------------------- permutation ----

class PermutationDomain : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PermutationDomain, IsABijection) {
  const std::uint64_t domain = GetParam();
  RandomPermutation permutation(domain, 42);
  std::vector<bool> seen(domain, false);
  for (std::uint64_t i = 0; i < domain; ++i) {
    const std::uint64_t image = permutation.permute(i);
    ASSERT_LT(image, domain);
    ASSERT_FALSE(seen[image]) << "collision at index " << i;
    seen[image] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, PermutationDomain,
                         ::testing::Values(1u, 2u, 3u, 7u, 16u, 100u, 257u,
                                           1024u, 5000u, 65536u, 100'000u));

TEST(Permutation, DeterministicPerSeed) {
  RandomPermutation a(1000, 7);
  RandomPermutation b(1000, 7);
  RandomPermutation c(1000, 8);
  bool any_different = false;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.permute(i), b.permute(i));
    any_different |= a.permute(i) != c.permute(i);
  }
  EXPECT_TRUE(any_different);
}

TEST(Permutation, LooksShuffled) {
  // Not a randomness test — just that consecutive indices don't map to
  // consecutive addresses (the whole point of ZMap-style iteration).
  RandomPermutation permutation(1 << 16, 3);
  int adjacent = 0;
  for (std::uint64_t i = 0; i + 1 < 1000; ++i) {
    const auto a = permutation.permute(i);
    const auto b = permutation.permute(i + 1);
    if (b == a + 1 || a == b + 1) ++adjacent;
  }
  EXPECT_LT(adjacent, 5);
}

TEST(Permutation, ShardsPartitionTheDomain) {
  RandomPermutation permutation(1000, 5);
  std::set<std::uint64_t> all;
  for (std::uint64_t shard = 0; shard < 4; ++shard) {
    PermutationIterator it(shard, 4);
    std::uint64_t value = 0;
    while (it.next(permutation, value)) {
      EXPECT_TRUE(all.insert(value).second) << "shards must not overlap";
    }
  }
  EXPECT_EQ(all.size(), 1000u);
}

// ------------------------------------------------------------ targets ----

/// Every address of `blocks`, for comparing a generator's whole emission.
std::set<net::IPv4Address> addresses_of(const std::vector<net::Cidr>& blocks) {
  std::set<net::IPv4Address> out;
  for (const auto& block : blocks) {
    for (std::uint64_t i = 0; i < block.size(); ++i) out.insert(block.at(i));
  }
  return out;
}

TEST(TargetGenerator, VisitsEveryAddressExactlyOnce) {
  TargetGenerator targets({*net::Cidr::parse("10.0.0.0/24"),
                           *net::Cidr::parse("10.0.5.0/25")},
                          {}, 9);
  std::set<net::IPv4Address> seen;
  while (const auto addr = targets.next()) {
    EXPECT_TRUE(seen.insert(*addr).second);
  }
  EXPECT_EQ(seen.size(), 256u + 128u);
  EXPECT_EQ(targets.address_space_size(), 384u);
  // Every address belongs to one of the allow blocks.
  for (const auto& addr : seen) {
    EXPECT_TRUE(net::Cidr::parse("10.0.0.0/24")->contains(addr) ||
                net::Cidr::parse("10.0.5.0/25")->contains(addr));
  }
}

TEST(TargetGenerator, BlocklistIsNeverEmitted) {
  TargetGenerator targets({*net::Cidr::parse("10.0.0.0/24")},
                          {*net::Cidr::parse("10.0.0.128/25")}, 9);
  std::set<net::IPv4Address> seen;
  while (const auto addr = targets.next()) {
    EXPECT_LT(addr->octet(3), 128);
    EXPECT_TRUE(seen.insert(*addr).second);
  }
  // Exactly the unblocked half, each address once.
  EXPECT_EQ(seen, addresses_of({*net::Cidr::parse("10.0.0.0/25")}));
}

TEST(TargetGenerator, SamplingIsDeterministicAndProportional) {
  const std::vector<net::Cidr> space = {*net::Cidr::parse("10.0.0.0/16")};
  TargetGenerator a(space, {}, 42, 0.1);
  TargetGenerator b(space, {}, 42, 0.1);
  std::vector<net::IPv4Address> sample_a;
  while (const auto addr = a.next()) sample_a.push_back(*addr);
  std::vector<net::IPv4Address> sample_b;
  while (const auto addr = b.next()) sample_b.push_back(*addr);
  EXPECT_EQ(sample_a, sample_b);
  EXPECT_NEAR(static_cast<double>(sample_a.size()) / 65536.0, 0.1, 0.01);
}

TEST(TargetGenerator, DifferentSeedsDifferentOrder) {
  const std::vector<net::Cidr> space = {*net::Cidr::parse("10.0.0.0/24")};
  TargetGenerator a(space, {}, 1);
  TargetGenerator b(space, {}, 2);
  int same_position = 0;
  for (int i = 0; i < 256; ++i) {
    if (*a.next() == *b.next()) ++same_position;
  }
  EXPECT_LT(same_position, 20);
}

TEST(TargetGenerator, CopiesAndMovesKeepEmittingTheSameSequence) {
  // Regression: iterator_ points at the generator's own permutation_, so a
  // memberwise copy/move left it aimed at the source object — a dangling
  // read once a temporary source died (ASan stack-use-after-scope via a
  // by-value TargetGenerator parameter, as GeneratorTargetSource takes).
  const std::vector<net::Cidr> space = {*net::Cidr::parse("10.0.0.0/23")};
  TargetGenerator reference(space, {}, 17);
  for (int i = 0; i < 5; ++i) (void)reference.next();

  TargetGenerator copied(reference);
  TargetGenerator move_source(space, {}, 17);
  for (int i = 0; i < 5; ++i) (void)move_source.next();
  TargetGenerator moved(std::move(move_source));
  TargetGenerator copy_assigned(space, {}, 99);
  copy_assigned = reference;
  TargetGenerator move_assigned(space, {}, 99);
  move_assigned = TargetGenerator(copied);

  while (const auto addr = reference.next()) {
    EXPECT_EQ(*copied.next(), *addr);
    EXPECT_EQ(*moved.next(), *addr);
    EXPECT_EQ(*copy_assigned.next(), *addr);
    EXPECT_EQ(*move_assigned.next(), *addr);
  }
  EXPECT_FALSE(copied.next().has_value());
  EXPECT_FALSE(moved.next().has_value());
  EXPECT_FALSE(copy_assigned.next().has_value());
  EXPECT_FALSE(move_assigned.next().has_value());
  EXPECT_EQ(copied.last_cycle_index(), reference.last_cycle_index());
}

TEST(TargetGenerator, ShardedScansPartition) {
  const std::vector<net::Cidr> space = {*net::Cidr::parse("10.0.0.0/22")};
  std::set<net::IPv4Address> all;
  for (std::uint64_t shard = 0; shard < 3; ++shard) {
    TargetGenerator targets(space, {}, 5, 1.0, shard, 3);
    while (const auto addr = targets.next()) {
      EXPECT_TRUE(all.insert(*addr).second);
    }
  }
  EXPECT_EQ(all.size(), 1024u);
}

// ------------------------------------------------ allowlist normalization ----

TEST(TargetGenerator, NestedAndDuplicateAllowBlocksAreMerged) {
  // 10.0.0.0/26 is nested in 10.0.0.0/24, and the /24 repeats: both extras
  // merge away, so every address is emitted exactly once.
  TargetGenerator targets({*net::Cidr::parse("10.0.0.0/24"),
                           *net::Cidr::parse("10.0.0.0/26"),
                           *net::Cidr::parse("10.0.0.0/24"),
                           *net::Cidr::parse("10.1.0.0/24")},
                          {}, 9);
  EXPECT_EQ(targets.address_space_size(), 512u);
  std::set<net::IPv4Address> seen;
  while (const auto addr = targets.next()) {
    EXPECT_TRUE(seen.insert(*addr).second) << addr->to_string();
  }
  EXPECT_EQ(seen, addresses_of({*net::Cidr::parse("10.0.0.0/24"),
                                *net::Cidr::parse("10.1.0.0/24")}));
}

TEST(TargetGenerator, NestedBlockListedBeforeItsParentIsMerged) {
  TargetGenerator targets({*net::Cidr::parse("10.0.0.0/26"),
                           *net::Cidr::parse("10.0.0.0/24")},
                          {}, 9);
  EXPECT_EQ(targets.address_space_size(), 256u);
  std::set<net::IPv4Address> seen;
  while (const auto addr = targets.next()) {
    EXPECT_TRUE(seen.insert(*addr).second) << addr->to_string();
  }
  EXPECT_EQ(seen, addresses_of({*net::Cidr::parse("10.0.0.0/24")}));
}

TEST(TargetGenerator, NormalizationPreservesDisjointInputOrder) {
  // Dropping nested blocks must not disturb the index→address assignment
  // of the surviving blocks: the emission sequence with redundant blocks
  // removed equals the sequence over the already-disjoint input.
  const std::vector<net::Cidr> with_overlap = {
      *net::Cidr::parse("10.0.0.0/25"), *net::Cidr::parse("10.0.0.0/26"),
      *net::Cidr::parse("10.9.0.0/26")};
  const std::vector<net::Cidr> disjoint = {*net::Cidr::parse("10.0.0.0/25"),
                                           *net::Cidr::parse("10.9.0.0/26")};
  TargetGenerator a(with_overlap, {}, 11);
  TargetGenerator b(disjoint, {}, 11);
  EXPECT_EQ(a.address_space_size(), b.address_space_size());
  while (true) {
    const auto addr_a = a.next();
    const auto addr_b = b.next();
    EXPECT_EQ(addr_a, addr_b);
    if (!addr_a || !addr_b) break;
  }
}

// ---------------------------------------------------- shard partitioning ----

TEST(TargetGenerator, ShardUnionEqualsSingleShardEmission) {
  // Property (the contract the parallel executor builds on): for any
  // (seed, N), the N shards' emissions partition the shards=1 emission set
  // — union equal, pairwise disjoint — and no blocked or sampled-out
  // address is emitted.
  const std::vector<net::Cidr> space = {*net::Cidr::parse("10.0.0.0/22"),
                                        *net::Cidr::parse("10.1.0.0/24")};
  const std::vector<net::Cidr> block = {*net::Cidr::parse("10.0.2.0/25")};
  std::set<net::IPv4Address> unsampled = addresses_of(space);
  for (std::uint32_t i = 0; i < 128; ++i) unsampled.erase(block[0].at(i));
  for (const std::uint64_t seed : {3u, 7u, 19u}) {
    for (const std::uint64_t total_shards : {2u, 3u, 4u, 8u}) {
      TargetGenerator whole(space, block, seed, 0.6);
      std::set<net::IPv4Address> single;
      while (const auto addr = whole.next()) single.insert(*addr);

      std::set<net::IPv4Address> merged;
      for (std::uint64_t shard = 0; shard < total_shards; ++shard) {
        TargetGenerator part(space, block, seed, 0.6, shard, total_shards);
        while (const auto addr = part.next()) {
          EXPECT_FALSE(block[0].contains(*addr)) << addr->to_string();
          EXPECT_TRUE(merged.insert(*addr).second)
              << "shards overlap at " << addr->to_string();
        }
      }
      EXPECT_EQ(merged, single) << "seed " << seed << " N " << total_shards;
      // Sampling drops addresses of the unsampled, unblocked space and
      // emits nothing else.
      EXPECT_TRUE(std::includes(unsampled.begin(), unsampled.end(),
                                single.begin(), single.end()));
      EXPECT_LT(single.size(), unsampled.size());
    }
  }
}

TEST(TargetGenerator, CycleIndexRecoversSingleShardOrderAcrossShards) {
  // Tagging each emission with its global cycle index and sorting merges
  // shard streams back into the exact shards=1 order — the deterministic
  // merge key of exec::run_scan.
  const std::vector<net::Cidr> space = {*net::Cidr::parse("10.0.0.0/23")};
  const std::vector<net::Cidr> block = {*net::Cidr::parse("10.0.0.64/26")};
  std::vector<net::IPv4Address> single;
  TargetGenerator whole(space, block, 13, 0.8);
  while (const auto addr = whole.next()) single.push_back(*addr);

  std::vector<std::pair<std::uint64_t, net::IPv4Address>> tagged;
  for (std::uint64_t shard = 0; shard < 4; ++shard) {
    TargetGenerator part(space, block, 13, 0.8, shard, 4);
    while (const auto addr = part.next()) {
      tagged.emplace_back(part.last_cycle_index(), *addr);
    }
  }
  std::sort(tagged.begin(), tagged.end());
  std::vector<net::IPv4Address> merged;
  merged.reserve(tagged.size());
  for (const auto& [cycle, addr] : tagged) merged.push_back(addr);
  EXPECT_EQ(merged, single);
}

// -------------------------------------------------------- scan engine ----

struct EngineRig {
  sim::EventLoop loop;
  sim::Network network{loop, 11};
  std::vector<std::unique_ptr<tcp::TcpHost>> hosts;

  void add_host(net::IPv4Address ip, bool listening) {
    tcp::StackConfig stack;
    stack.iw = tcp::IwConfig::segments_of(10);
    auto host = std::make_unique<tcp::TcpHost>(network, ip, stack, ip.value());
    if (listening) {
      http::WebConfig web;
      web.page_size = 2000;
      host->listen(80, http::HttpServerApp::factory(web));
    }
    network.attach(ip, host.get());
    hosts.push_back(std::move(host));
  }
};

/// Sessions that send nothing and finish one fixed delay after they
/// start: a timer-bound module whose timing the engine tests can predict.
class DelayedModule final : public ProbeModule {
 public:
  static constexpr sim::SimTime kDelay = sim::sec(8);

  std::unique_ptr<ProbeSession> create_session(SessionServices& services,
                                               net::IPv4Address,
                                               std::function<void()> finish) override {
    return std::make_unique<DelayedSession>(services.loop(), std::move(finish));
  }

 private:
  class DelayedSession final : public ProbeSession {
   public:
    DelayedSession(sim::EventLoop& loop, std::function<void()> finish)
        : loop_(loop), finish_(std::move(finish)) {}
    ~DelayedSession() override { loop_.cancel(timer_); }

    void start() override {
      timer_ = loop_.schedule(kDelay, [this] {
        timer_ = sim::kNullEvent;
        finish_();  // may destroy *this
      });
    }
    void on_datagram(const net::Datagram&) override {}

   private:
    sim::EventLoop& loop_;
    std::function<void()> finish_;
    sim::EventId timer_ = sim::kNullEvent;
  };
};

TEST(ScanEngine, PacingSpreadsSessionStarts) {
  EngineRig rig;
  DelayedModule module;
  GeneratorTargetSource targets(
      TargetGenerator({*net::Cidr::parse("10.3.0.0/24")}, {}, 3));
  EngineConfig engine_config;
  engine_config.rate_pps = 1000;  // 1 ms per target → 255 ms to the last start
  ScanEngine engine(rig.network, engine_config, targets, module);
  engine.start();
  while (!engine.done() && rig.loop.step()) {
  }
  // The last session ends one delay after the last start.
  const auto duration = engine.stats().finished_at - engine.stats().started_at;
  EXPECT_GE(duration, DelayedModule::kDelay + sim::msec(255));
  EXPECT_LE(duration, DelayedModule::kDelay + sim::msec(500));
}

TEST(ScanEngine, OutstandingCapThrottles) {
  EngineRig rig;
  // Every session lives one delay.
  DelayedModule module;
  GeneratorTargetSource targets(
      TargetGenerator({*net::Cidr::parse("10.4.0.0/24")}, {}, 3));
  EngineConfig engine_config;
  engine_config.rate_pps = 1'000'000;  // pacing not the bottleneck
  engine_config.max_outstanding = 16;
  ScanEngine engine(rig.network, engine_config, targets, module);
  engine.start();
  while (!engine.done() && rig.loop.step()) {
  }
  // 256 targets / 16 concurrent = 16 back-to-back rounds of one delay.
  EXPECT_GE(engine.stats().finished_at - engine.stats().started_at,
            16 * DelayedModule::kDelay);
  EXPECT_EQ(engine.stats().targets_finished, 256u);
}

/// Sessions that send nothing, arm nothing and finish only when the test
/// calls their finish callback.
class HeldModule final : public ProbeModule {
 public:
  std::unique_ptr<ProbeSession> create_session(SessionServices&, net::IPv4Address,
                                               std::function<void()> finish) override {
    finishes.push_back(std::move(finish));
    return std::make_unique<HeldSession>();
  }

  std::vector<std::function<void()>> finishes;

 private:
  struct HeldSession final : ProbeSession {
    void start() override {}
    void on_datagram(const net::Datagram&) override {}
  };
};

TEST(ScanEngine, FullWindowFiresNoPaceEventsUntilASessionFinishes) {
  EngineRig rig;
  HeldModule module;
  GeneratorTargetSource targets(
      TargetGenerator({*net::Cidr::parse("10.5.0.0/29")}, {}, 3));
  EngineConfig engine_config;
  engine_config.rate_pps = 1'000'000;
  engine_config.max_outstanding = 4;
  engine_config.budget.wall_time = sim::SimTime::zero();  // only the pacer schedules
  ScanEngine engine(rig.network, engine_config, targets, module);
  engine.start();
  // Bounded: a pacer that polls a full window would never drain the loop.
  for (int i = 0; i < 1000 && rig.loop.step(); ++i) {
  }
  ASSERT_EQ(module.finishes.size(), 4u);
  EXPECT_TRUE(rig.loop.empty()) << rig.loop.pending_events() << " events pending";

  // One finish frees one slot: the reap, then one launch an interval
  // later, and one pace event that finds the window full again.
  const std::uint64_t before = rig.loop.events_processed();
  const sim::SimTime freed_at = rig.loop.now();
  module.finishes[0]();
  while (rig.loop.step()) {
  }
  EXPECT_EQ(module.finishes.size(), 5u);
  EXPECT_EQ(rig.loop.events_processed() - before, 3u);
  EXPECT_EQ(rig.loop.now() - freed_at, sim::usec(2));

  for (std::size_t i = 1; i < module.finishes.size(); ++i) {
    module.finishes[i]();
    while (rig.loop.step()) {
    }
  }
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(engine.stats().targets_started, 8u);
  EXPECT_EQ(engine.stats().targets_finished, 8u);
}

// --------------------------------------------------------- ICMP MTU ------

class MtuDiscovery : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MtuDiscovery, FindsConfiguredPathMtu) {
  const std::uint32_t mtu = GetParam();
  EngineRig rig;
  const net::IPv4Address host_ip{10, 6, 0, 1};
  rig.add_host(host_ip, false);
  sim::PathConfig path = rig.network.default_path();
  path.path_mtu = mtu;
  rig.network.set_path(host_ip, path);

  std::vector<MtuProbeResult> results;
  IcmpMtuModule module([&](const MtuProbeResult& r) { results.push_back(r); });
  GeneratorTargetSource targets(
      TargetGenerator({*net::Cidr::parse("10.6.0.1/32")}, {}, 3));
  ScanEngine engine(rig.network, EngineConfig{}, targets, module);
  engine.start();
  while (!engine.done() && rig.loop.step()) {
  }

  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].responded);
  EXPECT_EQ(results[0].path_mtu, mtu);
  EXPECT_EQ(results[0].supported_mss(), mtu - 40);
}

INSTANTIATE_TEST_SUITE_P(Mtus, MtuDiscovery,
                         ::testing::Values(576u, 1376u, 1400u, 1476u, 1492u,
                                           1500u));

TEST(MtuDiscovery, DarkHostIsUnresponsive) {
  EngineRig rig;
  std::vector<MtuProbeResult> results;
  IcmpMtuModule module([&](const MtuProbeResult& r) { results.push_back(r); });
  GeneratorTargetSource targets(
      TargetGenerator({*net::Cidr::parse("10.7.0.1/32")}, {}, 3));
  ScanEngine engine(rig.network, EngineConfig{}, targets, module);
  engine.start();
  while (!engine.done() && rig.loop.step()) {
  }
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].responded);
  EXPECT_EQ(results[0].path_mtu, 0u);
  EXPECT_EQ(engine.stats().targets_finished, 1u);
}

// ------------------------------------------------------- SYN cookies -----

TEST(SynCookie, RoundTripsAcrossTheIdentitySpace) {
  SynCookieCodec codec(0x5eed);
  std::mt19937_64 rng(99);
  std::set<std::uint32_t> isns;
  for (int trial = 0; trial < 10'000; ++trial) {
    CookieIdentity identity;
    identity.index = rng() % kMaxCookieIndex;
    identity.probe = static_cast<std::uint8_t>(rng() % kMaxCookieProbe);
    identity.epoch = static_cast<std::uint8_t>(rng() % kMaxCookieEpoch);
    const net::IPv4Address target{static_cast<std::uint32_t>(rng())};
    const std::uint32_t cookie = codec.pack(identity, target);
    isns.insert(cookie);
    CookieIdentity recovered;
    ASSERT_TRUE(codec.unpack(cookie, target, recovered)) << trial;
    ASSERT_EQ(recovered, identity) << trial;
  }
  // The Feistel layer makes on-the-wire ISNs look shuffled: a bare counter
  // would collide here only by birthday accident, but it would be ordered.
  EXPECT_GT(isns.size(), 9'900u);
}

TEST(SynCookie, RejectsForgedStaleAndMisattributedCookies) {
  SynCookieCodec codec(0x5eed);
  SynCookieCodec other_scan(0x5eee);
  std::mt19937_64 rng(100);
  int bitflip_accepted = 0;
  int wrong_source_accepted = 0;
  int wrong_key_accepted = 0;
  constexpr int kTrials = 4'000;
  for (int trial = 0; trial < kTrials; ++trial) {
    CookieIdentity identity;
    identity.index = rng() % kMaxCookieIndex;
    const net::IPv4Address target{static_cast<std::uint32_t>(rng())};
    const std::uint32_t cookie = codec.pack(identity, target);
    CookieIdentity out;
    // A host echoing a corrupted ack: flip one random bit.
    const std::uint32_t flipped = cookie ^ (std::uint32_t{1} << (rng() % 32));
    if (codec.unpack(flipped, target, out)) ++bitflip_accepted;
    // A host attributing someone else's cookie to itself.
    const net::IPv4Address imposter{static_cast<std::uint32_t>(rng())};
    if (codec.unpack(cookie, imposter, out)) ++wrong_source_accepted;
    // A stale cookie from a different scan (different key).
    if (other_scan.unpack(cookie, target, out)) ++wrong_key_accepted;
  }
  // The MAC is 4 bits, so forgeries slip through at ~1/16; what matters is
  // that they are rejected at the MAC's design rate, not accepted freely.
  EXPECT_LT(bitflip_accepted, kTrials / 8);
  EXPECT_LT(wrong_source_accepted, kTrials / 8);
  EXPECT_LT(wrong_key_accepted, kTrials / 8);
}

TEST(SynCookie, DeterministicAcrossCodecInstances) {
  SynCookieCodec a(42), b(42);
  CookieIdentity identity;
  identity.index = 123'456;
  identity.probe = 1;
  identity.epoch = 3;
  const net::IPv4Address target{10, 20, 30, 40};
  EXPECT_EQ(a.pack(identity, target), b.pack(identity, target));
}

// ----------------------------------------- incremental checksum patch ----

TEST(ChecksumUpdate, PatchedTemplateMatchesFromScratchEncoding) {
  // The stateless sweep's whole transmit path: encode once with
  // dst/seq/ack = 0, then patch per target with RFC 1624 updates. The
  // patched frame must be bit-identical to encoding the real values —
  // otherwise receivers that verify by recomputation would drop probes.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 2'000; ++trial) {
    net::TcpSegment base;
    base.ip.src = net::IPv4Address{192, 0, 2, 2};
    base.ip.dst = net::IPv4Address{std::uint32_t{0}};
    base.ip.ttl = 64;
    base.tcp.src_port = 61337;
    base.tcp.dst_port = 80;
    base.tcp.seq = 0;
    base.tcp.ack = 0;
    base.tcp.flags = net::kAck | net::kPsh;
    base.tcp.window = 65535;
    base.payload = util::as_bytes("GET / HTTP/1.0\r\n\r\n");
    net::Bytes patched = net::encode(base);

    const std::uint32_t dst = static_cast<std::uint32_t>(rng());
    const std::uint32_t seq = static_cast<std::uint32_t>(rng());
    const std::uint32_t ack = static_cast<std::uint32_t>(rng());
    const auto read16 = [&](std::size_t at) {
      return static_cast<std::uint16_t>((patched[at] << 8) | patched[at + 1]);
    };
    const auto write16 = [&](std::size_t at, std::uint16_t value) {
      patched[at] = static_cast<std::uint8_t>(value >> 8);
      patched[at + 1] = static_cast<std::uint8_t>(value);
    };
    const auto write32 = [&](std::size_t at, std::uint32_t value) {
      write16(at, static_cast<std::uint16_t>(value >> 16));
      write16(at + 2, static_cast<std::uint16_t>(value));
    };
    write16(10, net::checksum_update32(read16(10), 0, dst));  // IP checksum
    std::uint16_t tcp = net::checksum_update32(read16(36), 0, dst);
    tcp = net::checksum_update32(tcp, 0, seq);
    tcp = net::checksum_update32(tcp, 0, ack);
    write32(16, dst);
    write32(24, seq);
    write32(28, ack);
    write16(36, tcp);

    net::TcpSegment real = base;
    real.ip.dst = net::IPv4Address{dst};
    real.tcp.seq = seq;
    real.tcp.ack = ack;
    ASSERT_EQ(patched, net::encode(real)) << "trial " << trial;
  }
}

TEST(ChecksumUpdate, NoopUpdateIsIdentity) {
  // The sweep patches the ack field unconditionally, relying on
  // update(c, 0, 0) == c so templates whose ack stays zero need no branch.
  // 0xFFFF is excluded: a canonical RFC 1071 encoder never transmits it
  // (the complement of a ones'-complement fold of a non-empty packet), and
  // the RFC 1624 update maps it to the class representative 0x0000.
  for (std::uint32_t c = 0; c < 0xFFFF; c += 257) {
    const auto checksum = static_cast<std::uint16_t>(c);
    EXPECT_EQ(net::checksum_update16(checksum, 0, 0), checksum);
    EXPECT_EQ(net::checksum_update32(checksum, 0, 0), checksum);
    EXPECT_EQ(net::checksum_update16(checksum, 0x1234, 0x1234), checksum);
  }
}

// --------------------------------------------------- stateless sweep -----

struct SweepRig : EngineRig {
  std::vector<SweepEvent> events;

  SweepStats sweep(net::Cidr space) {
    const SweepConfig config;
    StatelessSweep sweep(network, config, TargetGenerator({space}, {}, config.seed),
                         [&](const SweepEvent& event) { events.push_back(event); });
    sweep.start();
    while (!sweep.done() && loop.step()) {
    }
    EXPECT_TRUE(sweep.done());
    EXPECT_EQ(sweep.live_sessions(), 0u);
    return sweep.stats();
  }

  [[nodiscard]] int count(SweepEventKind kind) const {
    return static_cast<int>(std::count_if(
        events.begin(), events.end(),
        [kind](const SweepEvent& e) { return e.kind == kind; }));
  }
};

TEST(StatelessSweep, ClassifiesOpenClosedAndDarkAddresses) {
  SweepRig rig;
  // 10.2.0.0/28: .0-.4 open HTTP, .5-.9 up with port 80 closed, rest dark.
  for (int i = 0; i < 5; ++i) rig.add_host(net::IPv4Address(10, 2, 0, static_cast<std::uint8_t>(i)), true);
  for (int i = 5; i < 10; ++i) rig.add_host(net::IPv4Address(10, 2, 0, static_cast<std::uint8_t>(i)), false);

  const SweepStats stats = rig.sweep(*net::Cidr::parse("10.2.0.0/28"));
  EXPECT_EQ(stats.targets_probed, 16u);
  EXPECT_EQ(stats.responsive, 5u);
  EXPECT_EQ(stats.closed, 5u);
  EXPECT_EQ(rig.count(SweepEventKind::Responsive), 5);
  EXPECT_EQ(rig.count(SweepEventKind::Closed), 5);
}

TEST(StatelessSweep, DuplicatedRepliesAreSuppressedNotDoubleCounted) {
  SweepRig rig;
  sim::PathConfig path;
  path.latency = sim::msec(5);
  path.duplicate_rate = 1.0;  // every packet arrives twice
  rig.network.set_default_path(path);
  rig.add_host(net::IPv4Address(10, 2, 1, 1), true);

  const SweepStats stats = rig.sweep(*net::Cidr::parse("10.2.1.1/32"));
  EXPECT_EQ(stats.responsive, 1u);
  EXPECT_GT(stats.duplicate_events, 0u);
  EXPECT_EQ(rig.count(SweepEventKind::Responsive), 1);
}

TEST(StatelessSweep, ForgedAcksAreRejectedByCookieValidation) {
  SweepRig rig;
  rig.add_host(net::IPv4Address(10, 2, 2, 1), true);
  // While the sweep sits in its answer window, an off-path attacker blasts
  // segments whose acks never went through pack(): a forged SYN-ACK and a
  // forged closed-port RST die at cookie validation, and a forged data
  // segment answers no sweep SYN. None may produce an event or a packet.
  rig.loop.schedule(sim::msec(200), [&] {
    auto blast = [&](std::uint8_t flags, std::string_view payload) {
      net::TcpSegment segment;
      segment.ip.src = net::IPv4Address{10, 9, 9, 9};
      segment.ip.dst = net::IPv4Address{192, 0, 2, 2};
      segment.tcp.src_port = 80;
      segment.tcp.dst_port = 61337;
      segment.tcp.seq = 1;
      segment.tcp.ack = 0xdeadbeef;
      segment.tcp.flags = flags;
      segment.payload = util::as_bytes(payload);
      net::PacketBuf buf = rig.network.pool().adopt(net::encode(segment));
      rig.network.send(std::move(buf));
    };
    blast(net::kSyn | net::kAck, {});
    blast(net::kRst | net::kAck, {});
    blast(net::kAck | net::kPsh, "FORGED");
  });
  const SweepStats stats = rig.sweep(*net::Cidr::parse("10.2.2.1/32"));
  EXPECT_EQ(stats.cookie_rejected, 2u);
  EXPECT_EQ(stats.responsive, 1u);  // the honest host still classified
  EXPECT_EQ(stats.packets_sent, 2u);  // its SYN and RST, nothing for the forgeries
  EXPECT_EQ(rig.count(SweepEventKind::Closed), 0);
}

/// A host whose SYN/ACK carries `area` (a multiple of 4 bytes) as its
/// options area, written by hand so that areas TcpHeader cannot encode
/// reach the sweep. Everything but a SYN is ignored.
class RawSynAckHost final : public sim::Endpoint {
 public:
  RawSynAckHost(sim::Network& network, net::IPv4Address self, net::Bytes area)
      : network_(network), self_(self), area_(std::move(area)) {
    network_.attach(self_, this);
  }
  ~RawSynAckHost() override { network_.detach(self_); }

  void handle_packet(net::PacketView bytes) override {
    const auto datagram = net::decode_datagram(bytes);
    const auto* syn = datagram ? std::get_if<net::TcpSegment>(&*datagram) : nullptr;
    if (syn == nullptr || syn->tcp.flags != net::kSyn) return;
    net::Bytes wire;
    net::WireWriter writer(wire);
    net::Ipv4Header ip;
    ip.src = self_;
    ip.dst = syn->ip.src;
    ip.total_length = static_cast<std::uint16_t>(40 + area_.size());
    ip.encode(writer);
    writer.u16(syn->tcp.dst_port);
    writer.u16(syn->tcp.src_port);
    writer.u32(7);                // seq
    writer.u32(syn->tcp.seq + 1);  // ack
    writer.u8(static_cast<std::uint8_t>((20 + area_.size()) / 4 << 4));
    writer.u8(net::kSyn | net::kAck);
    writer.u16(29200);
    writer.u16(0);  // checksum, patched below
    writer.u16(0);
    writer.raw(area_);
    const auto l4 = std::span<const std::uint8_t>(wire).subspan(net::Ipv4Header::kSize);
    writer.patch_u16(net::Ipv4Header::kSize + 16, net::tcp_checksum(ip.src, ip.dst, l4));
    network_.send(std::move(wire));
  }

 private:
  sim::Network& network_;
  net::IPv4Address self_;
  net::Bytes area_;
};

TEST(StatelessSweep, MalformedOptionsAreStillResponsive) {
  // The sweep walks the fixed header by hand instead of decoding the
  // segment, so an options area the header decoder rejects still yields a
  // Responsive event.
  const std::vector<net::Bytes> areas = {
      {2, 4, 0x05, 0xb4},
      {3, 3, 7, 1, 2, 4, 0x02, 0x18},
      {2, 4, 0x05, 0xb4, 2, 4, 0, 64},
      {1, 1, 1, 1},
      {3, 2, 2, 4, 0x05, 0xb4, 0, 0},  // bad window scale
      {2, 3, 0, 2, 4, 0x05, 0xb4, 0},  // 3-byte MSS
      {2, 4, 0x05, 0xb4, 4, 3, 0, 0},  // bad SACK-ok
      {2, 4, 0x05, 0xb4, 8, 9, 0, 0},  // overrun after the MSS
  };
  SweepRig rig;
  std::vector<std::unique_ptr<RawSynAckHost>> hosts;
  for (std::size_t i = 0; i < areas.size(); ++i) {
    hosts.push_back(std::make_unique<RawSynAckHost>(
        rig.network, net::IPv4Address(10, 2, 5, static_cast<std::uint8_t>(i)), areas[i]));
  }
  const SweepStats stats = rig.sweep(*net::Cidr::parse("10.2.5.0/29"));
  EXPECT_EQ(stats.responsive, areas.size());
  EXPECT_EQ(rig.count(SweepEventKind::Responsive), static_cast<int>(areas.size()));
}

/// The sweep's own TCP segments as the wire sees them, before any loss,
/// and the SYN-ACKs answering them.
struct SweepTap {
  std::vector<net::TcpHeader> sent;
  std::vector<net::TcpHeader> syn_acks;

  explicit SweepTap(sim::Network& network) {
    network.set_tap([this](net::PacketView bytes) {
      const auto datagram = net::decode_datagram(bytes);
      const auto* segment = datagram ? std::get_if<net::TcpSegment>(&*datagram) : nullptr;
      if (segment == nullptr) return;
      if (segment->ip.src == SweepConfig::scanner_address) {
        sent.push_back(segment->tcp);
      } else if (segment->tcp.flags == (net::kSyn | net::kAck)) {
        syn_acks.push_back(segment->tcp);
      }
    });
  }
};

TEST(StatelessSweep, AnswersTheSynAckWithOneRstAndLeavesNoConnection) {
  SweepRig rig;
  rig.add_host(net::IPv4Address(10, 2, 6, 1), true);
  SweepTap tap(rig.network);

  const SweepStats stats = rig.sweep(*net::Cidr::parse("10.2.6.1/32"));
  EXPECT_EQ(stats.responsive, 1u);
  ASSERT_EQ(tap.syn_acks.size(), 1u);
  ASSERT_EQ(tap.sent.size(), 2u);
  EXPECT_EQ(tap.sent[0].flags, net::kSyn);
  EXPECT_EQ(tap.syn_acks[0].ack, tap.sent[0].seq + 1);
  EXPECT_EQ(tap.sent[1].flags, net::kRst);
  EXPECT_EQ(tap.sent[1].seq, tap.syn_acks[0].ack);
  EXPECT_TRUE(rig.hosts.front()->quiescent());
}

TEST(StatelessSweep, ALostRstIsSentAgainForTheRetransmittedSynAck) {
  SweepRig rig;
  rig.add_host(net::IPv4Address(10, 2, 6, 2), true);
  SweepTap tap(rig.network);
  bool dropped = false;
  rig.network.set_filter([&](net::PacketView bytes) {
    const auto datagram = net::decode_datagram(bytes);
    const auto* segment = datagram ? std::get_if<net::TcpSegment>(&*datagram) : nullptr;
    if (dropped || segment == nullptr || segment->tcp.flags != net::kRst) return true;
    dropped = true;
    return false;
  });

  const SweepStats stats = rig.sweep(*net::Cidr::parse("10.2.6.2/32"));
  ASSERT_TRUE(dropped);
  ASSERT_EQ(tap.syn_acks.size(), 2u);  // the host retransmitted its SYN-ACK
  ASSERT_EQ(tap.sent.size(), 3u);      // SYN, the lost RST, the second RST
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(tap.sent[i].flags, net::kRst) << i;
    EXPECT_EQ(tap.sent[i].seq, tap.syn_acks[i - 1].ack) << i;
  }
  EXPECT_EQ(stats.responsive, 1u);
  EXPECT_EQ(rig.count(SweepEventKind::Responsive), 1);
  EXPECT_GE(stats.duplicate_events, 1u);
  EXPECT_TRUE(rig.hosts.front()->quiescent());
  rig.network.set_filter(nullptr);
}

TEST(StatelessSweep, DarkSpaceFinishesViaCooldownAndSignalsCompletion) {
  SweepRig rig;
  // rig.sweep() requires done(): the sweep signals completion on its own.
  const SweepStats stats = rig.sweep(*net::Cidr::parse("10.2.4.0/28"));
  EXPECT_EQ(stats.targets_probed, 16u);
  EXPECT_EQ(stats.packets_sent, 16u);  // one SYN each, nothing to answer
  EXPECT_EQ(stats.responsive, 0u);
  EXPECT_EQ(stats.packets_received, 0u);
  EXPECT_GE(stats.finished_at - stats.started_at, SweepConfig::cooldown);
}

}  // namespace
}  // namespace iwscan::scan
