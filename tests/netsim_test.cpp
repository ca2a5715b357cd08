#include <gtest/gtest.h>

#include <unordered_map>
#include <utility>

#include "netbase/packet.hpp"
#include "netsim/address_table.hpp"
#include "netsim/capture.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/network.hpp"
#include "util/rng.hpp"

namespace iwscan::sim {
namespace {

// --------------------------------------------------------- EventLoop -----

TEST(EventLoop, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(msec(30), [&] { order.push_back(3); });
  loop.schedule(msec(10), [&] { order.push_back(1); });
  loop.schedule(msec(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), msec(30));
}

TEST(EventLoop, TiesBreakByScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(msec(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  const EventId id = loop.schedule(msec(5), [&] { fired = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, CancelIsIdempotentAndNullSafe) {
  EventLoop loop;
  const EventId id = loop.schedule(msec(1), [] {});
  loop.cancel(id);
  loop.cancel(id);
  loop.cancel(kNullEvent);
  loop.run();
}

TEST(EventLoop, EventsScheduledDuringEventsRun) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule(msec(1), recurse);
  };
  loop.schedule(msec(1), recurse);
  loop.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now(), msec(5));
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(msec(10), [&] { ++fired; });
  loop.schedule(msec(30), [&] { ++fired; });
  loop.run_until(msec(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), msec(20));
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, PastDelaysClampToNow) {
  EventLoop loop;
  loop.schedule(msec(10), [] {});
  loop.run();
  bool fired = false;
  loop.schedule_at(msec(1), [&] { fired = true; });  // in the past
  loop.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.now(), msec(10));
}

TEST(EventLoop, StepReturnsFalseWhenEmpty) {
  EventLoop loop;
  EXPECT_FALSE(loop.step());
  loop.schedule(msec(1), [] {});
  EXPECT_TRUE(loop.step());
  EXPECT_FALSE(loop.step());
}

TEST(EventLoop, StaleIdCannotCancelReusedSlot) {
  // Cancelling frees the slab slot for immediate reuse; the old EventId
  // carries the slot's previous generation and must never cancel the new
  // occupant.
  EventLoop loop;
  bool first = false;
  bool second = false;
  const EventId a = loop.schedule(msec(1), [&] { first = true; });
  loop.cancel(a);
  loop.schedule(msec(2), [&] { second = true; });  // recycles a's slot
  loop.cancel(a);                                  // stale id: must be a no-op
  loop.run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(EventLoop, IdKeptPastFiringCannotCancelReusedSlot) {
  EventLoop loop;
  bool second = false;
  const EventId a = loop.schedule(msec(1), [] {});
  loop.run();
  loop.schedule(msec(1), [&] { second = true; });  // may reuse a's slot
  loop.cancel(a);  // fired long ago; generation mismatch makes this a no-op
  loop.run();
  EXPECT_TRUE(second);
}

TEST(EventLoop, CancelThenRescheduleKeepsTieBreakOrder) {
  // Same-instant events fire in schedule order even when cancellations
  // punch holes in the sequence and their slots are re-armed in between.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(msec(5), [&] { order.push_back(0); });
  const EventId cancelled = loop.schedule(msec(5), [&] { order.push_back(99); });
  loop.schedule(msec(5), [&] { order.push_back(1); });
  loop.cancel(cancelled);
  loop.schedule(msec(5), [&] { order.push_back(2); });  // reuses the freed slot
  loop.schedule(msec(1), [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{3, 0, 1, 2}));
}

TEST(EventLoop, PendingEventsExcludesLazilyCancelledEntries) {
  EventLoop loop;
  const EventId a = loop.schedule(msec(1), [] {});
  const EventId b = loop.schedule(msec(2), [] {});
  loop.schedule(msec(3), [] {});
  EXPECT_EQ(loop.pending_events(), 3u);
  loop.cancel(a);
  loop.cancel(b);
  // The wheel still parks the cancelled records (they are dropped lazily at
  // drain time), but neither pending_events() nor empty() may count them.
  EXPECT_EQ(loop.pending_events(), 1u);
  EXPECT_FALSE(loop.empty());
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_TRUE(loop.empty());
  EXPECT_FALSE(loop.step());
}

TEST(EventLoop, FullRevolutionWheelDistancesFire) {
  // With the cursor mid-window (tick_ = 1 after firing an event in granule
  // 1), an event at distance 64^(level+1)-1 granules lands in the bucket
  // whose index equals the cursor at that level — one full wheel revolution
  // ahead. The drain must treat that bucket as future, not due now;
  // mistaking it for due cascaded the bucket into itself and silently lost
  // the event (run() returned with pending_events() > 0).
  constexpr std::int64_t kGranuleNs = std::int64_t{1} << 16;
  constexpr std::int64_t kWrapGranules[] = {
      64 * 64,            // level 1
      64 * 64 * 64,       // level 2
      64 * 64 * 64 * 64,  // level 3
  };
  for (const std::int64_t granules : kWrapGranules) {
    EventLoop loop;
    int fired = 0;
    loop.schedule_at(SimTime{kGranuleNs}, [&] { ++fired; });  // tick_ -> 1
    loop.run();
    ASSERT_EQ(fired, 1);
    loop.schedule_at(SimTime{granules * kGranuleNs}, [&] { ++fired; });
    loop.run();
    EXPECT_EQ(fired, 2) << "event " << granules << " granules out never fired";
    EXPECT_EQ(loop.pending_events(), 0u);
    EXPECT_EQ(loop.now(), SimTime{granules * kGranuleNs});
  }
}

TEST(EventLoop, WindowBoundaryCursorBucketCascadesInOrder) {
  // A higher-level cascade can tie on candidate start and move the wheel
  // cursor to exactly a lower-level window boundary. The lower level's
  // cursor bucket then holds genuinely-current records, which must cascade
  // as due now — mistaking them for a full revolution ahead defers them
  // behind later events and eventually wedges the loop.
  constexpr std::int64_t kGranuleNs = std::int64_t{1} << 16;
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(SimTime{8000 * kGranuleNs}, [&] { order.push_back(0); });
  ASSERT_TRUE(loop.step());  // cursor -> granule 8000
  // Level 2 (distance 4300), window start = granule 12288.
  loop.schedule_at(SimTime{12300 * kGranuleNs}, [&] { order.push_back(2); });
  // Level 1 (distance 3700); fires next, leaving the cursor mid level-1
  // window at granule 11700.
  loop.schedule_at(SimTime{11700 * kGranuleNs}, [&] { order.push_back(1); });
  ASSERT_TRUE(loop.step());
  // Level 1, bucket 0 — the level-1 window also starting at granule 12288.
  // The level-2 cascade ties on start 12288 and jumps the cursor there
  // first; this record's bucket then reads as the level-1 cursor bucket.
  loop.schedule_at(SimTime{12325 * kGranuleNs}, [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(loop.now(), SimTime{12325 * kGranuleNs});
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoop, MidGranulePauseKeepsRecordAccountingExact) {
  // run_until with a deadline inside a granule pauses a bucket drain
  // mid-way. Records consumed before the pause are already subtracted from
  // the physical-record count; if they stay in the bucket, the next drain
  // subtracts them again and the count underflows (wrapping size_t), which
  // degrades every later cancel into a full stale-sweep.
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(SimTime{1000}, [&] { ++fired; });  // all in granule 0
  loop.schedule_at(SimTime{2000}, [&] { ++fired; });
  loop.schedule_at(SimTime{3000}, [&] { ++fired; });
  loop.run_until(SimTime{1500});  // fires the first, pauses mid-bucket
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending_events(), 2u);
  EXPECT_EQ(loop.stored_records(), 2u);  // consumed prefix physically erased
  loop.run_until(SimTime{2500});  // pause again after the second event
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.stored_records(), 1u);
  loop.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(loop.stored_records(), 0u);  // underflow would read huge here
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoop, FarFutureEventsFireInScheduleOrder) {
  // Beyond the wheel horizon events wait in an overflow list; they must
  // still fire in (when, schedule-order) order once the loop reaches them.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(sec(7200), [&] { order.push_back(1); });
  loop.schedule(sec(7200), [&] { order.push_back(2); });
  loop.schedule(msec(1), [&] { order.push_back(0); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(loop.now(), sec(7200));
}

// ------------------------------------------------------ AddressTable -----

TEST(AddressTable, MatchesUnorderedMapUnderRandomChurn) {
  // Oracle test: a key range small enough that inserts, hits, misses and
  // erases all happen often, across several growth steps.
  AddressTable<std::uint32_t, std::uint64_t> table;
  std::unordered_map<std::uint32_t, std::uint64_t> oracle;
  util::Rng rng(2017);
  for (int op = 0; op < 200'000; ++op) {
    const auto key = static_cast<std::uint32_t>(rng.below(op < 100'000 ? 512 : 4096));
    switch (rng.below(3)) {
      case 0: {
        bool added = false;
        table.find_or_add(key, added) = static_cast<std::uint64_t>(op);
        EXPECT_EQ(added, !oracle.contains(key));
        oracle[key] = static_cast<std::uint64_t>(op);
        break;
      }
      case 1:
        EXPECT_EQ(table.erase(key), oracle.erase(key) == 1);
        break;
      default: {
        const std::uint64_t* found = table.find(key);
        const auto it = oracle.find(key);
        ASSERT_EQ(found != nullptr, it != oracle.end()) << "key " << key;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(table.size(), oracle.size());
  }
  for (const auto& [key, value] : oracle) {
    const std::uint64_t* found = table.find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, value);
  }
  EXPECT_LE(table.size(), table.capacity() / 4 * 3);
}

TEST(AddressTable, EraseShiftsBackAcrossTheTableEnd) {
  // Build one probe run that starts in the last slots and wraps round to
  // slot 0, then erase from its head: the wrapped entries must shift back
  // past the end and stay reachable.
  AddressTable<std::uint32_t, int> table;
  table.reserve(1);
  const std::size_t last = table.capacity() - 1;
  std::vector<std::uint32_t> run;  // homes: last, last, last, 0
  for (std::uint32_t key = 0; run.size() < 3; ++key) {
    if (table.bucket(key) == last) run.push_back(key);
  }
  for (std::uint32_t key = 0;; ++key) {
    if (table.bucket(key) == 0) {
      run.push_back(key);
      break;
    }
  }
  for (std::size_t i = 0; i < run.size(); ++i) {
    bool added = false;
    table.find_or_add(run[i], added) = static_cast<int>(i);
    ASSERT_TRUE(added);
  }
  ASSERT_EQ(table.capacity(), last + 1) << "the run must not trigger growth";

  EXPECT_TRUE(table.erase(run[0]));
  for (std::size_t i = 1; i < run.size(); ++i) {
    const int* found = table.find(run[i]);
    ASSERT_NE(found, nullptr) << "entry " << i << " lost after the shift";
    EXPECT_EQ(*found, static_cast<int>(i));
  }
  EXPECT_EQ(table.find(run[0]), nullptr);
  EXPECT_TRUE(table.erase(run[2]));
  EXPECT_TRUE(table.erase(run[3]));
  EXPECT_EQ(*table.find(run[1]), 1);
  EXPECT_FALSE(table.erase(run[3]));
  EXPECT_EQ(table.size(), 1u);
}

TEST(AddressTable, ReserveAvoidsGrowthAndKeepsEntries) {
  AddressTable<std::uint64_t, int> table;
  bool added = false;
  table.find_or_add(7, added) = 70;
  table.reserve(1000);
  const std::size_t capacity = table.capacity();
  EXPECT_GE(capacity / 4 * 3, 1000u);
  EXPECT_EQ(*table.find(7), 70);
  for (std::uint64_t key = 100; key < 1099; ++key) {
    table.find_or_add(key << 32 | key, added) = static_cast<int>(key);
  }
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_EQ(table.size(), 1000u);
  EXPECT_EQ(*table.find(std::uint64_t{555} << 32 | 555), 555);
}

// ----------------------------------------------------------- Network -----

class Collector final : public Endpoint {
 public:
  void handle_packet(net::PacketView bytes) override {
    packets.emplace_back(bytes.begin(), bytes.end());
  }
  std::vector<net::Bytes> packets;
};

net::Bytes make_packet(net::IPv4Address src, net::IPv4Address dst,
                       std::size_t payload = 0, bool df = false) {
  net::TcpSegment segment;
  segment.ip.src = src;
  segment.ip.dst = dst;
  segment.ip.dont_fragment = df;
  segment.tcp.src_port = 1;
  segment.tcp.dst_port = 2;
  segment.tcp.flags = net::kAck;
  const net::Bytes fill(payload, 0x7e);
  segment.payload = fill;
  return net::encode(segment);
}

const net::IPv4Address kA{10, 0, 0, 1};
const net::IPv4Address kB{10, 0, 0, 2};

TEST(Network, DeliversAfterLatency) {
  EventLoop loop;
  Network network(loop, 1);
  Collector b;
  network.attach(kB, &b);
  PathConfig path;
  path.latency = msec(25);
  network.set_default_path(path);

  network.send(make_packet(kA, kB));
  EXPECT_TRUE(b.packets.empty());
  loop.run();
  EXPECT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(loop.now(), msec(25));
  EXPECT_EQ(network.stats().packets_delivered, 1u);
}

TEST(Network, UnroutableIsCountedNotDelivered) {
  EventLoop loop;
  Network network(loop, 1);
  network.send(make_packet(kA, kB));  // nobody attached, no resolver
  loop.run();
  EXPECT_EQ(network.stats().packets_unroutable, 1u);
  EXPECT_EQ(network.stats().packets_delivered, 0u);
}

TEST(Network, ResolverMaterializesLazily) {
  EventLoop loop;
  Network network(loop, 1);
  Collector host;
  int resolver_calls = 0;
  network.set_resolver([&](net::IPv4Address addr) -> Endpoint* {
    ++resolver_calls;
    if (addr != kB) return nullptr;
    network.attach(kB, &host);
    return &host;
  });

  network.send(make_packet(kA, kB));
  network.send(make_packet(kA, kB));
  loop.run();
  EXPECT_EQ(host.packets.size(), 2u);
  EXPECT_EQ(resolver_calls, 1) << "second packet must hit the attached endpoint";

  // Unresolvable destination: dropped, after exactly one resolver call per
  // packet — delivery does not ask again for an address send() found dark.
  const net::IPv4Address dark{10, 9, 9, 9};
  resolver_calls = 0;
  for (int i = 0; i < 3; ++i) network.send(make_packet(kA, dark));
  loop.run();
  EXPECT_EQ(resolver_calls, 3);
  EXPECT_EQ(network.stats().packets_unroutable, 3u);

  // An attach() between send and delivery still wins over the dark answer.
  Collector late;
  network.send(make_packet(kA, dark));
  network.attach(dark, &late);
  loop.run();
  EXPECT_EQ(late.packets.size(), 1u);
  EXPECT_EQ(resolver_calls, 4);
  EXPECT_EQ(network.stats().packets_unroutable, 3u);
}

TEST(Network, FlowDrawsSurviveDetachAndReattach) {
  // A host evicted (detach + clear_path) and materialized again continues
  // its flows' loss and jitter sequences instead of restarting them.
  struct Arrival {
    SimTime at;
    std::size_t bytes;
    bool operator==(const Arrival&) const = default;
  };
  class Recorder final : public Endpoint {
   public:
    explicit Recorder(EventLoop& loop) : loop_(loop) {}
    void handle_packet(net::PacketView bytes) override {
      arrivals.push_back({loop_.now(), bytes.size()});
    }
    std::vector<Arrival> arrivals;

   private:
    EventLoop& loop_;
  };
  PathConfig path;
  path.latency = msec(10);
  path.jitter = msec(4);
  path.loss_rate = 0.25;

  const auto run = [&](bool evict_midway) {
    EventLoop loop;
    Network network(loop, 77);
    Recorder host(loop);
    network.attach(kB, &host);
    network.set_path(kB, path);
    for (int i = 0; i < 200; ++i) {
      if (i == 100) {
        loop.run();
        if (evict_midway) {
          network.detach(kB);
          network.clear_path(kB);
          EXPECT_FALSE(network.attached(kB));
          network.attach(kB, &host);
          network.set_path(kB, path);
        }
      }
      network.send(make_packet(kA, kB, static_cast<std::size_t>(i)));
    }
    loop.run();
    return host.arrivals;
  };
  const std::vector<Arrival> kept = run(false);
  const std::vector<Arrival> evicted = run(true);
  EXPECT_LT(kept.size(), 180u) << "the path must actually drop packets";
  EXPECT_EQ(evicted, kept);
}

TEST(Network, UnimpairedPathsCreateNoFlowState) {
  EventLoop loop;
  Network network(loop, 1);
  Collector a;
  Collector b;
  network.attach(kA, &a);
  network.attach(kB, &b);
  network.set_path(kB, PathConfig{});  // its own path, but no impairment
  for (int i = 0; i < 10; ++i) {
    network.send(make_packet(kA, kB));
    network.send(make_packet(kB, kA));
    const net::IPv4Address dark{10, 9, 9, static_cast<std::uint8_t>(i)};
    network.send(make_packet(kA, dark));
  }
  loop.run();
  EXPECT_EQ(b.packets.size(), 10u);
  EXPECT_EQ(network.flow_states(), 0u);

  // The first draw creates the flow's generator: one per direction.
  PathConfig jittery;
  jittery.jitter = usec(50);
  network.set_path(kB, jittery);
  network.send(make_packet(kA, kB));
  EXPECT_EQ(network.flow_states(), 1u);
  network.send(make_packet(kA, kB));
  network.send(make_packet(kB, kA));
  EXPECT_EQ(network.flow_states(), 2u);
  loop.run();
}

TEST(Network, LossRateDropsRoughlyThatFraction) {
  EventLoop loop;
  Network network(loop, 99);
  Collector b;
  network.attach(kB, &b);
  PathConfig path;
  path.loss_rate = 0.3;
  network.set_default_path(path);

  const int n = 5000;
  for (int i = 0; i < n; ++i) network.send(make_packet(kA, kB));
  loop.run();
  const double delivered = static_cast<double>(b.packets.size()) / n;
  EXPECT_NEAR(delivered, 0.7, 0.03);
  EXPECT_EQ(network.stats().packets_lost + network.stats().packets_delivered,
            static_cast<std::uint64_t>(n));
}

TEST(Network, PerPathOverrideBeatsDefault) {
  EventLoop loop;
  Network network(loop, 1);
  Collector b;
  Collector c;
  const net::IPv4Address kC{10, 0, 0, 3};
  network.attach(kB, &b);
  network.attach(kC, &c);
  PathConfig lossy;
  lossy.loss_rate = 1.0;
  network.set_path(kB, lossy);  // kC keeps lossless default

  for (int i = 0; i < 50; ++i) {
    network.send(make_packet(kA, kB));
    network.send(make_packet(kA, kC));
  }
  loop.run();
  EXPECT_TRUE(b.packets.empty());
  EXPECT_EQ(c.packets.size(), 50u);

  network.clear_path(kB);
  network.send(make_packet(kA, kB));
  loop.run();
  EXPECT_EQ(b.packets.size(), 1u);
}

TEST(Network, PathKeyedByRemoteAppliesBothDirections) {
  EventLoop loop;
  Network network(loop, 1);
  Collector scanner;
  Collector host;
  const net::IPv4Address kScanner{192, 0, 2, 1};
  network.attach(kScanner, &scanner);
  network.attach(kB, &host);
  PathConfig slow;
  slow.latency = msec(100);
  network.set_path(kB, slow);  // keyed by the host side

  network.send(make_packet(kScanner, kB));  // forward: dst match
  network.send(make_packet(kB, kScanner));  // reverse: src match
  loop.run();
  EXPECT_EQ(loop.now(), msec(100));
  EXPECT_EQ(host.packets.size(), 1u);
  EXPECT_EQ(scanner.packets.size(), 1u);
}

TEST(Network, ReorderingDelaysSomePackets) {
  EventLoop loop;
  Network network(loop, 7);
  Collector b;
  network.attach(kB, &b);
  PathConfig path;
  path.latency = msec(10);
  path.reorder_rate = 0.5;
  path.reorder_delay = msec(50);
  network.set_default_path(path);

  for (int i = 0; i < 200; ++i) network.send(make_packet(kA, kB, i % 7));
  loop.run();
  EXPECT_EQ(b.packets.size(), 200u);
  EXPECT_NEAR(static_cast<double>(network.stats().packets_reordered) / 200.0, 0.5,
              0.1);
}

TEST(Network, OversizedDfPacketTriggersFragNeeded) {
  EventLoop loop;
  Network network(loop, 1);
  Collector a;
  Collector b;
  network.attach(kA, &a);
  network.attach(kB, &b);
  PathConfig path;
  path.path_mtu = 600;
  network.set_path(kB, path);

  network.send(make_packet(kA, kB, 1000, /*df=*/true));
  loop.run();
  EXPECT_TRUE(b.packets.empty()) << "oversized DF packet must not arrive";
  ASSERT_EQ(a.packets.size(), 1u);
  const auto decoded = net::decode_datagram(a.packets[0]);
  ASSERT_TRUE(decoded);
  const auto* icmp = std::get_if<net::IcmpDatagram>(&*decoded);
  ASSERT_NE(icmp, nullptr);
  EXPECT_EQ(icmp->icmp.type, net::IcmpType::DestinationUnreachable);
  EXPECT_EQ(icmp->icmp.code, net::kIcmpFragNeeded);
  EXPECT_EQ(icmp->icmp.seq_or_mtu, 600);
  EXPECT_EQ(network.stats().icmp_frag_needed, 1u);
}

TEST(Network, FittingDfPacketPasses) {
  EventLoop loop;
  Network network(loop, 1);
  Collector b;
  network.attach(kB, &b);
  PathConfig path;
  path.path_mtu = 600;
  network.set_path(kB, path);

  network.send(make_packet(kA, kB, 500, /*df=*/true));  // 540 B total
  loop.run();
  EXPECT_EQ(b.packets.size(), 1u);
}

TEST(Network, JitterStaysWithinBounds) {
  EventLoop loop;
  Network network(loop, 21);
  Collector b;
  network.attach(kB, &b);
  PathConfig path;
  path.latency = msec(10);
  path.jitter = msec(5);
  network.set_default_path(path);

  SimTime last{};
  for (int i = 0; i < 100; ++i) {
    network.send(make_packet(kA, kB));
  }
  loop.run();
  last = loop.now();
  EXPECT_GE(last, msec(10));
  EXPECT_LE(last, msec(15));
  EXPECT_EQ(b.packets.size(), 100u);
}

TEST(Network, DuplicationDeliversTwice) {
  EventLoop loop;
  Network network(loop, 13);
  Collector b;
  network.attach(kB, &b);
  PathConfig path;
  path.duplicate_rate = 1.0;
  path.duplicate_delay = msec(2);
  network.set_default_path(path);

  network.send(make_packet(kA, kB, 10));
  loop.run();
  EXPECT_EQ(b.packets.size(), 2u);
  EXPECT_EQ(b.packets[0], b.packets[1]);
  EXPECT_EQ(network.stats().packets_duplicated, 1u);
}

TEST(Network, FilterDropsDeterministically) {
  EventLoop loop;
  Network network(loop, 1);
  Collector b;
  network.attach(kB, &b);
  int dropped = 0;
  network.set_filter([&](net::PacketView bytes) {
    if (bytes.size() > 60) {
      ++dropped;
      return false;
    }
    return true;
  });
  network.send(make_packet(kA, kB, 0));    // 40 B → passes
  network.send(make_packet(kA, kB, 100));  // 140 B → dropped
  loop.run();
  EXPECT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(network.stats().packets_lost, 1u);
  network.set_filter(nullptr);
}

// ----------------------------------------------------------- capture -----

TEST(Capture, RecordsViaNetworkTap) {
  EventLoop loop;
  Network network(loop, 1);
  Collector b;
  network.attach(kB, &b);
  PacketCapture capture;
  capture.attach(network);

  network.send(make_packet(kA, kB, 5));
  loop.run();
  network.send(make_packet(kB, kA, 0));
  loop.run();

  ASSERT_EQ(capture.size(), 2u);
  EXPECT_LT(capture.entries()[0].timestamp, capture.entries()[1].timestamp);
}

TEST(Capture, TextLooksLikeTcpdump) {
  PacketCapture capture;
  net::TcpSegment segment;
  segment.ip.src = kA;
  segment.ip.dst = kB;
  segment.tcp.src_port = 40000;
  segment.tcp.dst_port = 80;
  segment.tcp.seq = 7;
  segment.tcp.flags = net::kSyn;
  segment.tcp.window = 65535;
  segment.tcp.mss = 64;
  capture.record(msec(1500), net::encode(segment));

  const std::string text = capture.text();
  EXPECT_NE(text.find("1.500000"), std::string::npos);
  EXPECT_NE(text.find("10.0.0.1.40000 > 10.0.0.2.80"), std::string::npos);
  EXPECT_NE(text.find("Flags [S]"), std::string::npos);
  EXPECT_NE(text.find("mss 64"), std::string::npos);
}

TEST(Capture, IcmpFormatting) {
  net::IcmpDatagram echo;
  echo.ip.src = kA;
  echo.ip.dst = kB;
  echo.icmp.type = net::IcmpType::Echo;
  const net::Bytes payload = {1, 2, 3};
  echo.icmp.payload = payload;
  const std::string line = format_packet(net::encode(echo));
  EXPECT_NE(line.find("ICMP echo request"), std::string::npos);
  EXPECT_NE(line.find("length 11"), std::string::npos);
}

TEST(Capture, PcapFileFormat) {
  PacketCapture capture;
  const auto packet = make_packet(kA, kB, 8);
  capture.record(sec(2) + usec(123456), packet);
  const net::Bytes pcap = capture.pcap();

  // Global header: magic, v2.4, snaplen 65535, linktype 101 (RAW).
  ASSERT_GE(pcap.size(), 24u + 16u + packet.size());
  EXPECT_EQ(pcap[0], 0xd4);
  EXPECT_EQ(pcap[1], 0xc3);
  EXPECT_EQ(pcap[2], 0xb2);
  EXPECT_EQ(pcap[3], 0xa1);
  EXPECT_EQ(pcap[4], 2);    // version major (LE)
  EXPECT_EQ(pcap[6], 4);    // version minor
  EXPECT_EQ(pcap[20], 101); // linktype
  // Record header: ts_sec=2, ts_usec=123456, lengths.
  EXPECT_EQ(pcap[24], 2);
  const std::uint32_t usec_field = pcap[28] | (pcap[29] << 8) |
                                   (pcap[30] << 16) |
                                   (static_cast<std::uint32_t>(pcap[31]) << 24);
  EXPECT_EQ(usec_field, 123456u);
  const std::uint32_t incl_len = pcap[32] | (pcap[33] << 8) | (pcap[34] << 16) |
                                 (static_cast<std::uint32_t>(pcap[35]) << 24);
  EXPECT_EQ(incl_len, packet.size());
  // Payload bytes follow verbatim.
  EXPECT_TRUE(std::equal(packet.begin(), packet.end(), pcap.begin() + 40));
}

TEST(Network, StatsCountBytes) {
  EventLoop loop;
  Network network(loop, 1);
  Collector b;
  network.attach(kB, &b);
  const auto packet = make_packet(kA, kB, 100);
  network.send(packet);
  loop.run();
  EXPECT_EQ(network.stats().bytes_sent, packet.size());
  EXPECT_EQ(network.stats().packets_sent, 1u);
}

}  // namespace
}  // namespace iwscan::sim
