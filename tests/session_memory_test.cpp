// Per-session memory gate. The paper's §3.4 engine keeps a whole IPv4
// sweep in flight at 150 kpps with a 3 s SYN timeout: ~450k sessions wait
// at once, nearly all of them at dark addresses. What one such session
// holds sets the scanner's footprint, so the heap a SYN-phase session
// costs is pinned here: launch 4,096 HTTP sessions at addresses nothing
// answers, stop once every SYN is out (long before the SYN timeout), and
// divide the live-heap growth by the session count. The figure covers the
// session object, its engine entry and its armed timers.
//
// Lives in its own binary so no other test's heap churn shares the
// allocator's arenas with the measurement. This is also the binary's one
// allocation-counting TU (see util/alloc_stats.hpp).
#define IWSCAN_COUNT_ALLOCATIONS
#include "util/alloc_stats.hpp"

#include <gtest/gtest.h>

#include <malloc.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/host_prober.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/network.hpp"
#include "scanner/scan_engine.hpp"
#include "scanner/targets.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IWSCAN_REPLACED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define IWSCAN_REPLACED_ALLOCATOR 1
#endif
#endif

namespace iwscan {
namespace {

constexpr std::size_t kSessions = 4096;
/// Budget per SYN-phase session, in live-heap bytes (malloc chunk sizes,
/// so allocator headers and rounding count). Measured ~575 B; a session
/// took ~1,359 B while the prober built its strategy, request and
/// estimator evidence at launch, so the budget is also under half of that.
constexpr double kBudgetBytes = 640;

#ifndef IWSCAN_REPLACED_ALLOCATOR
std::size_t live_heap_bytes() { return mallinfo2().uordblks; }
#endif

/// 4,096 HTTP sessions launched at dark addresses within ~4 ms of virtual
/// time. SYNs are dropped the moment they are sent, so no packet is in
/// flight (and no pooled buffer held) when the heap is read.
struct DarkScan {
  explicit DarkScan(sim::SimTime wall_budget) {
    sim::PathConfig path;
    path.latency = sim::SimTime::zero();
    network.set_default_path(path);
    config.rate_pps = 1'000'000;
    config.max_outstanding = 2 * kSessions;
    config.budget.wall_time = wall_budget;
  }

  static scan::ListTargetSource targets() {
    std::vector<scan::ListTargetSource::Entry> entries;
    entries.reserve(kSessions);
    for (std::uint32_t i = 0; i < kSessions; ++i) {
      entries.emplace_back(net::IPv4Address{0x0a400000u + i}, i);
    }
    return scan::ListTargetSource(std::move(entries));
  }

  sim::EventLoop loop;
  sim::Network network{loop, 1};  // no endpoints and no resolver: all dark
  scan::ListTargetSource source = targets();
  scan::EngineConfig config;
};

TEST(SessionMemory, SynPhaseSessionStaysWithinBudget) {
#ifdef IWSCAN_REPLACED_ALLOCATOR
  GTEST_SKIP() << "a sanitizer replaces malloc; mallinfo2 does not see its heap";
#else
  DarkScan scan(scan::SessionBudget{}.wall_time);
  std::size_t records = 0;
  core::IwProbeModule module(core::IwScanConfig{},
                             [&](const core::HostScanRecord&) { ++records; });
  scan::ScanEngine engine(scan.network, scan.config, scan.source, module);

  const std::size_t before = live_heap_bytes();
  engine.start();
  scan.loop.run_until(scan.loop.now() + sim::msec(100));  // SYN timeout is 3 s
  const std::size_t after = live_heap_bytes();

  ASSERT_EQ(engine.stats().targets_started, kSessions);
  ASSERT_EQ(engine.stats().packets_sent, kSessions);  // one SYN each
  ASSERT_EQ(engine.live_sessions(), kSessions);
  ASSERT_EQ(records, 0u);

  const double per_session =
      static_cast<double>(after - before) / static_cast<double>(kSessions);
  RecordProperty("bytes_per_session", std::to_string(per_session));
  EXPECT_LE(per_session, kBudgetBytes) << "per_session=" << per_session << " B";
#endif
}

TEST(SessionMemory, BudgetKillInSynPhaseBuildsNothing) {
  // The wall-time budget expires before the 3 s SYN timeout, so every
  // session is killed while its SYN is unanswered. It must still emit a
  // record, and must not build a request on the way out (an allocation per
  // session if it did): the kills together allocate only the engine's and
  // the event wheel's bookkeeping.
  DarkScan scan(sim::sec(1));
  std::vector<core::HostScanRecord> records;
  records.reserve(kSessions);
  core::IwProbeModule module(core::IwScanConfig{}, [&](const core::HostScanRecord& r) {
    records.push_back(r);
  });
  scan::ScanEngine engine(scan.network, scan.config, scan.source, module);
  engine.start();
  scan.loop.run_until(scan.loop.now() + sim::msec(100));
  ASSERT_EQ(engine.live_sessions(), kSessions);

  const std::uint64_t before_kills = util::alloc_stats::allocations();
  while (!engine.done() && scan.loop.step()) {
  }
  const std::uint64_t kill_allocations = util::alloc_stats::allocations() - before_kills;
  ASSERT_EQ(records.size(), kSessions);
  EXPECT_EQ(engine.stats().sessions_killed_wall, kSessions);
  for (const core::HostScanRecord& record : records) {
    EXPECT_EQ(record.outcome, core::HostOutcome::Error);
    EXPECT_EQ(record.anomaly, core::ProbeAnomaly::BudgetExceeded);
    EXPECT_EQ(record.probes_run, 0u);
    EXPECT_EQ(record.connections_used, 1u);
  }
  EXPECT_LT(kill_allocations, 64u) << kill_allocations << " allocations for "
                                   << kSessions << " SYN-phase kills";
}

}  // namespace
}  // namespace iwscan
