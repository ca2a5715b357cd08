// The adversarial-internet battery: every hostile-host profile from
// inetmodel/adversarial.hpp is scanned by the full engine and must
// (a) terminate within its budget on virtual time,
// (b) classify to the expected HostOutcome + ProbeAnomaly,
// (c) leak no engine sessions, and
// (d) behave deterministically — same scenario, same record.
// Plus the graceful-degradation paths: each SessionBudget limit kills a
// pathological session, emits a best-effort BudgetExceeded record, and
// still leaves the engine clean.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <string_view>

#include "analysis/scan_runner.hpp"
#include "inetmodel/internet.hpp"
#include "testbed.hpp"
#include "util/bytes.hpp"

namespace iwscan {
namespace {

using model::AdversarialBehavior;
using test::Scenario;
using test::ScenarioResult;

// ------------------------------------------------------------- battery ----

const Scenario kBattery[] = {
    {.name = "tarpit",
     .behavior = AdversarialBehavior::Tarpit,
     .expect_outcome = core::HostOutcome::FewData,
     .expect_anomaly = core::ProbeAnomaly::Tarpit},
    {.name = "zero-window",
     .behavior = AdversarialBehavior::ZeroWindow,
     .expect_outcome = core::HostOutcome::FewData,
     .expect_anomaly = core::ProbeAnomaly::ZeroWindow},
    {.name = "mss-violator",
     .behavior = AdversarialBehavior::MssViolator,
     .expect_outcome = core::HostOutcome::Success,
     .expect_anomaly = core::ProbeAnomaly::MssViolation},
    {.name = "no-retransmit",
     .behavior = AdversarialBehavior::NoRetransmit,
     .expect_outcome = core::HostOutcome::Error,
     .expect_anomaly = core::ProbeAnomaly::NoRetransmit},
    {.name = "rst-injector",
     .behavior = AdversarialBehavior::RstInjector,
     .expect_outcome = core::HostOutcome::Error,
     .expect_anomaly = core::ProbeAnomaly::MidStreamRst},
    {.name = "redirect-loop",
     .behavior = AdversarialBehavior::RedirectLoop,
     .expect_outcome = core::HostOutcome::FewData,
     .expect_anomaly = core::ProbeAnomaly::RedirectLoop,
     .max_redirect_hops = 4,
     .max_connections = 6},
    {.name = "slowloris",
     .behavior = AdversarialBehavior::Slowloris,
     .expect_outcome = core::HostOutcome::Error,
     .expect_anomaly = core::ProbeAnomaly::Slowloris},
    {.name = "fin-before-data",
     .behavior = AdversarialBehavior::FinBeforeData,
     .expect_outcome = core::HostOutcome::FewData,
     .expect_anomaly = core::ProbeAnomaly::EarlyFin},
    {.name = "tls-fatal-alert",
     .behavior = AdversarialBehavior::TlsFatalAlert,
     .protocol = core::ProbeProtocol::Tls,
     .expect_outcome = core::HostOutcome::FewData,
     .expect_anomaly = core::ProbeAnomaly::TlsFatalAlert},
    {.name = "shrinking-retransmit",
     .behavior = AdversarialBehavior::ShrinkingRetransmit,
     .expect_outcome = core::HostOutcome::FewData,
     .expect_anomaly = core::ProbeAnomaly::ShrinkingRetransmit},
};

TEST(AdversarialBattery, EveryHostileProfileTerminatesAndClassifies) {
  const std::uint64_t seed = test::env_scan_seed();
  std::set<core::ProbeAnomaly> distinct;

  static_assert(std::size(kBattery) == model::kAdversarialBehaviorCount);
  for (const Scenario& scenario : kBattery) {
    SCOPED_TRACE(std::string(scenario.name));
    const ScenarioResult result = test::run_scenario(scenario, seed);

    // (a) termination: done() on the engine's own schedule, within budget.
    EXPECT_TRUE(result.completed);
    EXPECT_LT(result.elapsed, scenario.deadline);
    EXPECT_EQ(result.stats.targets_started, 1u);
    EXPECT_EQ(result.stats.targets_finished, 1u);

    // (b) classification.
    EXPECT_EQ(result.record.outcome, scenario.expect_outcome)
        << "outcome " << to_string(result.record.outcome);
    EXPECT_EQ(result.record.anomaly, scenario.expect_anomaly)
        << "anomaly " << to_string(result.record.anomaly);

    // (c) zero leaked sessions.
    EXPECT_EQ(result.live_sessions, 0u);

    distinct.insert(result.record.anomaly);
  }
  // Every profile maps to its own anomaly — nothing folds together.
  EXPECT_EQ(distinct.size(), std::size(kBattery));
}

TEST(AdversarialBattery, ScenariosAreDeterministic) {
  for (const Scenario& scenario :
       {kBattery[0], kBattery[2], kBattery[5], kBattery[9]}) {
    SCOPED_TRACE(std::string(scenario.name));
    const ScenarioResult first = test::run_scenario(scenario);
    const ScenarioResult second = test::run_scenario(scenario);
    EXPECT_TRUE(first.record == second.record);
    EXPECT_EQ(first.elapsed, second.elapsed);
    EXPECT_EQ(first.stats.packets_sent, second.stats.packets_sent);
    EXPECT_EQ(first.stats.packets_received, second.stats.packets_received);
  }
}

TEST(AdversarialBattery, MssViolatorStillYieldsAnIwMeasurement) {
  Scenario scenario = kBattery[2];
  const ScenarioResult result = test::run_scenario(scenario);
  // The violator is honestly IW-limited at 4 oversized segments: the
  // estimate survives, flagged rather than discarded.
  EXPECT_EQ(result.record.iw_segments, 4u);
  EXPECT_EQ(result.record.observed_mss, 1000u);
  EXPECT_EQ(result.record.anomaly, core::ProbeAnomaly::MssViolation);
}

TEST(AdversarialBattery, RedirectLoopAtThePapersBudgetsEndsFewDataUnflagged) {
  // At IwScanConfig's defaults (§3.2: one redirect, two connections per
  // probe) each probe follows "/" → "/loop-a", and the second 301 meets
  // the connection budget before any URL repeats: the loop is never seen,
  // so the host ends FewData with no anomaly. Only the battery's raised
  // budgets walk the chain far enough to flag RedirectLoop.
  Scenario scenario = kBattery[5];
  scenario.max_redirect_hops = core::IwScanConfig{}.max_redirect_hops;
  scenario.max_connections = core::IwScanConfig{}.max_connections;
  const ScenarioResult result = test::run_scenario(scenario);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.record.outcome, core::HostOutcome::FewData);
  EXPECT_EQ(result.record.anomaly, core::ProbeAnomaly::None);
  EXPECT_EQ(result.record.lower_bound, 2u);
  EXPECT_EQ(result.record.probes_run, 6);
  EXPECT_EQ(result.record.connections_used, 12);
  EXPECT_EQ(result.live_sessions, 0u);
}

/// The first response segment the redirect-loop daemon sends to a GET of
/// `path`, as the fabric carried it.
std::string redirect_loop_response(std::string_view path) {
  test::Testbed bed;
  const net::IPv4Address ip{10, 66, 0, 2};
  const auto host = model::make_adversarial_host(bed.network(), ip,
                                                 AdversarialBehavior::RedirectLoop, 0xfeed);
  bed.network().attach(ip, host.get());
  std::string response;
  bed.network().set_tap([&](net::PacketView bytes) {
    const auto datagram = net::decode_datagram(bytes);
    const auto* segment = datagram ? std::get_if<net::TcpSegment>(&*datagram) : nullptr;
    if (segment != nullptr && segment->ip.src == ip && !segment->payload.empty() &&
        response.empty()) {
      response = util::as_text(segment->payload);
    }
  });
  bed.estimate(ip, 80, 1460, test::Testbed::http_get(ip, path));
  bed.network().set_tap(nullptr);
  bed.network().detach(ip);
  return response;
}

TEST(AdversarialBattery, RedirectLoopResponseBytesArePinned) {
  // "/loop-a" redirects to "/loop-b"; every other path to "/loop-a".
  const std::string to_a =
      "HTTP/1.1 301 Moved Permanently\r\n"
      "Server: loopd\r\n"
      "Location: /loop-a\r\n"
      "Connection: close\r\n"
      "Content-Length: 0\r\n\r\n";
  std::string to_b = to_a;
  to_b.replace(to_b.find("/loop-a"), 7, "/loop-b");
  EXPECT_EQ(redirect_loop_response("/"), to_a);
  EXPECT_EQ(redirect_loop_response("/loop-b"), to_a);
  EXPECT_EQ(redirect_loop_response("/loop-a"), to_b);
}

// ------------------------------------------------ graceful degradation ----

TEST(SessionBudget, WallTimeKillsTarpitSession) {
  Scenario scenario = kBattery[0];  // tarpit: would otherwise sit for ~2 min
  scenario.budget.wall_time = sim::sec(5);
  const ScenarioResult result = test::run_scenario(scenario);

  EXPECT_TRUE(result.completed);
  EXPECT_LT(result.elapsed, sim::sec(10));
  EXPECT_EQ(result.stats.sessions_killed_wall, 1u);
  EXPECT_EQ(result.stats.targets_finished, 1u);
  EXPECT_EQ(result.live_sessions, 0u);
  // Best-effort record: killed before any connection concluded, so the
  // only evidence is the budget itself.
  EXPECT_EQ(result.record.outcome, core::HostOutcome::Error);
  EXPECT_EQ(result.record.anomaly, core::ProbeAnomaly::BudgetExceeded);
}

TEST(SessionBudget, RxByteCapKillsOversizedSender) {
  Scenario scenario = kBattery[2];  // mss-violator: 1000 B segments
  scenario.budget.rx_bytes = 2048;
  const ScenarioResult result = test::run_scenario(scenario);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stats.sessions_killed_bytes, 1u);
  EXPECT_EQ(result.live_sessions, 0u);
  EXPECT_EQ(result.record.outcome, core::HostOutcome::Error);
  EXPECT_EQ(result.record.anomaly, core::ProbeAnomaly::BudgetExceeded);
}

TEST(SessionBudget, RxPacketCapKillsSlowloris) {
  Scenario scenario = kBattery[6];  // slowloris: one tiny packet at a time
  scenario.budget.rx_packets = 8;
  const ScenarioResult result = test::run_scenario(scenario);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stats.sessions_killed_packets, 1u);
  EXPECT_EQ(result.live_sessions, 0u);
  EXPECT_EQ(result.record.anomaly, core::ProbeAnomaly::BudgetExceeded);
}

TEST(SessionBudget, DisabledLimitsNeverFire) {
  Scenario scenario = kBattery[0];
  scenario.budget.wall_time = sim::SimTime::zero();  // zero = unlimited
  scenario.budget.rx_bytes = 0;
  scenario.budget.rx_packets = 0;
  const ScenarioResult result = test::run_scenario(scenario);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stats.sessions_killed_wall, 0u);
  EXPECT_EQ(result.stats.sessions_killed_bytes, 0u);
  EXPECT_EQ(result.stats.sessions_killed_packets, 0u);
  EXPECT_EQ(result.record.anomaly, core::ProbeAnomaly::Tarpit);
}

// ------------------------------------------------------- mixed worlds ----

TEST(AdversarialWorld, FractionZeroReproducesTheCleanGroundTruth) {
  // The overlay draws from a dedicated RNG stream: with fraction 0 the
  // synthesized truth — and therefore the whole world — is untouched.
  sim::EventLoop loop;
  sim::Network network(loop, 5);
  model::ModelConfig clean;
  clean.scale_log2 = 12;
  model::ModelConfig overlaid = clean;
  overlaid.adversarial_fraction = 0.0;
  model::InternetModel a(network, clean);
  model::InternetModel b(network, overlaid);
  for (std::uint32_t i = 0; i < 512; ++i) {
    const net::IPv4Address ip{10, 0, static_cast<std::uint8_t>(i >> 8),
                              static_cast<std::uint8_t>(i & 0xff)};
    EXPECT_FALSE(a.truth(ip).adversary.has_value());
    EXPECT_FALSE(b.truth(ip).adversary.has_value());
  }
}

TEST(AdversarialWorld, OverlayIsDeterministicPerAddress) {
  sim::EventLoop loop;
  sim::Network network(loop, 5);
  model::ModelConfig config;
  config.scale_log2 = 12;
  config.adversarial_fraction = 0.3;
  model::InternetModel a(network, config);
  model::InternetModel b(network, config);
  int overlaid = 0;
  for (std::uint32_t i = 0; i < 2048; ++i) {
    const net::IPv4Address ip{10, 0, static_cast<std::uint8_t>(i >> 8),
                              static_cast<std::uint8_t>(i & 0xff)};
    const auto ta = a.truth(ip);
    const auto tb = b.truth(ip);
    EXPECT_EQ(ta.adversary, tb.adversary);
    if (ta.adversary) ++overlaid;
  }
  EXPECT_GT(overlaid, 0);
}

TEST(AdversarialWorld, MixedScanTerminatesAndCountsAnomalies) {
  sim::EventLoop loop;
  sim::Network network(loop, 123);
  model::ModelConfig config;
  config.scale_log2 = 12;
  config.adversarial_fraction = 0.12;
  model::InternetModel internet(network, config);
  internet.install();

  analysis::ScanOptions options;
  options.rate_pps = 40'000;
  options.scan_seed = test::env_scan_seed();
  const analysis::ScanOutput output =
      analysis::run_iw_scan(network, internet, options);

  ASSERT_FALSE(output.records.empty());
  std::map<core::ProbeAnomaly, int> counts;
  for (const core::HostScanRecord& record : output.records) {
    if (record.anomaly != core::ProbeAnomaly::None) ++counts[record.anomaly];
  }
  // A 12% hostile fraction must surface a spread of anomaly classes.
  EXPECT_GE(counts.size(), 4u);
  EXPECT_EQ(output.engine.targets_started, output.engine.targets_finished);
}

}  // namespace
}  // namespace iwscan
