// IW estimator validation — the reproduction of §3.5: with ground truth
// configured on testbed hosts, the estimator must return the exact IW when
// enough data is available, a correct lower bound when not, and must never
// overestimate.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "testbed.hpp"

namespace iwscan {
namespace {

using test::Testbed;

http::WebConfig big_page(std::size_t bytes) {
  http::WebConfig web;
  web.root = http::RootBehavior::Page;
  web.page_size = bytes;
  return web;
}

tcp::StackConfig stack_with_iw(std::uint32_t segments,
                               tcp::OsProfile os = tcp::OsProfile::Linux) {
  tcp::StackConfig stack;
  stack.os = os;
  stack.iw = tcp::IwConfig::segments_of(segments);
  return stack;
}

TEST(Estimator, ExactIwWithEnoughData) {
  // Ground-truth sweep over the RFC-recommended values (§3.5: "the
  // estimator provided the correct IW in all tested cases").
  for (const std::uint32_t iw : {1u, 2u, 3u, 4u, 10u}) {
    Testbed bed;
    const net::IPv4Address host{10, 0, 0, 1};
    bed.add_http_host(host, stack_with_iw(iw), big_page(16'000));

    const auto obs = bed.estimate(host, 80, 64, Testbed::http_get(host));
    EXPECT_EQ(obs.outcome, core::ConnOutcome::Success) << "IW " << iw;
    EXPECT_EQ(obs.iw_estimate, iw) << "IW " << iw;
    EXPECT_TRUE(obs.verify_new_data);
    EXPECT_FALSE(obs.fin_seen);
  }
}

TEST(Estimator, LargeAndVendorIwValues) {
  for (const std::uint32_t iw : {16u, 25u, 32u, 48u, 64u}) {
    Testbed bed;
    const net::IPv4Address host{10, 0, 0, 2};
    bed.add_http_host(host, stack_with_iw(iw), big_page(iw * 64 + 4'000));

    const auto obs = bed.estimate(host, 80, 64, Testbed::http_get(host));
    EXPECT_EQ(obs.outcome, core::ConnOutcome::Success) << "IW " << iw;
    EXPECT_EQ(obs.iw_estimate, iw) << "IW " << iw;
  }
}

TEST(Estimator, WindowsMssClampIsHandled) {
  // §3.1: Windows falls back to MSS 536 when the announced MSS is lower;
  // the estimator must use the observed segment size, not the announced
  // one, and still recover IW 10.
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 3};
  bed.add_http_host(host, stack_with_iw(10, tcp::OsProfile::Windows),
                    big_page(16'000));

  const auto obs = bed.estimate(host, 80, 64, Testbed::http_get(host));
  ASSERT_EQ(obs.outcome, core::ConnOutcome::Success);
  EXPECT_EQ(obs.max_segment, 536);
  EXPECT_EQ(obs.iw_estimate, 10u);
}

TEST(Estimator, FewDataYieldsLowerBoundAndFin) {
  // Response of ~7 segments worth on an IW-10 host: Connection: close makes
  // the server FIN, proving the IW was not filled (§3.2).
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 4};
  http::WebConfig web;
  web.root = http::RootBehavior::Page;
  web.page_size = 300;  // total response ≈ 420 B → bound 7 at MSS 64
  bed.add_http_host(host, stack_with_iw(10), web);

  const auto obs = bed.estimate(host, 80, 64, Testbed::http_get(host));
  EXPECT_EQ(obs.outcome, core::ConnOutcome::FewData);
  EXPECT_TRUE(obs.fin_seen);
  EXPECT_GE(obs.iw_estimate, 6u);
  EXPECT_LE(obs.iw_estimate, 8u);
  EXPECT_LE(obs.iw_estimate, 10u) << "lower bound may never exceed the true IW";
}

TEST(Estimator, ExactFitIsClassifiedFewData) {
  // Response exactly equal to the IW: the FIN piggybacks on the last burst
  // segment, so the estimator cannot be sure the IW was filled.
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 5};
  tcp::StackConfig stack = stack_with_iw(4);
  http::WebConfig web;
  web.root = http::RootBehavior::Page;
  // 4 segments × 64 B = 256 B total response.
  const std::size_t overhead =
      model::http_response_overhead("Apache", 200, 256, true);
  web.page_size = 256 - overhead;
  bed.add_http_host(host, stack, web);

  const auto obs = bed.estimate(host, 80, 64, Testbed::http_get(host));
  EXPECT_EQ(obs.outcome, core::ConnOutcome::FewData);
  EXPECT_TRUE(obs.fin_seen);
  EXPECT_EQ(obs.iw_estimate, 4u);
}

TEST(Estimator, OneByteOverExactFitFlipsToSuccess) {
  // The Success / FewData boundary at exactly IW segments: a response one
  // byte larger than IW×MSS leaves data pending behind the burst, so the
  // verify ACK releases new data and the classification flips to Success
  // with the exact IW — the knife-edge complement of ExactFitIsClassifiedFewData.
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 7};
  tcp::StackConfig stack = stack_with_iw(4);
  http::WebConfig web;
  web.root = http::RootBehavior::Page;
  const std::size_t overhead =
      model::http_response_overhead("Apache", 200, 257, true);
  web.page_size = 257 - overhead;  // total response = 4 × 64 + 1 bytes
  bed.add_http_host(host, stack, web);

  const auto obs = bed.estimate(host, 80, 64, Testbed::http_get(host));
  EXPECT_EQ(obs.outcome, core::ConnOutcome::Success);
  EXPECT_TRUE(obs.verify_new_data);
  EXPECT_EQ(obs.iw_estimate, 4u);
}

TEST(Estimator, MssViolationInflatesBytesPastIwTimesMss) {
  // A host ignoring the announced 64 B MSS and sending 1000 B segments:
  // the burst spans far more bytes than iw_estimate × announced MSS would
  // allow, the oversized segments are flagged, and the segment-counted IW
  // still comes out right.
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 8};
  model::AdversarialHost adv = model::make_adversarial_host(
      bed.network(), host, model::AdversarialBehavior::MssViolator, 1);
  bed.network().attach(host, adv.endpoint.get());

  const auto obs = bed.estimate(host, 80, 64, Testbed::http_get(host));
  bed.network().detach(host);

  EXPECT_EQ(obs.outcome, core::ConnOutcome::Success);
  EXPECT_TRUE(obs.mss_violation);
  EXPECT_EQ(obs.anomaly, core::ProbeAnomaly::MssViolation);
  EXPECT_EQ(obs.max_segment, 1000u);
  EXPECT_EQ(obs.iw_estimate, 4u);
  // The byte span dwarfs what IW × announced-MSS accounting predicts.
  EXPECT_GT(obs.span_bytes, std::uint64_t{obs.iw_estimate} * 64);
}

TEST(Estimator, NoDataHost) {
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 6};
  http::WebConfig web;
  web.root = http::RootBehavior::Silent;
  bed.add_http_host(host, stack_with_iw(10), web);

  const auto obs = bed.estimate(host, 80, 64, Testbed::http_get(host));
  EXPECT_EQ(obs.outcome, core::ConnOutcome::NoData);
  EXPECT_EQ(obs.iw_estimate, 0u);
}

TEST(Estimator, UnreachableAndRefused) {
  Testbed bed;
  // 10.0.0.7 has no endpoint at all → SYN times out.
  auto obs = bed.estimate(net::IPv4Address{10, 0, 0, 7}, 80, 64,
                          Testbed::http_get(net::IPv4Address{10, 0, 0, 7}));
  EXPECT_EQ(obs.outcome, core::ConnOutcome::Unreachable);

  // Host present but port 81 closed → RST → refused.
  const net::IPv4Address host{10, 0, 0, 8};
  bed.add_http_host(host, stack_with_iw(10), big_page(8'000));
  obs = bed.estimate(host, 81, 64, Testbed::http_get(host));
  EXPECT_EQ(obs.outcome, core::ConnOutcome::Refused);
}

TEST(Estimator, ByteLimitedHostScalesWithMss) {
  // §4.2: a 4 kB byte-IW host sends 64 segments at MSS 64 and 32 at 128.
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 9};
  tcp::StackConfig stack;
  stack.iw = tcp::IwConfig::bytes_of(4096);
  bed.add_http_host(host, stack, big_page(12'000));

  const auto at64 = bed.estimate(host, 80, 64, Testbed::http_get(host));
  ASSERT_EQ(at64.outcome, core::ConnOutcome::Success);
  EXPECT_EQ(at64.iw_estimate, 64u);

  const auto at128 = bed.estimate(host, 80, 128, Testbed::http_get(host));
  ASSERT_EQ(at128.outcome, core::ConnOutcome::Success);
  EXPECT_EQ(at128.iw_estimate, 32u);
  EXPECT_EQ(at64.span_bytes, at128.span_bytes);
}

TEST(Estimator, MtuFillHostScalesWithMss) {
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 10};
  tcp::StackConfig stack;
  stack.iw = tcp::IwConfig::bytes_of(1536);
  bed.add_http_host(host, stack, big_page(8'000));

  const auto at64 = bed.estimate(host, 80, 64, Testbed::http_get(host));
  const auto at128 = bed.estimate(host, 80, 128, Testbed::http_get(host));
  ASSERT_EQ(at64.outcome, core::ConnOutcome::Success);
  ASSERT_EQ(at128.outcome, core::ConnOutcome::Success);
  EXPECT_EQ(at64.iw_estimate, 24u);
  EXPECT_EQ(at128.iw_estimate, 12u);
}

TEST(Estimator, TlsFirstFlightYieldsIw) {
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 11};
  tls::TlsConfig config;
  config.chain_bytes = 4'000;  // plenty for IW 10 at 64 B
  bed.add_tls_host(host, stack_with_iw(10), config);

  auto strategy = core::make_tls_strategy(0, "");
  const auto obs = bed.estimate(host, 443, 64, strategy->request());
  ASSERT_EQ(obs.outcome, core::ConnOutcome::Success);
  EXPECT_EQ(obs.iw_estimate, 10u);
}

TEST(Estimator, TlsAlertWithoutSniIsFewDataBoundOne) {
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 12};
  tls::TlsConfig config;
  config.sni_policy = tls::SniPolicy::AlertAndClose;
  bed.add_tls_host(host, stack_with_iw(10), config);

  auto strategy = core::make_tls_strategy(0, "");
  const auto obs = bed.estimate(host, 443, 64, strategy->request());
  EXPECT_EQ(obs.outcome, core::ConnOutcome::FewData);
  EXPECT_EQ(obs.iw_estimate, 1u);
  EXPECT_TRUE(obs.fin_seen);
}

TEST(Estimator, TlsSilentCloseIsNoData) {
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 13};
  tls::TlsConfig config;
  config.sni_policy = tls::SniPolicy::SilentClose;
  bed.add_tls_host(host, stack_with_iw(10), config);

  auto strategy = core::make_tls_strategy(0, "");
  const auto obs = bed.estimate(host, 443, 64, strategy->request());
  EXPECT_EQ(obs.outcome, core::ConnOutcome::NoData);
}

TEST(Estimator, WireShapeMatchesPaper) {
  // The probe's wire contract (§3.1, Fig. 1): a SYN announcing only the
  // small MSS under a large window, without SACK (which would enable
  // tail-loss probes) or window scaling; the request on the handshake ACK;
  // after the sender's RTO retransmission, an ACK opening exactly 2·MSS;
  // and a reset, never a graceful close.
  for (const std::uint16_t mss : {std::uint16_t{64}, std::uint16_t{128}}) {
    Testbed bed;
    const net::IPv4Address host{10, 0, 0, 14};
    bed.add_http_host(host, stack_with_iw(10), big_page(16'000));
    std::vector<net::TcpSegment> wire;
    bed.tap_segments(wire);
    const net::Bytes request = Testbed::http_get(host);
    const auto obs = bed.estimate(host, 80, mss, request);
    ASSERT_EQ(obs.outcome, core::ConnOutcome::Success) << "MSS " << mss;

    std::vector<net::TcpSegment> sent;  // scanner → host
    std::optional<std::uint32_t> first_data_seq;
    int first_data_copies_before_verify = 0;
    for (const auto& segment : wire) {
      if (segment.ip.src == test::kScannerIp) {
        sent.push_back(segment);
      } else if (!segment.payload.empty() && sent.size() <= 2) {
        if (!first_data_seq) first_data_seq = segment.tcp.seq;
        if (segment.tcp.seq == *first_data_seq) ++first_data_copies_before_verify;
      }
    }
    ASSERT_EQ(sent.size(), 4u) << "SYN, ACK+request, verify ACK, RST; MSS " << mss;

    const auto& syn = sent[0];
    EXPECT_EQ(int{syn.tcp.flags}, net::kSyn);
    EXPECT_EQ(syn.tcp.window, 65535);
    // Exactly one option: neither SACK-permitted nor window scale.
    ASSERT_EQ(syn.tcp.options.size(), 1u);
    EXPECT_EQ(syn.tcp.options[0], net::TcpOption{net::MssOption{mss}});

    const auto& request_ack = sent[1];
    EXPECT_EQ(int{request_ack.tcp.flags}, net::kAck | net::kPsh);
    EXPECT_EQ(request_ack.tcp.seq, syn.tcp.seq + 1);
    EXPECT_EQ(request_ack.payload, request);

    EXPECT_GE(first_data_copies_before_verify, 2)
        << "the verify ACK waits for the RTO retransmission; MSS " << mss;
    const auto& verify = sent[2];
    EXPECT_EQ(int{verify.tcp.flags}, net::kAck);
    EXPECT_TRUE(verify.payload.empty());
    EXPECT_EQ(verify.tcp.window, 2 * mss);

    EXPECT_EQ(int{sent[3].tcp.flags}, net::kRst | net::kAck);
  }
}

TEST(Estimator, NeverOverestimatesUnderLoss) {
  // §3.5 NetEM experiment: with random loss, estimates are exact or (under
  // tail loss) underestimates — never overestimates.
  for (const double loss : {0.02, 0.05, 0.10}) {
    for (int trial = 0; trial < 12; ++trial) {
      Testbed bed(static_cast<std::uint64_t>(loss * 1000) * 100 +
                  static_cast<std::uint64_t>(trial));
      const net::IPv4Address host{10, 0, 1, static_cast<std::uint8_t>(trial + 1)};
      bed.add_http_host(host, stack_with_iw(10), big_page(16'000));
      sim::PathConfig path = bed.network().default_path();
      path.loss_rate = loss;
      bed.network().set_path(host, path);

      const auto obs = bed.estimate(host, 80, 64, Testbed::http_get(host));
      if (obs.outcome == core::ConnOutcome::Success) {
        EXPECT_LE(obs.iw_estimate, 10u)
            << "loss " << loss << " trial " << trial;
        EXPECT_GE(obs.iw_estimate, 1u);
      }
    }
  }
}

TEST(Estimator, ReorderingIsDetectedAndTolerated) {
  Testbed bed(77);
  const net::IPv4Address host{10, 0, 0, 14};
  bed.add_http_host(host, stack_with_iw(10), big_page(16'000));
  sim::PathConfig path = bed.network().default_path();
  path.reorder_rate = 0.4;
  path.reorder_delay = sim::msec(4);
  bed.network().set_path(host, path);

  const auto obs = bed.estimate(host, 80, 64, Testbed::http_get(host));
  ASSERT_EQ(obs.outcome, core::ConnOutcome::Success);
  EXPECT_EQ(obs.iw_estimate, 10u) << "reordering must not corrupt the estimate";
}

TEST(Estimator, PrefixHoldsHttpStatusLine) {
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 15};
  http::WebConfig web;
  web.root = http::RootBehavior::RedirectToName;
  web.canonical_name = "www.example.test";
  bed.add_http_host(host, stack_with_iw(10), web);

  const auto obs = bed.estimate(host, 80, 64, Testbed::http_get(host));
  ASSERT_EQ(obs.outcome, core::ConnOutcome::FewData);
  const std::string text(obs.prefix.begin(), obs.prefix.end());
  EXPECT_NE(text.find("301"), std::string::npos);
  EXPECT_NE(text.find("Location: http://www.example.test/"), std::string::npos);
}

TEST(Estimator, LostRequestIsResentOnDuplicateSynAck) {
  // Deterministic fault injection: the first ACK+request is dropped; the
  // server retransmits its SYN/ACK, which must trigger a request resend —
  // otherwise the probe would time out as a false NoData.
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 16};
  bed.add_http_host(host, stack_with_iw(10), big_page(16'000));

  int requests_seen = 0;
  bed.network().set_filter([&](net::PacketView bytes) {
    const auto datagram = net::decode_datagram(bytes);
    if (!datagram) return true;
    const auto* segment = std::get_if<net::TcpSegment>(&*datagram);
    if (segment && !segment->payload.empty() && segment->tcp.dst_port == 80) {
      // Drop the first copy of the request only.
      return ++requests_seen > 1;
    }
    return true;
  });

  const auto obs = bed.estimate(host, 80, 64, Testbed::http_get(host));
  bed.network().set_filter(nullptr);
  EXPECT_EQ(obs.outcome, core::ConnOutcome::Success);
  EXPECT_EQ(obs.iw_estimate, 10u);
  EXPECT_EQ(requests_seen, 2) << "exactly one resend after the lost request";
}

TEST(Estimator, LostSynAckMeansUnreachable) {
  // The SYN/ACK never arrives (dropped every time): like ZMap, the probe
  // sends no SYN retries and classifies the host unreachable.
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 17};
  bed.add_http_host(host, stack_with_iw(10), big_page(16'000));
  bed.network().set_filter([&](net::PacketView bytes) {
    const auto datagram = net::decode_datagram(bytes);
    if (!datagram) return true;
    const auto* segment = std::get_if<net::TcpSegment>(&*datagram);
    return !(segment && segment->tcp.has(net::kSyn) && segment->tcp.has(net::kAck));
  });
  const auto obs = bed.estimate(host, 80, 64, Testbed::http_get(host));
  bed.network().set_filter(nullptr);
  EXPECT_EQ(obs.outcome, core::ConnOutcome::Unreachable);
}

// --------------------------------------------------------------------------
// Property matrix: for every (true IW, OS profile, announced MSS) the
// estimator must return exactly the true IW in segments when the response
// is large enough — the generalized §3.5 ground-truth sweep.
// --------------------------------------------------------------------------

using MatrixParam = std::tuple<std::uint32_t, tcp::OsProfile, std::uint16_t>;

class EstimatorMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(EstimatorMatrix, ExactForAllCombinations) {
  const auto [iw, os, announced_mss] = GetParam();
  Testbed bed(iw * 131 + announced_mss);
  const net::IPv4Address host{10, 0, 2, 1};

  // Page comfortably larger than the IW at the effective segment size.
  const std::uint16_t eff = tcp::effective_mss(os, announced_mss, 1460);
  bed.add_http_host(host, stack_with_iw(iw, os),
                    big_page(static_cast<std::size_t>(iw) * eff + 4 * eff + 2000));

  const auto obs = bed.estimate(host, 80, announced_mss, Testbed::http_get(host));
  ASSERT_EQ(obs.outcome, core::ConnOutcome::Success)
      << "iw=" << iw << " os=" << static_cast<int>(os) << " mss=" << announced_mss;
  EXPECT_EQ(obs.iw_estimate, iw);
  EXPECT_EQ(obs.max_segment, eff);
}

INSTANTIATE_TEST_SUITE_P(
    GroundTruthSweep, EstimatorMatrix,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 10u, 16u, 25u, 48u),
                       ::testing::Values(tcp::OsProfile::Linux,
                                         tcp::OsProfile::Windows),
                       ::testing::Values(std::uint16_t{64}, std::uint16_t{128},
                                         std::uint16_t{256})),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      // Note: no structured bindings here — commas in brackets break the
      // INSTANTIATE macro's argument splitting.
      return "IW" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == tcp::OsProfile::Linux ? "_Linux_"
                                                               : "_Windows_") +
             "MSS" + std::to_string(std::get<2>(info.param));
    });

// Byte-policy matrix: IW budget in bytes must translate to ceil(bytes/eff)
// segments at every announced MSS.
class BytePolicyMatrix
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint16_t>> {};

TEST_P(BytePolicyMatrix, SegmentsAreCeilOfBudget) {
  const auto [budget, announced_mss] = GetParam();
  Testbed bed(budget + announced_mss);
  const net::IPv4Address host{10, 0, 2, 2};
  tcp::StackConfig stack;
  stack.iw = tcp::IwConfig::bytes_of(budget);
  bed.add_http_host(host, stack, big_page(budget * 3 + 4000));

  const auto obs = bed.estimate(host, 80, announced_mss, Testbed::http_get(host));
  ASSERT_EQ(obs.outcome, core::ConnOutcome::Success);
  const std::uint32_t expected = (budget + announced_mss - 1) / announced_mss;
  EXPECT_EQ(obs.iw_estimate, expected) << "budget=" << budget;
  EXPECT_EQ(obs.span_bytes, budget);
}

INSTANTIATE_TEST_SUITE_P(Budgets, BytePolicyMatrix,
                         ::testing::Combine(::testing::Values(1536u, 4096u, 8192u),
                                            ::testing::Values(std::uint16_t{64},
                                                              std::uint16_t{128})));

}  // namespace
}  // namespace iwscan
