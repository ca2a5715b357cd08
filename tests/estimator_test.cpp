// IW estimator validation — the reproduction of §3.5: with ground truth
// configured on testbed hosts, the estimator must return the exact IW when
// enough data is available, a correct lower bound when not, and must never
// overestimate.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "testbed.hpp"
#include "util/rng.hpp"

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
      http::response_head_size({http::StatusCode::Ok, "Apache", true, {}}, 256);
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
      http::response_head_size({http::StatusCode::Ok, "Apache", true, {}}, 257);
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
  const auto adv = model::make_adversarial_host(
      bed.network(), host, model::AdversarialBehavior::MssViolator, 1);
  bed.network().attach(host, adv.get());

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

  const auto obs = bed.estimate(host, 443, 64, core::client_hello(0, ""));
  ASSERT_EQ(obs.outcome, core::ConnOutcome::Success);
  EXPECT_EQ(obs.iw_estimate, 10u);
}

TEST(Estimator, TlsAlertWithoutSniIsFewDataBoundOne) {
  Testbed bed;
  const net::IPv4Address host{10, 0, 0, 12};
  tls::TlsConfig config;
  config.sni_policy = tls::SniPolicy::AlertAndClose;
  bed.add_tls_host(host, stack_with_iw(10), config);

  const auto obs = bed.estimate(host, 443, 64, core::client_hello(0, ""));
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

  const auto obs = bed.estimate(host, 443, 64, core::client_hello(0, ""));
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
    std::vector<net::Bytes> wire_bytes;
    bed.tap_segments(wire, &wire_bytes);
    const net::Bytes request = Testbed::http_get(host);
    const auto obs = bed.estimate(host, 80, mss, request);
    ASSERT_EQ(obs.outcome, core::ConnOutcome::Success) << "MSS " << mss;

    std::vector<net::TcpSegment> sent;  // scanner → host
    net::Bytes syn_bytes;
    std::optional<std::uint32_t> first_data_seq;
    int first_data_copies_before_verify = 0;
    for (std::size_t i = 0; i < wire.size(); ++i) {
      const auto& segment = wire[i];
      if (segment.ip.src == test::kScannerIp) {
        if (sent.empty()) syn_bytes = wire_bytes[i];
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
    // Exactly one option, on the wire: a 24-byte TCP header whose options
    // are `02 04 <mss>`, so neither SACK-permitted nor window scale.
    ASSERT_EQ(syn_bytes.size(), 20u + 24u);
    EXPECT_EQ(syn_bytes[20 + 12] >> 4, 6) << "data offset in words";
    EXPECT_EQ(net::Bytes(syn_bytes.begin() + 40, syn_bytes.end()),
              (net::Bytes{2, 4, static_cast<std::uint8_t>(mss >> 8),
                          static_cast<std::uint8_t>(mss & 0xff)}));
    EXPECT_EQ(syn.tcp.mss, mss);

    const auto& request_ack = sent[1];
    EXPECT_EQ(int{request_ack.tcp.flags}, net::kAck | net::kPsh);
    EXPECT_EQ(request_ack.tcp.seq, syn.tcp.seq + 1);
    EXPECT_EQ(util::as_text(request_ack.payload), util::as_text(request));

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
// Reassembly equivalence: random segment sequences (in order, reordered,
// duplicated, overlapping, with gaps, with a FIN) fed straight into the
// estimator must conclude exactly as a std::map model of the collect phase
// does — the estimator's range and chunk bookkeeping as it stood before it
// moved to flat vectors, kept here as the oracle.
// --------------------------------------------------------------------------

/// In-order payload the estimator keeps (core/estimator.cpp, kPrefixCap).
constexpr std::size_t kModelPrefixCap = 16 * 1024;

struct Arrival {
  std::uint64_t start = 0;  // stream offset of the first payload byte
  net::Bytes payload;
  bool fin = false;
};

struct Expected {
  core::ConnOutcome outcome = core::ConnOutcome::Error;
  std::uint32_t iw_estimate = 0;
  std::uint64_t span_bytes = 0;
  bool reorder_seen = false;
  bool overlap_seen = false;
  bool loss_holes = false;
  net::Bytes prefix;
  // Arrivals the collect phase read before it ended: by a FIN, by the
  // retransmission that starts verification, or by running out.
  std::size_t consumed = 0;
  bool verified = false;  // ended by the retransmission
};

/// The std::map model. Every arrival lands in one instant (no pacing or
/// trickle evidence); `verify_fresh` says whether new data answers the
/// verify ACK, if the sequence reaches verification at all.
Expected run_map_model(const std::vector<Arrival>& arrivals, bool verify_fresh) {
  std::map<std::uint64_t, std::uint64_t> ranges;  // start → end (exclusive)
  std::map<std::uint64_t, net::Bytes> chunks;
  std::uint64_t max_end = 0;
  std::uint64_t stored = 0;
  std::uint16_t max_segment = 0;
  Expected result;

  const auto covered = [&](std::uint64_t start, std::uint64_t end) {
    const auto it = ranges.upper_bound(start);
    if (it == ranges.begin()) return false;
    const auto& [range_start, range_end] = *std::prev(it);
    return range_start <= start && end <= range_end;
  };
  const auto overlaps = [&](std::uint64_t start, std::uint64_t end) {
    auto it = ranges.upper_bound(start);
    if (it != ranges.begin() && std::prev(it)->second > start) return true;
    return it != ranges.end() && it->first < end;
  };
  const auto contiguous_from_zero = [&](std::uint64_t upto) {
    if (upto == 0) return true;
    const auto it = ranges.find(0);
    return it != ranges.end() && it->second >= upto;
  };

  std::optional<core::ConnOutcome> outcome;
  bool fin_seen = false;
  bool verify = false;
  for (const Arrival& arrival : arrivals) {
    ++result.consumed;
    if (arrival.payload.empty() && !arrival.fin) continue;
    if (!arrival.payload.empty()) {
      std::uint64_t start = arrival.start;
      std::uint64_t end = start + arrival.payload.size();
      if (covered(start, end)) {
        if (start == 0) {
          verify = true;  // the sender's RTO retransmission
          break;
        }
        continue;
      }
      if (overlaps(start, end)) result.overlap_seen = true;
      max_segment =
          std::max(max_segment, static_cast<std::uint16_t>(arrival.payload.size()));
      if (start < max_end) result.reorder_seen = true;
      if (stored < kModelPrefixCap && !chunks.contains(start)) {
        chunks.emplace(start, arrival.payload);
        stored += arrival.payload.size();
      }
      auto it = ranges.upper_bound(start);
      if (it != ranges.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= start) {
          start = prev->first;
          end = std::max(end, prev->second);
          it = ranges.erase(prev);
        }
      }
      while (it != ranges.end() && it->first <= end) {
        end = std::max(end, it->second);
        it = ranges.erase(it);
      }
      ranges.emplace(start, end);
      max_end = std::max(max_end, end);
    }
    if (arrival.fin) {
      fin_seen = true;
      if (contiguous_from_zero(arrival.start + arrival.payload.size())) {
        outcome = max_end == 0 ? core::ConnOutcome::NoData : core::ConnOutcome::FewData;
        break;
      }
    }
  }
  result.verified = verify;
  if (!outcome) {
    if (verify) {
      result.loss_holes = ranges.size() > 1;
      outcome = verify_fresh ? core::ConnOutcome::Success : core::ConnOutcome::FewData;
    } else if (fin_seen) {  // the collect timeout, with a hole before the FIN
      result.loss_holes = ranges.size() != 1 || !ranges.contains(0);
      outcome = max_end == 0 ? core::ConnOutcome::NoData : core::ConnOutcome::FewData;
    } else {  // the collect timeout, no retransmission seen
      outcome = max_end == 0 ? core::ConnOutcome::NoData : core::ConnOutcome::Error;
    }
  }
  result.outcome = *outcome;
  result.span_bytes = max_end;
  if (max_segment > 0) {
    result.iw_estimate =
        static_cast<std::uint32_t>((max_end + max_segment - 1) / max_segment);
  }
  if (result.outcome == core::ConnOutcome::NoData) result.iw_estimate = 0;

  std::uint64_t expect = 0;
  for (const auto& [start, bytes] : chunks) {
    if (start > expect) break;
    const std::uint64_t skip = expect - start;
    if (skip < bytes.size()) {
      result.prefix.insert(result.prefix.end(),
                           bytes.begin() + static_cast<std::ptrdiff_t>(skip),
                           bytes.end());
      expect = start + bytes.size();
    }
  }
  return result;
}

/// Session services for driving one estimator by hand: packets it sends are
/// kept in `sent`, and time moves only when the test runs the loop.
class ManualServices final : public scan::SessionServices {
 public:
  static constexpr std::uint32_t kIsn = 0x5eed;

  void send_packet(net::Bytes bytes) override { sent.push_back(std::move(bytes)); }
  sim::EventLoop& loop() override { return loop_; }
  net::IPv4Address scanner_address() const override { return test::kScannerIp; }
  std::uint16_t allocate_port(net::IPv4Address) override { return 40000; }
  std::uint64_t session_seed(net::IPv4Address) override { return kIsn; }

 private:
  sim::EventLoop loop_;

 public:
  std::vector<net::Bytes> sent;
};

/// One random response: a stream cut into MSS-sized segments, then gaps,
/// reordering, duplicates, overlapping rewrites, a FIN and the sender's
/// retransmission of its first segment, each drawn independently.
std::vector<Arrival> random_arrivals(util::Rng& rng) {
  static constexpr std::uint16_t kSizes[] = {16, 64, 536, 1460};
  const std::uint16_t mss = kSizes[rng.below(4)];
  const std::uint64_t length = rng.between(1, 24 * std::uint64_t{mss});
  const auto bytes = [](std::uint64_t start, std::uint64_t size, std::uint8_t version) {
    net::Bytes out(size);
    for (std::uint64_t i = 0; i < size; ++i) {
      out[i] = static_cast<std::uint8_t>((start + i) * 131 + version * 29);
    }
    return out;
  };

  const auto at = [&](std::size_t slots) {  // a random position among `slots`
    return static_cast<std::ptrdiff_t>(rng.below(slots));
  };

  std::vector<Arrival> arrivals;
  for (std::uint64_t start = 0; start < length; start += mss) {
    const std::uint64_t size = std::min<std::uint64_t>(mss, length - start);
    arrivals.push_back({start, bytes(start, size, 0)});
  }
  if (rng.chance(0.4)) {  // a FIN
    if (rng.chance(0.5)) {
      arrivals.back().fin = true;
    } else {
      arrivals.push_back({length, {}, true});  // a bare FIN
    }
  }
  if (rng.chance(0.4)) {  // gaps
    const std::size_t drops = rng.between(1, 3);
    for (std::size_t i = 0; i < drops && arrivals.size() > 1; ++i) {
      arrivals.erase(arrivals.begin() + at(arrivals.size()));
    }
  }
  if (rng.chance(0.4)) {  // duplicates
    const std::size_t copies = rng.between(1, 4);
    for (std::size_t i = 0; i < copies; ++i) {
      const Arrival copy = arrivals[rng.below(arrivals.size())];
      arrivals.insert(arrivals.begin() + at(arrivals.size() + 1), copy);
    }
  }
  if (rng.chance(0.3)) {  // overlapping rewrites of stream history
    const std::size_t rewrites = rng.between(1, 3);
    for (std::size_t i = 0; i < rewrites; ++i) {
      const std::uint64_t start = rng.below(length + mss);
      const std::uint64_t size = rng.between(1, 2 * std::uint64_t{mss});
      const auto version = static_cast<std::uint8_t>(i + 1);
      arrivals.insert(arrivals.begin() + at(arrivals.size() + 1),
                      Arrival{start, bytes(start, size, version)});
    }
  }
  if (rng.chance(0.5)) {  // reordering
    for (std::size_t i = arrivals.size(); i > 1; --i) {
      std::swap(arrivals[i - 1], arrivals[rng.below(i)]);
    }
  }
  if (rng.chance(0.6)) {  // the RTO retransmission closes the flight
    arrivals.push_back({0, bytes(0, std::min<std::uint64_t>(mss, length), 0)});
  }
  return arrivals;
}

TEST(Estimator, ReassemblyMatchesMapModel) {
  const net::IPv4Address target{10, 0, 3, 1};
  constexpr std::uint16_t kTargetPort = 80;
  util::Rng rng(2017);
  int concluded_by[6] = {};
  // One owner, so one evidence pool, for every trial: each connection
  // reuses the block (and buffers) the previous one returned.
  const net::Bytes request = net::to_bytes("GET / HTTP/1.1\r\n\r\n");
  std::optional<core::ConnObservation> observed;
  core::FixedRequestOwner owner(request,
                                [&](const core::ConnObservation& o) { observed = o; });
  for (int trial = 0; trial < 3000; ++trial) {
    const std::vector<Arrival> arrivals = random_arrivals(rng);
    const bool verify_fresh = rng.chance(0.5);
    // Server sequence numbers straddle the 32-bit wrap on some trials.
    const auto irs = static_cast<std::uint32_t>(
        rng.chance(0.3) ? 0xffffffffu - rng.below(40'000) : rng());
    const Expected expected = run_map_model(arrivals, verify_fresh);

    ManualServices services;
    observed.reset();
    core::IwEstimator estimator(services, target, kTargetPort, 64, owner);
    estimator.start();
    const auto deliver = [&](std::uint32_t seq, std::uint8_t flags,
                             const net::Bytes& payload) {
      net::TcpSegment segment;
      segment.ip.src = target;
      segment.ip.dst = test::kScannerIp;
      segment.tcp.src_port = kTargetPort;
      segment.tcp.dst_port = estimator.local_port();
      segment.tcp.seq = seq;
      // The SYN/ACK acknowledges our SYN; data segments also the request.
      const auto request_size = static_cast<std::uint32_t>(request.size());
      segment.tcp.ack =
          ManualServices::kIsn + 1 + ((flags & net::kSyn) ? 0 : request_size);
      segment.tcp.flags = flags;
      segment.tcp.window = 65535;
      segment.payload = payload;
      estimator.on_datagram(net::Datagram{std::move(segment)});
    };
    deliver(irs, net::kSyn | net::kAck, {});
    for (std::size_t i = 0; i < expected.consumed; ++i) {
      const Arrival& arrival = arrivals[i];
      const std::uint8_t flags = net::kAck | (arrival.fin ? net::kFin : 0);
      deliver(irs + 1 + static_cast<std::uint32_t>(arrival.start), flags,
              arrival.payload);
    }
    if (expected.verified && verify_fresh) {
      deliver(irs + 1 + (1u << 20), net::kAck, net::Bytes(8, 0x42));
    }
    while (!observed && services.loop().step()) {
    }

    ASSERT_TRUE(observed) << "trial " << trial;
    ASSERT_EQ(observed->outcome, expected.outcome) << "trial " << trial;
    EXPECT_EQ(observed->iw_estimate, expected.iw_estimate) << "trial " << trial;
    EXPECT_EQ(observed->span_bytes, expected.span_bytes) << "trial " << trial;
    EXPECT_EQ(observed->reorder_seen, expected.reorder_seen) << "trial " << trial;
    EXPECT_EQ(observed->overlap_seen, expected.overlap_seen) << "trial " << trial;
    EXPECT_EQ(observed->loss_holes, expected.loss_holes) << "trial " << trial;
    EXPECT_EQ(observed->prefix, expected.prefix) << "trial " << trial;
    ++concluded_by[static_cast<int>(expected.outcome)];
  }
  // The draws reach the three verdicts a data-carrying collect phase ends in.
  for (const core::ConnOutcome outcome : {core::ConnOutcome::Success,
                                         core::ConnOutcome::FewData,
                                         core::ConnOutcome::Error}) {
    EXPECT_GT(concluded_by[static_cast<int>(outcome)], 50) << core::to_string(outcome);
  }
}

// The SYN phase builds nothing: the request is asked for only when the
// target answers, once per connection, and a connection the target never
// answers concludes from its SYN-phase state alone.

/// Counts request() calls; hands the estimator a fixed request.
class CountingOwner final : public core::IwEstimator::Owner {
 public:
  core::EvidencePool& evidence_pool() override { return pool; }
  net::Bytes request() override {
    ++requests;
    return net::to_bytes("GET / HTTP/1.1\r\n\r\n");
  }
  void connection_done(const core::ConnObservation& observation) override {
    observed = observation;
  }

  core::EvidencePool pool;
  int requests = 0;
  std::optional<core::ConnObservation> observed;
};

/// One connection to 10.0.3.2:80 over ManualServices, fed by hand.
struct ManualConnection {
  static constexpr net::IPv4Address kTarget{10, 0, 3, 2};
  static constexpr std::uint32_t kIrs = 0x1000;

  ManualConnection() { estimator.start(); }

  void deliver(std::uint32_t seq, std::uint32_t ack, std::uint8_t flags) {
    net::TcpSegment segment;
    segment.ip.src = kTarget;
    segment.ip.dst = test::kScannerIp;
    segment.tcp.src_port = 80;
    segment.tcp.dst_port = estimator.local_port();
    segment.tcp.seq = seq;
    segment.tcp.ack = ack;
    segment.tcp.flags = flags;
    segment.tcp.window = 65535;
    estimator.on_datagram(net::Datagram{std::move(segment)});
  }
  void deliver_syn_ack() {
    deliver(kIrs, ManualServices::kIsn + 1, net::kSyn | net::kAck);
  }
  [[nodiscard]] net::TcpSegment sent(std::size_t i) const {
    const auto datagram = net::decode_datagram(services.sent.at(i));
    return std::get<net::TcpSegment>(*datagram);
  }

  ManualServices services;
  CountingOwner owner;
  core::IwEstimator estimator{services, kTarget, 80, 64, owner};
};

TEST(EstimatorSynPhase, RstBeforeSynAckIsRefusedWithoutARequest) {
  ManualConnection conn;
  conn.deliver(0, ManualServices::kIsn + 1, net::kRst | net::kAck);
  ASSERT_TRUE(conn.owner.observed);
  EXPECT_EQ(conn.owner.observed->outcome, core::ConnOutcome::Refused);
  EXPECT_EQ(conn.owner.observed->anomaly, core::ProbeAnomaly::None);
  EXPECT_EQ(conn.owner.requests, 0);
  EXPECT_EQ(conn.services.sent.size(), 1u);  // the SYN; a refusal is not reset
  EXPECT_TRUE(conn.estimator.finished());
}

TEST(EstimatorSynPhase, SynTimeoutIsUnreachableWithoutARequest) {
  ManualConnection conn;
  conn.deliver(ManualConnection::kIrs, 0, net::kSyn);  // a bare SYN is no answer
  while (!conn.owner.observed && conn.services.loop().step()) {
  }
  ASSERT_TRUE(conn.owner.observed);
  EXPECT_EQ(conn.owner.observed->outcome, core::ConnOutcome::Unreachable);
  EXPECT_EQ(conn.services.loop().now(), sim::sec(3));
  EXPECT_EQ(conn.owner.requests, 0);
  EXPECT_EQ(conn.services.sent.size(), 1u);
}

TEST(EstimatorSynPhase, RetransmittedSynAckInCollectResendsTheRequest) {
  ManualConnection conn;
  conn.deliver_syn_ack();
  ASSERT_EQ(conn.services.sent.size(), 2u);
  const net::TcpSegment first = conn.sent(1);
  EXPECT_EQ(util::as_text(first.payload), "GET / HTTP/1.1\r\n\r\n");
  EXPECT_EQ(first.tcp.ack, ManualConnection::kIrs + 1);

  // The handshake ACK + request was lost: the server repeats its SYN/ACK.
  conn.deliver_syn_ack();
  ASSERT_EQ(conn.services.sent.size(), 3u);
  EXPECT_EQ(conn.services.sent[2], conn.services.sent[1]);  // same segment again
  EXPECT_EQ(conn.owner.requests, 1);  // resent from the evidence, not rebuilt
  EXPECT_FALSE(conn.owner.observed);
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
