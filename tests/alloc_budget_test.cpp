// Steady-state allocation budget for the scan datapath. The pooled-buffer
// fabric and slab event loop are supposed to keep a running scan off the
// allocator: once pools are warm, per-packet work reuses PacketBuf blocks
// and slab slots instead of hitting operator new. This test pins that
// property with a budget so a regression (an accidental per-packet copy, a
// std::function rebind, a container churn) fails loudly instead of only
// showing up as a bench_micro slowdown.
//
// This is the test binary's single allocation-counting TU (see
// util/alloc_stats.hpp): the macro swaps in counting operator new/delete
// for the whole process.
#define IWSCAN_COUNT_ALLOCATIONS
#include "util/alloc_stats.hpp"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <optional>
#include <string_view>

#include "analysis/scan_runner.hpp"
#include "core/host_prober.hpp"
#include "httpd/http_message.hpp"
#include "inetmodel/internet.hpp"
#include "netbase/packet.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/network.hpp"
#include "store/spill.hpp"
#include "tls/handshake.hpp"
#include "tls/records.hpp"
#include "util/bytes.hpp"

namespace iwscan {
namespace {

struct FreshWorld {
  sim::EventLoop loop;
  sim::Network network{loop, 123};
  model::InternetModel internet;

  FreshWorld() : internet(network, make_config()) { internet.install(); }

  static model::ModelConfig make_config() {
    model::ModelConfig config;
    config.scale_log2 = 12;  // 4 Ki addresses, ~3.3k scan targets
    return config;
  }
};

analysis::ScanOutput run_scan(FreshWorld& world, core::ProbeProtocol protocol) {
  analysis::ScanOptions options;
  options.protocol = protocol;
  options.rate_pps = 40'000;
  options.scan_seed = 7;
  options.shards = 1;  // one loop; no ThreadPool noise in the counter
  return analysis::run_iw_scan(world.network, world.internet, options);
}

/// Allocations per delivered packet over one whole scan, measured after a
/// warm-up scan has filled process-wide caches (estimator tables,
/// certificate material, the model's lazily-built state), so the measured
/// scan starts from the steady state a long-running sharded scan would see.
double scan_allocations_per_packet(core::ProbeProtocol protocol) {
  {
    FreshWorld warmup;
    (void)run_scan(warmup, protocol);
  }

  FreshWorld world;
  const std::uint64_t before = util::alloc_stats::allocations();
  const analysis::ScanOutput output = run_scan(world, protocol);
  const std::uint64_t allocations =
      util::alloc_stats::allocations() - before;

  const std::uint64_t packets =
      output.engine.packets_sent + output.engine.packets_received;
  EXPECT_GT(packets, 10'000u);  // the scan actually ran
  EXPECT_FALSE(output.records.empty());
  return static_cast<double>(allocations) /
         static_cast<double>(std::max<std::uint64_t>(packets, 1));
}

// Budgets: each is the measured allocations per delivered packet on the
// pooled datapath (RelWithDebInfo, 2026-10), pinned with ~50% headroom.
// The count includes everything the scan run touches (world build,
// per-connection estimator state, the host stacks and daemons, records
// vector growth), so it is a whole-scan amortised figure, not a pure
// fabric-hop figure — the fabric hop itself is measured allocation-free by
// BM_NetworkPacketDelivery in bench_micro.

TEST(AllocBudget, ScanStaysWithinPerPacketAllocationBudget) {
  // Measured ~0.97 (~1.14 while every host-side decode copied its payload
  // and each sequential connection to a host re-allocated its connection
  // table; ~1.26 while the prober copied every response header
  // into owning strings and each accepted SYN shared its daemon's config
  // through a fresh shared_ptr; ~1.66 while the daemon built a response
  // object and copied its serialization into the send buffer; ~1.93 while
  // every SYN and SYN/ACK carried its MSS in an option vector; ~2.25 while
  // every session built its strategy, request and reassembly buffers at
  // launch; ~6.7 before the estimator's flat reassembly, the reused rx
  // datagram and staging-free segment encode).
  const double per_packet = scan_allocations_per_packet(core::ProbeProtocol::Http);
  EXPECT_LT(per_packet, 1.5) << "per_packet=" << per_packet;
}

TEST(AllocBudget, TlsScanStaysWithinPerPacketAllocationBudget) {
  // Measured ~1.05 (~1.17 while every host-side decode copied its payload
  // and each sequential connection to a host re-allocated its connection
  // table; ~1.37 while the daemon decoded each ClientHello into
  // a suite vector, a session-id vector and an SNI string and split its
  // record into a message vector; ~1.51 while it copied each ClientHello
  // record into a reader buffer and out again; ~1.84 with an MSS option
  // vector per SYN and SYN/ACK and a copied body per handshake message,
  // ~2.3 before lazily built sessions and static cipher tables, ~9.1 while
  // the TLS first flight built its certificate chain and handshake
  // messages in separate buffers, ~11.9 before the same cuts as HTTP); the
  // flight is one buffer per connection.
  const double per_packet = scan_allocations_per_packet(core::ProbeProtocol::Tls);
  EXPECT_LT(per_packet, 1.6) << "per_packet=" << per_packet;
}

TEST(AllocBudget, ProbeAnswerDecodesAreAllocationFree) {
  // Both ends read what the peer sent where it lies: the TLS daemon frames,
  // walks and decodes the probe's ClientHello (SNI, 40 suites, OCSP) and
  // negotiates against every server profile; the prober parses the
  // daemon's 301 head and looks up its Location. None of it allocates.
  const net::Bytes hello_record = core::client_hello(7, "www.example.net");
  constexpr std::string_view kMovedBody =
      "<html><head><title>301 Moved Permanently</title></head>"
      "<body><h1>Moved Permanently</h1></body></html>";
  http::ResponseWriter writer(
      {http::StatusCode::MovedPermanently, "Apache", true, "www.example.net"},
      kMovedBody.size());
  writer.text(kMovedBody);
  const net::Bytes moved = std::move(writer).finish();
  constexpr tls::CipherProfile kProfiles[] = {
      tls::CipherProfile::Modern, tls::CipherProfile::Standard,
      tls::CipherProfile::Legacy, tls::CipherProfile::Exotic};

  const std::uint64_t before = util::alloc_stats::allocations();
  const tls::RecordFrame record = tls::frame_record(hello_record);
  std::optional<tls::HandshakeMessage> first;
  const bool framed =
      tls::walk_handshakes(record.payload, [&first](tls::HandshakeMessage message) {
        if (!first) first = message;
      });
  const auto hello = first ? tls::decode_client_hello(first->body) : std::nullopt;
  std::array<tls::CipherSuite, 4> chosen{};
  for (std::size_t i = 0; hello && i < chosen.size(); ++i) {
    chosen[i] = tls::negotiate(hello->cipher_suites, tls::cipher_set(kProfiles[i]));
  }
  const auto head = http::parse_response_head(util::as_text(moved));
  const auto location = head ? head->header("Location") : std::nullopt;
  const std::uint64_t allocations = util::alloc_stats::allocations() - before;

  EXPECT_EQ(allocations, 0u);
  ASSERT_TRUE(framed && hello.has_value());
  EXPECT_EQ(hello->server_name, "www.example.net");
  EXPECT_EQ(hello->cipher_suites.size(), 40u);
  EXPECT_TRUE(hello->ocsp_stapling);
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    EXPECT_EQ(chosen[i],
              tls::negotiate(tls::probe_cipher_list(), tls::cipher_set(kProfiles[i])));
  }
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->status, 301);
  EXPECT_EQ(location, "http://www.example.net/");
}

TEST(AllocBudget, DatagramDecodesAreAllocationFree) {
  // A decoded datagram views the bytes it was decoded from: a data
  // segment, a SYN/ACK carrying its MSS and a Fragmentation Needed message
  // each decode without a copy.
  const net::Bytes body(536, 0x41);
  net::TcpSegment data;
  data.ip.src = net::IPv4Address(10, 0, 0, 1);
  data.ip.dst = net::IPv4Address(192, 0, 2, 1);
  data.tcp.flags = net::kAck | net::kPsh;
  data.payload = body;
  net::TcpSegment syn_ack = data;
  syn_ack.tcp.flags = net::kSyn | net::kAck;
  syn_ack.tcp.mss = 1460;
  syn_ack.payload = {};
  net::IcmpDatagram frag_needed;
  frag_needed.ip = data.ip;
  frag_needed.icmp.type = net::IcmpType::DestinationUnreachable;
  frag_needed.icmp.code = net::kIcmpFragNeeded;
  frag_needed.icmp.seq_or_mtu = 1400;
  const net::Bytes quote(28, 0x45);
  frag_needed.icmp.payload = quote;
  const net::Bytes wires[] = {net::encode(data), net::encode(syn_ack),
                              net::encode(frag_needed)};

  std::size_t decoded = 0;
  const std::uint64_t before = util::alloc_stats::allocations();
  for (const net::Bytes& wire : wires) decoded += net::decode_datagram(wire) ? 1 : 0;
  const std::uint64_t allocations = util::alloc_stats::allocations() - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(decoded, std::size(wires));
}

TEST(AllocBudget, SpillWriterSteadyStateAppendsAreAllocationFree) {
  // SpillWriter::append is an IWSCAN_HOT root: after construction sizes
  // the staged payload and the first out-of-order run sizes the sort
  // scratch, a sustained append stream must never touch operator new — the
  // flush boundary reuses every buffer's capacity. Budget 0 per record,
  // for runs that arrive in cycle order (no sort) and scrambled (sorted).
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "iwscan_alloc_spill";
  for (const bool scrambled : {false, true}) {
    fs::remove_all(dir);
    store::SpillConfig config;
    config.directory = dir.string();
    config.segment_bytes = 1u << 12;  // ~83 records/segment: many flushes
    config.seed = 7;
    store::SpillWriter<core::HostScanRecord> writer(config);

    core::HostScanRecord record;
    record.ip = net::IPv4Address{0x0a000001};
    record.outcome = core::HostOutcome::Success;
    record.iw_segments = 10;
    record.iw_bytes = 14'600;
    record.observed_mss = 1460;
    // An odd multiplier permutes the 2^17 cycles the stream covers.
    const auto cycle_of = [scrambled](std::uint64_t i) {
      return scrambled ? (i * 0x9E3779B1u) & ((1u << 17) - 1) : i;
    };

    // Warm the buffers across the first few segments.
    for (std::uint64_t i = 0; i < 512; ++i) writer.append(cycle_of(i), record);

    const std::uint64_t before = util::alloc_stats::allocations();
    const std::uint64_t appends = 1u << 16;
    for (std::uint64_t i = 512; i < 512 + appends; ++i) {
      writer.append(cycle_of(i), record);
    }
    const std::uint64_t allocations = util::alloc_stats::allocations() - before;

    EXPECT_EQ(allocations, 0u)
        << allocations << " allocations across " << appends
        << (scrambled ? " scrambled" : " in-order") << " steady-state appends ("
        << writer.segments_flushed() << " segments flushed)";
    ASSERT_TRUE(writer.close()) << writer.error();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace iwscan
