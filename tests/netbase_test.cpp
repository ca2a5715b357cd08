#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <string>

#include "netbase/checksum.hpp"
#include "netbase/ipv4.hpp"
#include "netbase/packet.hpp"
#include "netbase/packet_buf.hpp"
#include "netbase/tcp_options.hpp"
#include "util/rng.hpp"

namespace iwscan::net {
namespace {

// ----------------------------------------------------------- IPv4 --------

TEST(IPv4Address, ParseValid) {
  const auto addr = IPv4Address::parse("192.0.2.133");
  ASSERT_TRUE(addr);
  EXPECT_EQ(addr->octet(0), 192);
  EXPECT_EQ(addr->octet(1), 0);
  EXPECT_EQ(addr->octet(2), 2);
  EXPECT_EQ(addr->octet(3), 133);
  EXPECT_EQ(addr->to_string(), "192.0.2.133");
}

TEST(IPv4Address, ParseRejectsMalformed) {
  for (const char* bad : {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.x",
                          "01.2.3.4", " 1.2.3.4", "1.2.3.4 ", "-1.2.3.4",
                          "1..2.3"}) {
    EXPECT_FALSE(IPv4Address::parse(bad).has_value()) << bad;
  }
}

TEST(IPv4Address, RoundTripProperty) {
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const IPv4Address addr{static_cast<std::uint32_t>(rng())};
    const auto parsed = IPv4Address::parse(addr.to_string());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, addr);
  }
}

TEST(IPv4Address, Ordering) {
  EXPECT_LT(IPv4Address(10, 0, 0, 1), IPv4Address(10, 0, 0, 2));
  EXPECT_LT(IPv4Address(9, 255, 255, 255), IPv4Address(10, 0, 0, 0));
}

TEST(Cidr, ParseAndContains) {
  const auto cidr = Cidr::parse("203.0.113.0/24");
  ASSERT_TRUE(cidr);
  EXPECT_EQ(cidr->prefix_len, 24);
  EXPECT_EQ(cidr->size(), 256u);
  EXPECT_TRUE(cidr->contains(IPv4Address(203, 0, 113, 77)));
  EXPECT_FALSE(cidr->contains(IPv4Address(203, 0, 114, 0)));
  EXPECT_EQ(cidr->first(), IPv4Address(203, 0, 113, 0));
  EXPECT_EQ(cidr->at(5), IPv4Address(203, 0, 113, 5));
  EXPECT_EQ(cidr->to_string(), "203.0.113.0/24");
}

TEST(Cidr, HostRouteAndZeroLength) {
  const auto host = Cidr::parse("10.1.2.3");
  ASSERT_TRUE(host);
  EXPECT_EQ(host->prefix_len, 32);
  EXPECT_EQ(host->size(), 1u);

  const auto all = Cidr::parse("0.0.0.0/0");
  ASSERT_TRUE(all);
  EXPECT_EQ(all->size(), 1ull << 32);
  EXPECT_TRUE(all->contains(IPv4Address(255, 255, 255, 255)));
}

TEST(Cidr, ParseRejectsMalformed) {
  for (const char* bad : {"10.0.0.0/33", "10.0.0.0/", "10.0.0.0/x", "/24",
                          "10.0.0/24"}) {
    EXPECT_FALSE(Cidr::parse(bad).has_value()) << bad;
  }
}

TEST(Cidr, NonCanonicalBaseIsMasked) {
  const auto cidr = Cidr::parse("10.0.0.77/24");
  ASSERT_TRUE(cidr);
  EXPECT_EQ(cidr->first(), IPv4Address(10, 0, 0, 0));
  EXPECT_TRUE(cidr->contains(IPv4Address(10, 0, 0, 1)));
}

// --------------------------------------------------------- checksum ------

TEST(Checksum, KnownVector) {
  // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 → checksum 0x220d.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLengthAndEmpty) {
  const std::uint8_t odd[] = {0xab};
  EXPECT_EQ(internet_checksum(odd), static_cast<std::uint16_t>(~0xab00 & 0xffff));
  EXPECT_EQ(internet_checksum({}), 0xffff);
}

TEST(Checksum, VerifiesToZero) {
  // A buffer with its own checksum patched in sums to zero.
  std::vector<std::uint8_t> data = {0x45, 0x00, 0x00, 0x1c, 0x12, 0x34,
                                    0x00, 0x00, 0x40, 0x06, 0x00, 0x00,
                                    10,   0,    0,    1,    10,   0,   0, 2};
  const std::uint16_t checksum = internet_checksum(data);
  data[10] = static_cast<std::uint8_t>(checksum >> 8);
  data[11] = static_cast<std::uint8_t>(checksum);
  EXPECT_EQ(internet_checksum(data), 0);
}

TEST(Checksum, WordWiseMatchesScalarOracle) {
  // Property test for the word-at-a-time kernel: for random lengths and
  // start alignments covering every residue the 8-byte loop can see
  // (head < 8 bytes, odd trailing byte, sub-word buffers), the fast path
  // must equal the byte-pair reference.
  util::Rng rng(0xc5'c5'c5'c5);
  std::vector<std::uint8_t> arena(2048 + 16);
  for (std::uint8_t& byte : arena) {
    byte = static_cast<std::uint8_t>(rng());
  }
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t offset = rng.below(9);
    const std::size_t length = rng.below(2001);
    const std::span<const std::uint8_t> bytes{arena.data() + offset, length};
    ASSERT_EQ(internet_checksum(bytes), internet_checksum_scalar(bytes))
        << "offset=" << offset << " length=" << length;
  }
}

TEST(Checksum, CarryFoldSurvivesAllOnes) {
  // All-0xff input maximises per-word sums; repeated add() calls push the
  // 64-bit accumulator through its carry folds. The scalar oracle run on
  // the identical sequence must finish() to the same value.
  const std::vector<std::uint8_t> ones(1500, 0xff);
  ChecksumAccumulator fast;
  ChecksumAccumulator oracle;
  for (int i = 0; i < 64; ++i) {
    fast.add(ones);
    oracle.add_scalar(ones);
  }
  EXPECT_EQ(fast.finish(), oracle.finish());
}

TEST(Checksum, ChunkedAddsMatchSingleAdd) {
  // RFC 1071: the sum is associative over even-length splits, and our
  // accumulator also pads each add()'s odd trailing byte — so splitting at
  // even offsets must be equivalent to one contiguous add. This is how
  // tcp_checksum mixes pseudo-header, header, and payload spans.
  util::Rng rng(7);
  std::vector<std::uint8_t> data(1499);
  for (std::uint8_t& byte : data) {
    byte = static_cast<std::uint8_t>(rng());
  }
  ChecksumAccumulator whole;
  whole.add(data);
  ChecksumAccumulator chunked;
  std::size_t cursor = 0;
  while (cursor < data.size()) {
    std::size_t step = 2 * (1 + rng.below(64));
    step = std::min(step, data.size() - cursor);
    chunked.add({data.data() + cursor, step});
    cursor += step;
  }
  EXPECT_EQ(chunked.finish(), whole.finish());
}

// -------------------------------------------------------- TCP options ----

/// read_tcp_options() over `area`: nullopt when it rejects the area,
/// otherwise the first MSS it reports (0 when the area has none).
std::optional<std::uint16_t> walk(const Bytes& area) {
  std::optional<std::uint16_t> mss = 9999;  // must be overwritten
  if (!read_tcp_options(area, mss)) return std::nullopt;
  return mss.value_or(0);
}

TEST(TcpOptions, MssEncodesAsFourBytes) {
  Bytes bytes;
  WireWriter writer(bytes);
  encode_mss_option(1460, writer);
  EXPECT_EQ(bytes, (Bytes{2, 4, 0x05, 0xb4}));
  EXPECT_EQ(bytes.size(), kMssWireSize);
  EXPECT_EQ(walk(bytes), 1460);
}

TEST(TcpOptions, FirstMssWins) {
  EXPECT_EQ(walk(Bytes{2, 4, 0x05, 0xb4, 2, 4, 0, 64}), 1460);
  EXPECT_EQ(walk(Bytes{1, 2, 4, 0, 64, 1, 2, 4, 0x05, 0xb4}), 64);
}

TEST(TcpOptions, OtherKindsValidatedAndSkipped) {
  // Window scale 7, SACK-permitted, a timestamps-shaped unknown kind, then
  // the MSS: each is checked and stepped over by its length octet.
  const Bytes area = {3, 3, 7, 4, 2, 8, 10, 1, 2, 3, 4, 5, 6, 7, 8, 2, 4, 0, 64, 1};
  EXPECT_EQ(walk(area), 64);
  // The same kinds without an MSS are a valid area with none.
  EXPECT_EQ(walk(Bytes{3, 3, 14, 4, 2, 8, 2, 1, 1}), 0);
  // Known kinds must have their own length, wherever they sit.
  EXPECT_FALSE(walk(Bytes{3, 2, 2, 4, 0, 64}));      // window scale of 2
  EXPECT_FALSE(walk(Bytes{4, 3, 0, 2, 4, 0, 64}));   // SACK-permitted of 3
  EXPECT_FALSE(walk(Bytes{2, 4, 0, 64, 4, 3, 0}));   // after a valid MSS
}

TEST(TcpOptions, MalformedLengthRejected) {
  // MSS option with bogus length.
  EXPECT_FALSE(walk(Bytes{2, 3, 0}));
  // Length extending past the buffer.
  EXPECT_FALSE(walk(Bytes{2, 4, 0}));
  // Zero-length option.
  EXPECT_FALSE(walk(Bytes{8, 0}));
  // Truncated: kind without length.
  EXPECT_FALSE(walk(Bytes{2}));
}

TEST(TcpOptions, NopPaddingAndEndHandled) {
  // NOP NOP MSS, then END followed by garbage that must be ignored.
  EXPECT_EQ(walk(Bytes{1, 1, 2, 4, 0x05, 0xb4, 0, 0xde, 0xad}), 1460);
  // An MSS after END is not read.
  EXPECT_EQ(walk(Bytes{0, 2, 4, 0x05, 0xb4}), 0);
}

TEST(TcpOptions, EmptyIsValid) { EXPECT_EQ(walk({}), 0); }

// ----------------------------------------------------------- packets -----

TcpSegment sample_segment() {
  TcpSegment segment;
  segment.ip.src = IPv4Address(192, 0, 2, 1);
  segment.ip.dst = IPv4Address(10, 3, 2, 1);
  segment.ip.ttl = 61;
  segment.ip.dont_fragment = true;
  segment.tcp.src_port = 40001;
  segment.tcp.dst_port = 80;
  segment.tcp.seq = 0xdeadbeef;
  segment.tcp.ack = 0x01020304;
  segment.tcp.flags = kSyn;
  segment.tcp.window = 65535;
  segment.tcp.mss = 64;
  return segment;
}

TEST(Packet, TcpRoundTrip) {
  const TcpSegment original = sample_segment();
  const Bytes bytes = encode(original);
  const auto decoded = decode_datagram(bytes);
  ASSERT_TRUE(decoded);
  const auto* segment = std::get_if<TcpSegment>(&*decoded);
  ASSERT_NE(segment, nullptr);
  EXPECT_EQ(segment->ip.src, original.ip.src);
  EXPECT_EQ(segment->ip.dst, original.ip.dst);
  EXPECT_EQ(segment->ip.ttl, 61);
  EXPECT_TRUE(segment->ip.dont_fragment);
  EXPECT_EQ(segment->tcp.src_port, 40001);
  EXPECT_EQ(segment->tcp.seq, 0xdeadbeef);
  EXPECT_EQ(segment->tcp.flags, kSyn);
  EXPECT_EQ(segment->tcp.mss, 64);
  EXPECT_TRUE(segment->payload.empty());
}

/// `n` random bytes.
Bytes random_bytes(util::Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& byte : out) byte = static_cast<std::uint8_t>(rng());
  return out;
}

/// An owning copy of a view, for comparisons.
Bytes copy_of(std::span<const std::uint8_t> view) { return {view.begin(), view.end()}; }

TEST(Packet, TcpPayloadRoundTripProperty) {
  util::Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    TcpSegment segment = sample_segment();
    segment.tcp.flags = static_cast<std::uint8_t>(rng.below(0x40));
    segment.tcp.seq = static_cast<std::uint32_t>(rng());
    segment.tcp.ack = static_cast<std::uint32_t>(rng());
    segment.tcp.window = static_cast<std::uint16_t>(rng());
    if (rng.chance(0.5)) segment.tcp.mss.reset();
    const Bytes payload = random_bytes(rng, rng.below(1460));
    segment.payload = payload;

    const Bytes bytes = encode(segment);
    const auto decoded = decode_datagram(bytes);
    ASSERT_TRUE(decoded) << "trial " << trial;
    const auto* out = std::get_if<TcpSegment>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->tcp.seq, segment.tcp.seq);
    EXPECT_EQ(out->tcp.ack, segment.tcp.ack);
    EXPECT_EQ(out->tcp.flags, segment.tcp.flags);
    EXPECT_EQ(out->tcp.window, segment.tcp.window);
    EXPECT_EQ(copy_of(out->payload), payload);
  }
}

TEST(Packet, EncodeIntoReusedBufferMatchesEncode) {
  // Encoding into a reused buffer produces the bytes a fresh encode does.
  util::Rng rng(47);
  Bytes reused{0xde, 0xad};
  for (int trial = 0; trial < 200; ++trial) {
    TcpSegment segment = sample_segment();
    segment.tcp.flags = static_cast<std::uint8_t>(rng.below(0x40));
    segment.tcp.seq = static_cast<std::uint32_t>(rng());
    segment.tcp.window = static_cast<std::uint16_t>(rng());
    if (rng.chance(0.5)) segment.tcp.mss.reset();
    const Bytes payload = random_bytes(rng, rng.below(1460));
    segment.payload = payload;

    const Bytes expected = encode(segment);
    encode_into(segment, reused);
    EXPECT_EQ(reused, expected) << "trial " << trial;
  }
}

/// A decoded datagram views its input: the payload is exactly the bytes
/// after the headers, where they lie, and encoding the decode gives the
/// input back.
void expect_view_of(const Bytes& bytes, const std::string& what) {
  const auto decoded = decode_datagram(bytes);
  ASSERT_TRUE(decoded) << what;
  std::span<const std::uint8_t> payload;
  std::size_t header_bytes = Ipv4Header::kSize;
  if (const auto* segment = std::get_if<TcpSegment>(&*decoded)) {
    payload = segment->payload;
    header_bytes += segment->tcp.encoded_size();
    EXPECT_EQ(encode(*segment), bytes) << what;
  } else {
    const auto& icmp = std::get<IcmpDatagram>(*decoded);
    payload = icmp.icmp.payload;
    header_bytes += IcmpMessage::kHeaderSize;
    EXPECT_EQ(encode(icmp), bytes) << what;
  }
  EXPECT_EQ(payload.data(), bytes.data() + header_bytes) << what;
  EXPECT_EQ(payload.size(), bytes.size() - header_bytes) << what;
}

TEST(Packet, DecodedPayloadViewsTheInput) {
  const Bytes long_payload(1400, 0xaa);
  const Bytes short_payload = {1, 2, 3};
  TcpSegment long_segment = sample_segment();  // SYN with an MSS option
  long_segment.payload = long_payload;
  TcpSegment short_segment = sample_segment();
  short_segment.tcp.mss.reset();
  short_segment.tcp.flags = kAck | kFin;
  short_segment.payload = short_payload;
  TcpSegment empty_segment = sample_segment();
  empty_segment.tcp.mss = 1460;
  IcmpDatagram icmp;
  icmp.ip.src = IPv4Address(10, 3, 2, 1);
  icmp.ip.dst = IPv4Address(192, 0, 2, 1);
  icmp.icmp.type = IcmpType::DestinationUnreachable;
  icmp.icmp.code = kIcmpFragNeeded;
  icmp.icmp.seq_or_mtu = 1400;
  const Bytes quote(28, 0x55);
  icmp.icmp.payload = quote;

  expect_view_of(encode(long_segment), "long tcp");
  expect_view_of(encode(short_segment), "short tcp");
  expect_view_of(encode(empty_segment), "empty tcp");
  expect_view_of(encode(icmp), "icmp");
}

TEST(Packet, DecodedPayloadViewsTheInputProperty) {
  util::Rng rng(59);
  for (int trial = 0; trial < 500; ++trial) {
    const Bytes payload = random_bytes(rng, rng.below(1460));
    Bytes bytes;
    if (rng.chance(0.2)) {
      IcmpDatagram icmp;
      icmp.ip.src = IPv4Address(static_cast<std::uint32_t>(rng()));
      icmp.icmp.type = rng.chance(0.5) ? IcmpType::EchoReply : IcmpType::Echo;
      icmp.icmp.id_or_unused = static_cast<std::uint16_t>(rng());
      icmp.icmp.payload = payload;
      bytes = encode(icmp);
    } else {
      TcpSegment segment = sample_segment();
      segment.tcp.seq = static_cast<std::uint32_t>(rng());
      if (rng.chance(0.5)) segment.tcp.mss.reset();
      segment.payload = payload;
      bytes = encode(segment);
    }
    expect_view_of(bytes, "trial " + std::to_string(trial));
  }
}

TEST(Packet, SeqLengthCountsSynFin) {
  TcpSegment segment = sample_segment();
  const Bytes payload = {1, 2, 3};
  segment.payload = payload;
  segment.tcp.flags = kSyn | kFin;
  EXPECT_EQ(segment.seq_length(), 5u);
  segment.tcp.flags = kAck;
  EXPECT_EQ(segment.seq_length(), 3u);
}

TEST(Packet, CorruptionIsDetected) {
  Bytes bytes = encode(sample_segment());
  // Flip one payload/header bit at every position; decode must fail or the
  // decoded content must differ (checksums catch every single-bit error).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    Bytes corrupted = bytes;
    corrupted[i] ^= 0x01;
    const auto decoded = decode_datagram(corrupted);
    EXPECT_FALSE(decoded.has_value()) << "offset " << i;
  }
}

TEST(Packet, TruncationRejected) {
  const Bytes bytes = encode(sample_segment());
  for (const std::size_t keep : {0u, 10u, 19u, 20u, 25u, 39u}) {
    if (keep >= bytes.size()) continue;
    const Bytes truncated(bytes.begin(), bytes.begin() + keep);
    EXPECT_FALSE(decode_datagram(truncated).has_value()) << keep;
  }
}

TEST(Packet, IcmpRoundTrip) {
  IcmpDatagram datagram;
  datagram.ip.src = IPv4Address(10, 0, 0, 1);
  datagram.ip.dst = IPv4Address(192, 0, 2, 1);
  datagram.icmp.type = IcmpType::Echo;
  datagram.icmp.code = 0;
  datagram.icmp.id_or_unused = 0x1234;
  datagram.icmp.seq_or_mtu = 7;
  const Bytes payload = {9, 8, 7, 6};
  datagram.icmp.payload = payload;

  const Bytes bytes = encode(datagram);
  const auto decoded = decode_datagram(bytes);
  ASSERT_TRUE(decoded);
  const auto* icmp = std::get_if<IcmpDatagram>(&*decoded);
  ASSERT_NE(icmp, nullptr);
  EXPECT_EQ(icmp->icmp.type, IcmpType::Echo);
  EXPECT_EQ(icmp->icmp.id_or_unused, 0x1234);
  EXPECT_EQ(icmp->icmp.seq_or_mtu, 7);
  EXPECT_EQ(copy_of(icmp->icmp.payload), payload);
}

TEST(Packet, FragNeededCarriesMtu) {
  IcmpDatagram datagram;
  datagram.ip.src = IPv4Address(10, 0, 0, 1);
  datagram.ip.dst = IPv4Address(192, 0, 2, 1);
  datagram.icmp.type = IcmpType::DestinationUnreachable;
  datagram.icmp.code = kIcmpFragNeeded;
  datagram.icmp.seq_or_mtu = 1400;
  const Bytes wire = encode(datagram);
  const auto decoded = decode_datagram(wire);
  ASSERT_TRUE(decoded);
  const auto* icmp = std::get_if<IcmpDatagram>(&*decoded);
  ASSERT_NE(icmp, nullptr);
  EXPECT_EQ(icmp->icmp.seq_or_mtu, 1400);
  EXPECT_EQ(icmp->icmp.code, kIcmpFragNeeded);
}

TEST(Packet, PeekAddresses) {
  const Bytes bytes = encode(sample_segment());
  EXPECT_EQ(peek_source(bytes), IPv4Address(192, 0, 2, 1));
  EXPECT_EQ(peek_destination(bytes), IPv4Address(10, 3, 2, 1));
  EXPECT_FALSE(peek_destination(Bytes{1, 2, 3}).has_value());
  EXPECT_FALSE(peek_source({}).has_value());
}

TEST(Packet, UnsupportedProtocolRejected) {
  Bytes bytes = encode(sample_segment());
  bytes[9] = 17;  // claim UDP
  // Header checksum no longer matches → reject (and even if it did, UDP is
  // unsupported).
  EXPECT_FALSE(decode_datagram(bytes).has_value());
}

TEST(Packet, FragmentFieldsRoundTrip) {
  TcpSegment segment = sample_segment();
  segment.ip.dont_fragment = false;
  segment.ip.more_fragments = true;
  segment.ip.fragment_offset = 0x123;
  segment.ip.identification = 0xbeef;
  segment.ip.tos = 0x10;
  const Bytes wire = encode(segment);
  const auto decoded = decode_datagram(wire);
  ASSERT_TRUE(decoded);
  const auto& ip = std::get<TcpSegment>(*decoded).ip;
  EXPECT_FALSE(ip.dont_fragment);
  EXPECT_TRUE(ip.more_fragments);
  EXPECT_EQ(ip.fragment_offset, 0x123);
  EXPECT_EQ(ip.identification, 0xbeef);
  EXPECT_EQ(ip.tos, 0x10);
}

TEST(WireReader, NeverReadsOutOfBounds) {
  // Property: any sequence of reads on a short buffer fails safe.
  const Bytes data = {1, 2, 3};
  WireReader reader(data);
  EXPECT_EQ(reader.u16(), 0x0102);
  EXPECT_EQ(reader.u32(), 0u);  // only 1 byte left → zero + !ok
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(reader.raw(10).empty());
  reader.skip(100);  // must not crash or advance past the end
  EXPECT_FALSE(reader.ok());
}

TEST(WireReader, U24AndPatches) {
  Bytes data;
  WireWriter writer(data);
  writer.u24(0x010203);
  const std::size_t at = writer.offset();
  writer.u16(0);
  writer.patch_u16(at, 0xaabb);

  WireReader reader(data);
  EXPECT_EQ(reader.u24(), 0x010203u);
  EXPECT_EQ(reader.u16(), 0xaabbu);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(WireWriter, PatchPastEndThrows) {
  Bytes data;
  WireWriter writer(data);
  writer.u16(0xbeef);
  // Entirely past the end.
  EXPECT_THROW(writer.patch_u16(2, 1), std::out_of_range);
  // Straddling the end: first byte in range, tail out.
  EXPECT_THROW(writer.patch_u16(1, 1), std::out_of_range);
  // In range still works, and the failed patches wrote nothing.
  writer.patch_u16(0, 0xcafe);
  EXPECT_EQ(data, (Bytes{0xca, 0xfe}));
}

TEST(TcpOptions, OverrunKindRejected) {
  // Unknown kind whose length runs past the buffer.
  EXPECT_FALSE(walk(Bytes{99, 10, 1, 2}));
  // Unknown kind with zero length (would never make progress).
  EXPECT_FALSE(walk(Bytes{99, 0, 1, 2}));
  // Unknown kind with length 1 (covers only the kind octet).
  EXPECT_FALSE(walk(Bytes{99, 1, 1, 2}));
}

TEST(TcpOptions, LongestUnknownKindSkipped) {
  // The length octet tops out at 255 (2 + 253 payload bytes).
  Bytes area = {99, 255};
  area.resize(255, 0xab);
  area.insert(area.end(), {2, 4, 0x05, 0xb4});
  EXPECT_EQ(walk(area), 1460);
}

TEST(IPv4AddressHash, DispersesSequentialAddresses) {
  std::set<std::size_t> buckets;
  std::hash<IPv4Address> hasher;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    buckets.insert(hasher(IPv4Address{0x0a000000 + i}) % 1024);
  }
  // Sequential IPs must spread over most buckets, not cluster.
  EXPECT_GT(buckets.size(), 500u);
}

// ----------------------------------------------------- BufferPool --------

constexpr std::size_t kMtuBytes = 1500;

/// Acquire a buffer sized for `bytes` and fill it with that many bytes.
PacketBuf filled(BufferPool& pool, std::size_t bytes) {
  PacketBuf buf = pool.acquire(bytes);
  buf.bytes().assign(bytes, 0x5a);
  return buf;
}

TEST(BufferPool, SmallAcquireNeverTakesLargeBlockWhileSmallIsFree) {
  BufferPool pool;
  PacketBuf large = filled(pool, kMtuBytes);
  PacketBuf small = filled(pool, 40);
  const std::uint8_t* large_data = large.view().data();
  const std::uint8_t* small_data = small.view().data();
  EXPECT_GE(large.bytes().capacity(), kMtuBytes);
  EXPECT_EQ(small.bytes().capacity(), kSmallBlockBytes);
  // Release the large block last, so it heads the free lists' recency.
  small.reset();
  large.reset();

  PacketBuf syn = pool.acquire(44);
  EXPECT_EQ(syn.bytes().data(), small_data);
  EXPECT_EQ(syn.bytes().capacity(), kSmallBlockBytes);
  PacketBuf data = pool.acquire(1200);
  EXPECT_EQ(data.bytes().data(), large_data);

  // With only a large block free, a small acquire still makes a small one.
  data.reset();
  PacketBuf rst = pool.acquire(40);
  EXPECT_EQ(rst.bytes().capacity(), kSmallBlockBytes);
  EXPECT_NE(rst.bytes().data(), large_data);
  EXPECT_EQ(pool.acquire(kMtuBytes).bytes().data(), large_data);
}

TEST(BufferPool, CapacitySurvivesRecycling) {
  BufferPool pool;
  for (const std::size_t bytes : {kSmallBlockBytes, kMtuBytes}) {
    SCOPED_TRACE(bytes);
    PacketBuf first = filled(pool, bytes);
    const std::uint8_t* data = first.view().data();
    const std::size_t capacity = first.bytes().capacity();
    first.reset();
    for (int round = 0; round < 3; ++round) {
      // A smaller request of the same class gets the same block back, and
      // refilling it to the class size does not reallocate.
      PacketBuf again = pool.acquire(bytes / 2);
      EXPECT_TRUE(again.view().empty());
      EXPECT_EQ(again.bytes().capacity(), capacity);
      again.bytes().assign(bytes, 0x11);
      EXPECT_EQ(again.bytes().data(), data);
    }
  }
}

TEST(BufferPool, OrphanedPoolFreesBlocksOnBothLists) {
  // Leak-checked under the asan-ubsan preset: every block — free on either
  // list, or still held — must be freed exactly once after the pool dies.
  auto pool = std::make_unique<BufferPool>();
  PacketBuf held_small = filled(*pool, 40);
  PacketBuf held_large = filled(*pool, 1400);
  PacketBuf shared_small = held_small;
  PacketBuf adopted = pool->adopt(Bytes(300, 0x22));
  filled(*pool, 60).reset();    // onto the small free list
  filled(*pool, 1000).reset();  // onto the large free list
  EXPECT_EQ(pool->outstanding(), 3u);
  pool.reset();
  EXPECT_EQ(held_small.size(), 40u);
  EXPECT_EQ(held_large.size(), 1400u);
  held_small.reset();
  held_large.reset();
  adopted.reset();
  EXPECT_EQ(shared_small.size(), 40u);  // the last handle frees the core
}

TEST(BufferPool, OutstandingCountsBlocksNotHandles) {
  BufferPool pool;
  PacketBuf a = filled(pool, 40);
  PacketBuf b = filled(pool, 100);
  PacketBuf c = filled(pool, 1500);
  EXPECT_EQ(pool.outstanding(), 3u);
  PacketBuf copy = a;
  EXPECT_EQ(pool.outstanding(), 3u);
  a.reset();
  EXPECT_EQ(pool.outstanding(), 3u);
  copy.reset();
  EXPECT_EQ(pool.outstanding(), 2u);
  PacketBuf adopted = pool.adopt(Bytes(20, 0x33));
  EXPECT_EQ(pool.outstanding(), 3u);
  EXPECT_EQ(adopted.size(), 20u);
  b.reset();
  c.reset();
  adopted.reset();
  EXPECT_EQ(pool.outstanding(), 0u);
  // Recycled blocks are counted again when reacquired from either list.
  PacketBuf d = pool.acquire(40);
  PacketBuf e = pool.acquire(1500);
  EXPECT_EQ(pool.outstanding(), 2u);
}

// Parameterized: header round trip across flag combinations.
class FlagRoundTrip : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(FlagRoundTrip, PreservesFlags) {
  TcpSegment segment = sample_segment();
  segment.tcp.flags = GetParam();
  const Bytes wire = encode(segment);
  const auto decoded = decode_datagram(wire);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(std::get<TcpSegment>(*decoded).tcp.flags, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllCommonFlagSets, FlagRoundTrip,
                         ::testing::Values(kSyn, kSyn | kAck, kAck, kAck | kPsh,
                                           kFin | kAck, kRst, kRst | kAck,
                                           kFin | kAck | kPsh, kUrg | kAck));

}  // namespace
}  // namespace iwscan::net
