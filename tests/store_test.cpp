// The columnar spill store (store/): round-trip fidelity through the
// fixed-width wire codecs, CRC-guarded corruption detection (a damaged
// file is an error, never UB or silent bad data), and the merge-time
// identity checks that keep multi-process operator mistakes (mixed seeds,
// overlapping shards, duplicated inputs) from producing a corrupt merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/result.hpp"
#include "store/crc32.hpp"
#include "store/spill.hpp"
#include "store/spill_format.hpp"
#include "util/rng.hpp"

namespace iwscan::store {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory (fixed name: tests must stay
/// deterministic, and ctest runs each binary in isolation).
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("iwscan_store_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

core::HostScanRecord random_host_record(util::Rng& rng) {
  core::HostScanRecord record;
  record.ip = net::IPv4Address{static_cast<std::uint32_t>(rng())};
  record.outcome = static_cast<core::HostOutcome>(rng.below(4));
  record.iw_segments = static_cast<std::uint32_t>(rng());
  record.iw_bytes = rng();
  record.observed_mss = static_cast<std::uint16_t>(rng());
  record.lower_bound = static_cast<std::uint32_t>(rng());
  record.iw_segments_b = static_cast<std::uint32_t>(rng());
  record.iw_bytes_b = rng();
  record.observed_mss_b = static_cast<std::uint16_t>(rng());
  record.fin_seen = rng.chance(0.5);
  record.reorder_seen = rng.chance(0.5);
  record.loss_suspected = rng.chance(0.5);
  record.anomaly = static_cast<core::ProbeAnomaly>(rng.below(12));
  record.probes_run = static_cast<std::uint8_t>(rng());
  record.connections_used = static_cast<std::uint8_t>(rng());
  return record;
}

struct TaggedHost {
  std::uint64_t cycle = 0;
  core::HostScanRecord record;
};

/// Writes `count` random host records for the stride shard (mod total) in
/// shuffled order — sessions complete out of cycle order in real scans.
std::vector<TaggedHost> write_host_spill(const fs::path& dir, std::uint64_t seed,
                                         std::uint32_t shard, std::uint32_t total,
                                         std::size_t count, std::size_t segment_bytes,
                                         std::string* path_out = nullptr) {
  util::Rng rng(seed * 1000003 + shard);
  std::vector<TaggedHost> tagged;
  tagged.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tagged.push_back(TaggedHost{i * total + shard, random_host_record(rng)});
  }
  std::vector<TaggedHost> shuffled = tagged;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  SpillConfig config;
  config.directory = dir.string();
  config.segment_bytes = segment_bytes;
  config.seed = seed;
  config.shard = shard;
  config.total_shards = total;
  SpillWriter<core::HostScanRecord> writer(config);
  for (const TaggedHost& entry : shuffled) writer.append(entry.cycle, entry.record);
  EXPECT_TRUE(writer.close()) << writer.error();
  EXPECT_EQ(writer.appended(), count);
  if (path_out != nullptr) *path_out = writer.path();
  return tagged;
}

// ------------------------------------------------------- round-trips ----

TEST(SpillStore, HostRecordsRoundTripAcrossManySegments) {
  const fs::path dir = scratch_dir("host_roundtrip");
  std::string path;
  // ~5 records per segment: the 257-record run must span many segments.
  const std::vector<TaggedHost> want =
      write_host_spill(dir, 0x5eed, 0, 1, 257, 5 * kHostRecordBytes, &path);

  SegmentReader<core::HostScanRecord> reader;
  std::string error;
  ASSERT_TRUE(reader.open(path, &error)) << error;
  EXPECT_GT(reader.segments().size(), 10u);
  EXPECT_EQ(reader.record_count(), want.size());
  EXPECT_EQ(reader.seed(), 0x5eedu);

  std::vector<core::HostScanRecord> got;
  std::string merge_error;
  ASSERT_TRUE(read_merged<core::HostScanRecord>({path}, got, &merge_error))
      << merge_error;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i].record) << "record " << i << " diverges";
  }
  fs::remove_all(dir);
}

TEST(SpillStore, EmptyWriterProducesValidEmptyFile) {
  const fs::path dir = scratch_dir("empty");
  SpillConfig config;
  config.directory = dir.string();
  config.seed = 7;
  SpillWriter<core::HostScanRecord> writer(config);
  ASSERT_TRUE(writer.close());
  EXPECT_EQ(writer.segments_flushed(), 0u);

  SegmentReader<core::HostScanRecord> reader;
  std::string error;
  ASSERT_TRUE(reader.open(writer.path(), &error)) << error;
  EXPECT_EQ(reader.record_count(), 0u);
  EXPECT_FALSE(reader.has_identity());

  std::vector<core::HostScanRecord> got;
  ASSERT_TRUE(read_merged<core::HostScanRecord>({writer.path()}, got, &error)) << error;
  EXPECT_TRUE(got.empty());
  fs::remove_all(dir);
}

// ------------------------------------------- corruption is an error ----

TEST(SpillStore, TruncatedTailIsDetectedNotMisread) {
  const fs::path dir = scratch_dir("truncated");
  std::string path;
  write_host_spill(dir, 1, 0, 1, 64, 8 * kHostRecordBytes, &path);
  // Cut the file mid-payload of the final segment.
  fs::resize_file(path, fs::file_size(path) - kHostRecordBytes / 2);

  SegmentReader<core::HostScanRecord> reader;
  std::string error;
  EXPECT_FALSE(reader.open(path, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  fs::remove_all(dir);
}

TEST(SpillStore, FlippedPayloadByteFailsTheSegmentCrc) {
  const fs::path dir = scratch_dir("payload_flip");
  std::string path;
  write_host_spill(dir, 2, 0, 1, 32, 1u << 20, &path);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(kSegmentHeaderBytes + 10));
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(kSegmentHeaderBytes + 10));
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(kSegmentHeaderBytes + 10));
    file.write(&byte, 1);
  }
  SegmentReader<core::HostScanRecord> reader;
  std::string error;
  EXPECT_FALSE(reader.open(path, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
  fs::remove_all(dir);
}

TEST(SpillStore, FlippedHeaderByteFailsTheHeaderCrc) {
  const fs::path dir = scratch_dir("header_flip");
  std::string path;
  write_host_spill(dir, 3, 0, 1, 32, 1u << 20, &path);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    file.seekg(8);  // the seed field, guarded by the header CRC
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(8);
    file.write(&byte, 1);
  }
  SegmentReader<core::HostScanRecord> reader;
  std::string error;
  EXPECT_FALSE(reader.open(path, &error));
  EXPECT_FALSE(error.empty());
  fs::remove_all(dir);
}

TEST(SpillStore, MissingFileIsAnError) {
  const fs::path dir = scratch_dir("missing");
  SegmentReader<core::HostScanRecord> reader;
  std::string error;
  EXPECT_FALSE(reader.open((dir / spill_file_name(0, 1)).string(), &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
  fs::remove_all(dir);
}

TEST(SpillStore, EveryKindButHostIsRejected) {
  // Kind 2 was the sweep record; no reader accepts it any more.
  std::array<std::uint8_t, kSegmentHeaderBytes> header{};
  SegmentMeta meta;
  meta.kind = static_cast<RecordKind>(2);
  encode_segment_header(header, meta);
  SegmentMeta decoded;
  std::string error;
  EXPECT_FALSE(decode_segment_header(header, decoded, &error));
  EXPECT_EQ(error, "unknown record kind 2");
}

TEST(SpillStore, WriterThatCannotOpenItsFileKeepsAppendingInBounds) {
  // The sink never opens: the spill directory is a regular file, or a
  // directory sits at the spill file's own path. Every full run is then
  // dropped, not flushed: appends stay inside the staged payload, and
  // close() reports the error.
  const fs::path dir = scratch_dir("unopenable");
  const fs::path not_a_dir = dir / "plain_file";
  std::ofstream(not_a_dir) << "x";
  const fs::path blocked = dir / "blocked";
  fs::create_directories(blocked / spill_file_name(0, 1));
  const std::pair<fs::path, std::string> cases[] = {
      {not_a_dir, "cannot create spill directory"}, {blocked, "for writing"}};
  for (const auto& [directory, message] : cases) {
    SpillConfig config;
    config.directory = directory.string();
    config.segment_bytes = 4 * kHostRecordBytes;
    SpillWriter<core::HostScanRecord> writer(config);
    EXPECT_FALSE(writer.ok()) << message;
    util::Rng rng(4);
    for (std::uint64_t cycle = 0; cycle < 40; ++cycle) {
      writer.append(cycle, random_host_record(rng));
    }
    EXPECT_EQ(writer.appended(), 40u);
    EXPECT_EQ(writer.segments_flushed(), 0u);
    EXPECT_FALSE(writer.close());
    EXPECT_NE(writer.error().find(message), std::string::npos) << writer.error();
  }
  fs::remove_all(dir);
}

// ---------------------------------------------- multi-shard merging ----

TEST(SpillStore, MergeAcrossShardsReconstructsGlobalCycleOrder) {
  const fs::path dir = scratch_dir("merge");
  std::string path0;
  std::string path1;
  const auto want0 = write_host_spill(dir, 7, 0, 2, 40, 6 * kHostRecordBytes, &path0);
  const auto want1 = write_host_spill(dir, 7, 1, 2, 40, 6 * kHostRecordBytes, &path1);

  std::vector<TaggedHost> want = want0;
  want.insert(want.end(), want1.begin(), want1.end());
  std::sort(want.begin(), want.end(),
            [](const TaggedHost& a, const TaggedHost& b) { return a.cycle < b.cycle; });

  std::string error;
  auto merge = open_merge<core::HostScanRecord>({path0, path1}, &error);
  ASSERT_TRUE(merge.has_value()) << error;
  EXPECT_EQ(merge->record_count(), want.size());
  EXPECT_EQ(merge->seed(), 7u);

  std::uint64_t cycle = 0;
  core::HostScanRecord record;
  std::size_t index = 0;
  while (merge->next(cycle, record)) {
    ASSERT_LT(index, want.size());
    EXPECT_EQ(cycle, want[index].cycle);
    EXPECT_TRUE(record == want[index].record) << "merged record " << index;
    ++index;
  }
  EXPECT_TRUE(merge->ok()) << merge->error();
  EXPECT_EQ(index, want.size());
  fs::remove_all(dir);
}

TEST(SpillStore, DisjointShardsWithUnequalTotalsMerge) {
  // 0 (mod 2) ∪ 1 (mod 4) ∪ 3 (mod 4) covers every residue exactly once.
  const fs::path dir = scratch_dir("unequal_totals");
  std::string path0;
  std::string path1;
  std::string path3;
  write_host_spill(dir, 5, 0, 2, 16, 1u << 20, &path0);
  write_host_spill(dir, 5, 1, 4, 8, 1u << 20, &path1);
  write_host_spill(dir, 5, 3, 4, 8, 1u << 20, &path3);

  std::vector<core::HostScanRecord> got;
  std::string error;
  ASSERT_TRUE(
      read_merged<core::HostScanRecord>({path0, path1, path3}, got, &error))
      << error;
  EXPECT_EQ(got.size(), 32u);
  fs::remove_all(dir);
}

TEST(SpillStore, MixedSeedInputsAreRejected) {
  const fs::path dir = scratch_dir("mixed_seed");
  std::string path0;
  std::string path1;
  write_host_spill(dir, 7, 0, 2, 8, 1u << 20, &path0);
  write_host_spill(dir, 8, 1, 2, 8, 1u << 20, &path1);

  std::string error;
  auto merge = open_merge<core::HostScanRecord>({path0, path1}, &error);
  EXPECT_FALSE(merge.has_value());
  EXPECT_NE(error.find("mixed scan seeds"), std::string::npos) << error;
  fs::remove_all(dir);
}

TEST(SpillStore, OverlappingShardStridesAreRejected) {
  // 0 (mod 2) and 2 (mod 4) intersect: both own cycles ≡ 2 (mod 4).
  const fs::path dir = scratch_dir("overlap");
  std::string path0;
  std::string path2;
  write_host_spill(dir, 7, 0, 2, 8, 1u << 20, &path0);
  write_host_spill(dir, 7, 2, 4, 8, 1u << 20, &path2);

  std::string error;
  auto merge = open_merge<core::HostScanRecord>({path0, path2}, &error);
  EXPECT_FALSE(merge.has_value());
  EXPECT_NE(error.find("overlapping shards"), std::string::npos) << error;
  fs::remove_all(dir);
}

TEST(SpillStore, DuplicateCycleInDisjointlyLabeledInputsStopsTheStream) {
  // Defense in depth: a file whose *label* says shard 1/2 but whose
  // payload violates the residue sneaks past the stride check; the merge
  // itself still refuses to emit a repeated cycle.
  const fs::path dir = scratch_dir("residue_lie");
  SpillConfig config0;
  config0.directory = dir.string();
  config0.seed = 7;
  config0.shard = 0;
  config0.total_shards = 2;
  SpillWriter<core::HostScanRecord> writer0(config0);
  util::Rng rng(1);
  for (const std::uint64_t cycle : {0u, 2u, 4u}) {
    writer0.append(cycle, random_host_record(rng));
  }
  ASSERT_TRUE(writer0.close());

  SpillConfig config1 = config0;
  config1.shard = 1;
  SpillWriter<core::HostScanRecord> writer1(config1);
  writer1.append(1, random_host_record(rng));
  writer1.append(2, random_host_record(rng));  // lies about its residue
  ASSERT_TRUE(writer1.close());

  std::vector<core::HostScanRecord> got;
  std::string error;
  EXPECT_FALSE(read_merged<core::HostScanRecord>({writer0.path(), writer1.path()},
                                                 got, &error));
  EXPECT_NE(error.find("repeats or regresses"), std::string::npos) << error;
  fs::remove_all(dir);
}

// ------------------------------------------------ pinned file bytes ----

/// splitmix64 finalizer: the golden records below come from this fixed
/// formula rather than util::Rng, so the pin holds whatever the RNG does.
std::uint64_t golden_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

core::HostScanRecord golden_host_record(std::uint64_t cycle) {
  const std::uint64_t h = golden_mix(cycle);
  const std::uint64_t g = golden_mix(h);
  core::HostScanRecord record;
  record.ip = net::IPv4Address{static_cast<std::uint32_t>(h >> 32)};
  record.outcome = static_cast<core::HostOutcome>(h & 0x03u);
  record.anomaly = static_cast<core::ProbeAnomaly>((h >> 2) % 14);
  record.fin_seen = (h & 0x40u) != 0;
  record.reorder_seen = (h & 0x80u) != 0;
  record.loss_suspected = (h & 0x100u) != 0;
  record.probes_run = static_cast<std::uint8_t>(h >> 9);
  record.connections_used = static_cast<std::uint8_t>(h >> 17);
  record.iw_segments = static_cast<std::uint32_t>(g);
  record.iw_bytes = g * 0x10001;
  record.observed_mss = static_cast<std::uint16_t>(g >> 32);
  record.lower_bound = static_cast<std::uint32_t>(g >> 20);
  record.iw_segments_b = static_cast<std::uint32_t>(g >> 28);
  record.iw_bytes_b = ~g;
  record.observed_mss_b = static_cast<std::uint16_t>(g >> 48);
  return record;
}

/// Appends 50 golden host records of cycles 3k+1: the first 14 in cycle
/// order (two runs that arrive sorted), the rest scrambled
/// (k = (25j + 5) mod 36 + 14).
std::string write_golden_spill(const fs::path& dir, std::size_t records_per_segment) {
  SpillConfig config;
  config.directory = dir.string();
  config.segment_bytes = records_per_segment * kHostRecordBytes;
  config.seed = 0x601dULL;
  config.shard = 1;
  config.total_shards = 3;
  SpillWriter<core::HostScanRecord> writer(config);
  for (std::uint64_t k = 0; k < 14; ++k) {
    writer.append(3 * k + 1, golden_host_record(3 * k + 1));
  }
  for (std::uint64_t j = 0; j < 36; ++j) {
    const std::uint64_t cycle = 3 * ((25 * j + 5) % 36 + 14) + 1;
    writer.append(cycle, golden_host_record(cycle));
  }
  EXPECT_TRUE(writer.close()) << writer.error();
  return writer.path();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
}

/// FNV-1a 64 over the whole file.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

std::string hex(const std::vector<std::uint8_t>& bytes, std::size_t offset,
                std::size_t count) {
  std::string out;
  for (std::size_t i = offset; i < offset + count && i < bytes.size(); ++i) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", bytes[i]);
    out += buf;
  }
  return out;
}

TEST(SpillStore, SegmentBytesArePinned) {
  // The on-disk layout is a contract with every spill file already
  // written: any codec, sort or merge rewrite must reproduce these bytes.
  const fs::path dir = scratch_dir("golden");

  const std::vector<std::uint8_t> host =
      read_file(write_golden_spill(dir, 7));
  EXPECT_EQ(host.size(), 8 * kSegmentHeaderBytes + 50 * kHostRecordBytes);
  EXPECT_EQ(fnv1a(host), 0xbe958df531ab9051ULL);
  // The third record of the third segment, a run that arrived scrambled.
  const std::size_t host_at = 3 * kSegmentHeaderBytes + 16 * kHostRecordBytes;
  EXPECT_EQ(hex(host, host_at, kHostRecordBytes),
            "4c000000000000005807f5e50204066d38effe463ceffe353b6814e68b21d8c4"
            "13824d13824d3c1001b9c3de273b4cc4b3");
  fs::remove_all(dir);
}

// ------------------------------------------------------------ CRC-32 ----

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition the table
/// kernels must agree with.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = ~std::uint32_t{0};
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32, KnownAnswers) {
  const std::string check = "123456789";
  const std::vector<std::uint8_t> digits(check.begin(), check.end());
  EXPECT_EQ(crc32(digits), 0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0u);
}

TEST(Crc32, MatchesTheBitwiseReferenceAtEveryLengthAndAlignment) {
  // Both kernels, on every CPU: crc32() folds with PCLMULQDQ where the CPU
  // has it and leaves the tables only the tails, so the tables kernel is
  // also run over the whole span.
  std::vector<std::uint8_t> bytes(4096 + 64);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(golden_mix(i));
  }
  const auto check = [&](std::size_t start, std::size_t length) {
    const std::span<const std::uint8_t> span{bytes.data() + start, length};
    const std::uint32_t expected = crc32_bitwise(bytes.data() + start, length);
    EXPECT_EQ(crc32(span), expected) << "start " << start << ", length " << length;
    EXPECT_EQ(crc32_portable(span), expected)
        << "tables kernel, start " << start << ", length " << length;
  };
  for (std::size_t start = 0; start < 16; ++start) {
    for (std::size_t length = 0; length <= 160; ++length) check(start, length);
  }
  // Long inputs run every kernel's main loop and its tail.
  for (const std::size_t length : {255u, 1024u, 1031u, 4096u}) {
    for (std::size_t start = 0; start < 64; start += 7) check(start, length);
  }
}

// ----------------------------------------------------------- helpers ----

TEST(SpillStore, ShardsOverlapMatchesTheGcdRule) {
  EXPECT_TRUE(shards_overlap(0, 1, 3, 4));   // 0 mod 1 is everything
  EXPECT_TRUE(shards_overlap(0, 2, 2, 4));   // both own 2 (mod 4)
  EXPECT_TRUE(shards_overlap(1, 2, 3, 4));   // both own 3 (mod 4)
  EXPECT_FALSE(shards_overlap(0, 2, 1, 2));  // complementary halves
  EXPECT_FALSE(shards_overlap(0, 2, 1, 4));
  EXPECT_FALSE(shards_overlap(0, 2, 3, 4));
  EXPECT_FALSE(shards_overlap(1, 2, 0, 4));
  EXPECT_TRUE(shards_overlap(2, 6, 5, 9));   // gcd 3: 2 ≡ 5 (mod 3)
  EXPECT_FALSE(shards_overlap(2, 6, 4, 9));  // gcd 3: 2 ≢ 1 (mod 3)
}

TEST(SpillStore, CollectSpillFilesExpandsDirectoriesToHostFiles) {
  const fs::path dir = scratch_dir("collect");
  std::string host_path;
  write_host_spill(dir, 7, 0, 1, 4, 1u << 20, &host_path);
  // Other files in the directory are skipped, among them a sweep spill an
  // older build wrote.
  std::ofstream(dir / "sweep-00000-of-00001.iwspill") << "old";
  std::ofstream(dir / "notes.txt") << "notes";

  std::vector<std::string> hosts;
  std::string error;
  ASSERT_TRUE(collect_spill_files({dir.string()}, hosts, &error)) << error;
  ASSERT_EQ(hosts.size(), 1u);
  EXPECT_EQ(hosts.front(), host_path);

  std::vector<std::string> missing;
  EXPECT_FALSE(collect_spill_files({(dir / "nope").string()}, missing, &error));
  EXPECT_FALSE(error.empty());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace iwscan::store
