// Structured fuzz driver for the spill file reader (store/spill.hpp).
//
// Properties under test: any byte string, opened as one spill file, either
// fails with an error or yields records; it never crashes or reads out of
// bounds. An accepted file yields exactly the records its segments count,
// and each one, encoded again, gives back the bytes it was decoded from, up
// to the bits decoding normalizes (the outcome's high bits, undefined flag
// bits, a banner length past 32). The merge over an accepted file emits
// only strictly increasing cycles: all of its records, or fewer and an
// error. Each input is opened as it is, and again with every segment's
// CRCs re-stamped, so mutated records get past the CRC checks and reach
// the decoders. The reader maps a path, so each input is written to a
// scratch file first.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "fuzz_harness.hpp"
#include "store/crc32.hpp"
#include "store/spill.hpp"
#include "store/spill_format.hpp"

namespace {

using iwscan::fuzz::Input;
namespace fs = std::filesystem;
namespace store = iwscan::store;

void require(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "spill_segments property violated: %s\n", what);
    std::abort();
  }
}

const fs::path& scratch_file() {
  static const fs::path path =
      fs::temp_directory_path() /
      ("iwscan_fuzz_spill_" + std::to_string(::getpid()) + ".iwspill");
  return path;
}

void write_file(const fs::path& path, std::span<const std::uint8_t> bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  for (const std::uint8_t byte : bytes) file.put(static_cast<char>(byte));
  require(file.good(), "cannot write the scratch spill file");
}

Input read_file(const fs::path& path) {
  std::ifstream file(path, std::ios::binary);
  Input bytes;
  for (char c = 0; file.get(c);) bytes.push_back(static_cast<std::uint8_t>(c));
  return bytes;
}

/// The record bytes the codec reproduces: `raw` with the bits decoding
/// drops cleared and the banner length capped.
template <class Record>
Input canonical(std::span<const std::uint8_t> raw) {
  Input bytes(raw.begin(), raw.end());
  if constexpr (store::RecordTraits<Record>::kind == store::RecordKind::Host) {
    bytes[12] &= 0x03;  // outcome
    bytes[14] &= 0x07;  // fin_seen, reorder_seen, loss_suspected
  } else {
    bytes[12] &= 0x03;  // responsive, closed
    bytes[13] = std::min<std::uint8_t>(bytes[13], iwscan::scan::kSweepBannerCap);
  }
  return bytes;
}

template <class Record>
void check_file(const std::string& path) {
  constexpr std::size_t kWidth = store::RecordTraits<Record>::wire_bytes;
  store::SegmentReader<Record> reader;
  std::string error;
  if (!reader.open(path, &error)) {
    require(!error.empty(), "a rejected file gave no error");
    return;
  }
  std::uint64_t cycle = 0;
  Record record{};
  std::uint64_t records = 0;
  for (const store::SegmentView& segment : reader.segments()) {
    require(segment.payload.size() == std::size_t{segment.meta.record_count} * kWidth,
            "a segment's payload is not its record count of whole records");
    for (std::size_t at = 0; at < segment.payload.size(); at += kWidth) {
      require(reader.next(cycle, record), "the reader yields fewer records than it holds");
      std::array<std::uint8_t, kWidth> again{};
      store::encode_record(again.data(), cycle, record);
      const Input want = canonical<Record>(segment.payload.subspan(at, kWidth));
      require(std::ranges::equal(again, want),
              "a record does not re-encode to the bytes it was decoded from");
      ++records;
    }
  }
  require(!reader.next(cycle, record), "the reader yields more records than it holds");
  require(records == reader.record_count(), "record_count disagrees with the segments");

  auto merge = store::open_merge<Record>({path}, &error);
  require(merge.has_value(), "open_merge rejects a file its reader accepts");
  std::uint64_t emitted = 0;
  std::uint64_t last = 0;
  while (merge->next(cycle, record)) {
    require(emitted == 0 || cycle > last, "the merge emitted a cycle out of order");
    last = cycle;
    ++emitted;
  }
  require(merge->ok() ? emitted == records : !merge->error().empty() && emitted < records,
          "the merge neither emitted every record nor stopped with an error");
}

/// `bytes` with each segment header's payload and header CRCs recomputed,
/// walking headers as the reader would (a payload cut short by the end of
/// the input is stamped over what is there).
Input restamp(std::span<const std::uint8_t> bytes) {
  Input out(bytes.begin(), bytes.end());
  std::size_t at = 0;
  while (out.size() - at >= store::kSegmentHeaderBytes) {
    std::uint8_t* const header = out.data() + at;
    const std::uint64_t declared =
        std::uint64_t{iwscan::util::load_le<std::uint32_t>(header + 24)} *
        iwscan::util::load_le<std::uint32_t>(header + 28);
    const std::size_t start = at + store::kSegmentHeaderBytes;
    const std::size_t payload =
        static_cast<std::size_t>(std::min<std::uint64_t>(declared, out.size() - start));
    iwscan::util::store_le<std::uint32_t>(
        header + 48, store::crc32({out.data() + start, payload}));
    iwscan::util::store_le<std::uint32_t>(
        header + 52, store::crc32({header, store::kSegmentHeaderBytes - 4}));
    at = start + payload;
  }
  return out;
}

void check_input(std::span<const std::uint8_t> bytes) {
  write_file(scratch_file(), bytes);
  check_file<iwscan::core::HostScanRecord>(scratch_file().string());
  check_file<iwscan::scan::SweepRecord>(scratch_file().string());
}

void fuzz_one(std::span<const std::uint8_t> data) {
  check_input(data);
  check_input(restamp(data));
  std::error_code ec;
  fs::remove(scratch_file(), ec);
}

/// A spill file of `count` records appended in scrambled cycle order,
/// `per_segment` records to a segment.
template <class Record, class Make>
Input spill_file(std::size_t count, std::size_t per_segment, Make make) {
  const fs::path dir = fs::temp_directory_path() /
                       ("iwscan_fuzz_spill_corpus_" + std::to_string(::getpid()));
  store::SpillConfig config;
  config.directory = dir.string();
  config.segment_bytes = per_segment * store::RecordTraits<Record>::wire_bytes;
  config.seed = 0xf022;
  config.shard = 1;
  config.total_shards = 2;
  Input bytes;
  {
    store::SpillWriter<Record> writer(config);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t cycle = 2 * ((7 * i + 3) % count) + 1;
      writer.append(cycle, make(cycle));
    }
    require(writer.close(), "cannot write a corpus spill file");
    bytes = read_file(writer.path());
  }
  fs::remove_all(dir);
  return bytes;
}

iwscan::core::HostScanRecord host_record(std::uint64_t cycle) {
  iwscan::core::HostScanRecord record;
  record.ip = iwscan::net::IPv4Address{static_cast<std::uint32_t>(0x0a000000u + cycle)};
  record.outcome = static_cast<iwscan::core::HostOutcome>(cycle % 4);
  record.anomaly = static_cast<iwscan::core::ProbeAnomaly>(cycle % 14);
  record.fin_seen = cycle % 3 == 0;
  record.loss_suspected = cycle % 5 == 0;
  record.probes_run = 3;
  record.connections_used = static_cast<std::uint8_t>(1 + cycle % 3);
  record.iw_segments = static_cast<std::uint32_t>(cycle % 11);
  record.iw_bytes = record.iw_segments * 1460u;
  record.observed_mss = 1460;
  record.lower_bound = 1;
  record.iw_segments_b = record.iw_segments;
  record.iw_bytes_b = record.iw_segments * 536u;
  record.observed_mss_b = 536;
  return record;
}

iwscan::scan::SweepRecord sweep_record(std::uint64_t cycle) {
  iwscan::scan::SweepRecord record;
  record.cycle = cycle;
  record.ip = iwscan::net::IPv4Address{static_cast<std::uint32_t>(0xc0a80000u + cycle)};
  record.responsive = cycle % 4 != 0;
  record.closed = !record.responsive;
  record.window = 65535;
  record.mss = 1460;
  record.banner_length = static_cast<std::uint8_t>(cycle % 33);
  for (std::size_t i = 0; i < record.banner_length; ++i) {
    record.banner[i] = static_cast<std::uint8_t>('A' + (cycle + i) % 26);
  }
  return record;
}

std::vector<Input> fuzz_corpus() {
  return {
      spill_file<iwscan::core::HostScanRecord>(20, 6, host_record),  // 4 segments
      spill_file<iwscan::core::HostScanRecord>(1, 6, host_record),
      spill_file<iwscan::scan::SweepRecord>(12, 5, sweep_record),  // 3 segments
      {},
  };
}

}  // namespace

IWSCAN_FUZZ_DRIVER(fuzz_one, fuzz_corpus)
