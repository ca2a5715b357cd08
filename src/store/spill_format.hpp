// On-disk columnar spill format for scan records (DESIGN.md §10).
//
// A spill file is a concatenation of self-describing segments. Every field
// is explicit little-endian, written byte by byte through the WireWriter /
// WireReader primitives — no struct memcpy, so the layout is identical on
// every host and survives compiler/ABI changes. Each segment:
//
//   offset  width  field
//   ------  -----  -----------------------------------------------------
//        0      4  magic "IWSP" (0x49575350, LE)
//        4      2  format version (kFormatVersion)
//        6      1  record kind (RecordKind: 1 = host, 2 = sweep)
//        7      1  reserved (0)
//        8      8  scan seed (permutation + session seed of the run)
//       16      4  shard index      } the permutation stride this file
//       20      4  total shards     } covers: cycles ≡ shard (mod total)
//       24      4  record wire width in bytes (must match the codec)
//       28      4  record count in this segment
//       32      8  first (lowest) cycle index in the segment
//       40      8  last (highest) cycle index in the segment
//       48      4  CRC-32 of the payload bytes
//       52      4  CRC-32 of header bytes [0, 52)
//       56      –  payload: `record count` fixed-width records, sorted by
//                  ascending cycle index (each segment is a sorted run)
//
// Records are keyed by the *global* permutation-cycle index, which is
// unique across shards and processes — K-way merging any disjoint set of
// spill files by cycle reproduces exactly the record order a
// single-process, single-thread scan emits (exec/executor.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/result.hpp"
#include "netbase/wire.hpp"
#include "scanner/stateless.hpp"

namespace iwscan::store {

enum class RecordKind : std::uint8_t { Host = 1, Sweep = 2 };

inline constexpr std::uint32_t kSegmentMagic = 0x49575350u;  // "IWSP"
inline constexpr std::uint16_t kFormatVersion = 1;
inline constexpr std::size_t kSegmentHeaderBytes = 56;
inline constexpr std::size_t kHostRecordBytes = 49;
inline constexpr std::size_t kSweepRecordBytes = 50;
inline constexpr std::size_t kDefaultSegmentBytes = 1u << 20;

// The codecs below spell out every field at its exact width; if a record
// struct changes shape these trip at compile time and force a format
// version bump (or a new trailing field) instead of silent corruption.
static_assert(sizeof(core::HostScanRecord::ip) == 4);
static_assert(sizeof(core::HostScanRecord::iw_segments) == 4);
static_assert(sizeof(core::HostScanRecord::iw_bytes) == 8);
static_assert(sizeof(core::HostScanRecord::observed_mss) == 2);
static_assert(sizeof(core::HostScanRecord::lower_bound) == 4);
static_assert(sizeof(core::HostScanRecord::iw_segments_b) == 4);
static_assert(sizeof(core::HostScanRecord::iw_bytes_b) == 8);
static_assert(sizeof(core::HostScanRecord::observed_mss_b) == 2);
static_assert(sizeof(core::HostScanRecord::anomaly) == 1);
static_assert(sizeof(core::HostScanRecord::probes_run) == 1);
static_assert(sizeof(core::HostScanRecord::connections_used) == 1);
static_assert(sizeof(scan::SweepRecord::cycle) == 8);
static_assert(sizeof(scan::SweepRecord::ip) == 4);
static_assert(sizeof(scan::SweepRecord::window) == 2);
static_assert(sizeof(scan::SweepRecord::mss) == 2);
static_assert(sizeof(scan::SweepRecord::banner_length) == 1);
static_assert(scan::kSweepBannerCap == 32);

struct SegmentMeta {
  RecordKind kind = RecordKind::Host;
  std::uint64_t seed = 0;
  std::uint32_t shard = 0;
  std::uint32_t total_shards = 1;
  std::uint32_t record_bytes = 0;
  std::uint32_t record_count = 0;
  std::uint64_t first_cycle = 0;
  std::uint64_t last_cycle = 0;
  std::uint32_t payload_crc = 0;
};

/// Appends the 56-byte segment header (including its own CRC) to `out`.
void encode_segment_header(net::Bytes& out, const SegmentMeta& meta);

/// Consumes one segment header. False (with `error` filled) on a short
/// read, bad magic, unknown version, or a header CRC mismatch.
[[nodiscard]] bool decode_segment_header(net::WireReader& reader, SegmentMeta& meta,
                                         std::string* error);

// Fixed-width record codecs: encode appends exactly k*RecordBytes; decode
// consumes the same. The tagged cycle index is authoritative — for sweep
// records, decode writes it back into SweepRecord::cycle.
void encode_record(net::WireWriter& writer, std::uint64_t cycle,
                   const core::HostScanRecord& record);
void decode_record(net::WireReader& reader, std::uint64_t& cycle,
                   core::HostScanRecord& record);
void encode_record(net::WireWriter& writer, std::uint64_t cycle,
                   const scan::SweepRecord& record);
void decode_record(net::WireReader& reader, std::uint64_t& cycle,
                   scan::SweepRecord& record);

template <class Record>
struct RecordTraits;

template <>
struct RecordTraits<core::HostScanRecord> {
  static constexpr RecordKind kind = RecordKind::Host;
  static constexpr std::size_t wire_bytes = kHostRecordBytes;
  static constexpr std::string_view file_prefix = "host";
};

template <>
struct RecordTraits<scan::SweepRecord> {
  static constexpr RecordKind kind = RecordKind::Sweep;
  static constexpr std::size_t wire_bytes = kSweepRecordBytes;
  static constexpr std::string_view file_prefix = "sweep";
};

}  // namespace iwscan::store
