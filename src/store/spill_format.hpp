// On-disk columnar spill format for scan records (DESIGN.md §10).
//
// A spill file is a concatenation of self-describing segments. Every field
// is little-endian at a fixed offset, read and written through
// util::load_le / util::store_le: one unaligned load or store per field on
// a little-endian host, byte by byte on any other, so the layout is the
// same on every host and survives compiler/ABI changes (a record is never
// a struct memcpy). Each segment:
//
//   offset  width  field
//   ------  -----  -----------------------------------------------------
//        0      4  magic "IWSP" (0x49575350, LE)
//        4      2  format version (kFormatVersion)
//        6      1  record kind (RecordKind: 1 = host; a reader rejects
//                  every other value, e.g. 2, once a sweep record)
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
// Every record opens with its 8-byte cycle index, so a reader orders
// records by one load at the record's first byte and decodes the rest only
// when it emits it. A host record (49 bytes):
//
//    0 cycle u64   12 outcome u8    15 probes_run u8        21 iw_bytes u64
//    8 ip u32      13 anomaly u8    16 connections_used u8  29 observed_mss u16
//                  14 flags u8      17 iw_segments u32      31 lower_bound u32
//   35 iw_segments_b u32   39 iw_bytes_b u64   47 observed_mss_b u16
//
// flags: bit 0 fin_seen, bit 1 reorder_seen, bit 2 loss_suspected.
//
// Decoding normalizes what a record cannot hold: the outcome keeps its low
// two bits, flags their defined bits.
//
// Records are keyed by the *global* permutation-cycle index, which is
// unique across shards and processes — K-way merging any disjoint set of
// spill files by cycle reproduces exactly the record order a
// single-process, single-thread scan emits (exec/executor.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "core/result.hpp"
#include "netbase/ipv4.hpp"
#include "util/bytes.hpp"

namespace iwscan::store {

enum class RecordKind : std::uint8_t { Host = 1 };

inline constexpr std::uint32_t kSegmentMagic = 0x49575350u;  // "IWSP"
inline constexpr std::uint16_t kFormatVersion = 1;
inline constexpr std::size_t kSegmentHeaderBytes = 56;
inline constexpr std::size_t kHostRecordBytes = 49;
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

/// Writes the 56-byte segment header, including its own CRC.
void encode_segment_header(std::span<std::uint8_t, kSegmentHeaderBytes> out,
                           const SegmentMeta& meta);

/// Reads one segment header. False (with `error` filled) on bad magic,
/// unknown version or kind, or a header CRC mismatch.
[[nodiscard]] bool decode_segment_header(
    std::span<const std::uint8_t, kSegmentHeaderBytes> in, SegmentMeta& meta,
    std::string* error);

// Fixed-offset record codecs over raw record bytes. The caller guarantees
// the record's wire width at `out` / `in`: the writer sizes its payload
// once per segment, and readers validate width and byte count before the
// first decode.

/// The cycle index a record opens with.
[[nodiscard]] inline std::uint64_t record_cycle(const std::uint8_t* in) noexcept {
  return util::load_le<std::uint64_t>(in);
}

inline void encode_record(std::uint8_t* out, std::uint64_t cycle,
                          const core::HostScanRecord& record) noexcept {
  util::store_le<std::uint64_t>(out, cycle);
  util::store_le<std::uint32_t>(out + 8, record.ip.value());
  out[12] = static_cast<std::uint8_t>(record.outcome);
  out[13] = static_cast<std::uint8_t>(record.anomaly);
  out[14] = static_cast<std::uint8_t>((record.fin_seen ? 1u : 0u) |
                                      (record.reorder_seen ? 2u : 0u) |
                                      (record.loss_suspected ? 4u : 0u));
  out[15] = record.probes_run;
  out[16] = record.connections_used;
  util::store_le<std::uint32_t>(out + 17, record.iw_segments);
  util::store_le<std::uint64_t>(out + 21, record.iw_bytes);
  util::store_le<std::uint16_t>(out + 29, record.observed_mss);
  util::store_le<std::uint32_t>(out + 31, record.lower_bound);
  util::store_le<std::uint32_t>(out + 35, record.iw_segments_b);
  util::store_le<std::uint64_t>(out + 39, record.iw_bytes_b);
  util::store_le<std::uint16_t>(out + 47, record.observed_mss_b);
}

/// Decodes the record at `in` into `record`; returns its cycle index.
inline std::uint64_t decode_record(const std::uint8_t* in,
                                   core::HostScanRecord& record) noexcept {
  record.ip = net::IPv4Address{util::load_le<std::uint32_t>(in + 8)};
  // HostOutcome has no fixed underlying type, so an out-of-range cast would
  // be UB; the mask is a no-op on writer-produced (CRC-verified) bytes.
  record.outcome = static_cast<core::HostOutcome>(in[12] & 0x03u);
  record.anomaly = static_cast<core::ProbeAnomaly>(in[13]);
  const std::uint8_t flags = in[14];
  record.fin_seen = (flags & 1u) != 0;
  record.reorder_seen = (flags & 2u) != 0;
  record.loss_suspected = (flags & 4u) != 0;
  record.probes_run = in[15];
  record.connections_used = in[16];
  record.iw_segments = util::load_le<std::uint32_t>(in + 17);
  record.iw_bytes = util::load_le<std::uint64_t>(in + 21);
  record.observed_mss = util::load_le<std::uint16_t>(in + 29);
  record.lower_bound = util::load_le<std::uint32_t>(in + 31);
  record.iw_segments_b = util::load_le<std::uint32_t>(in + 35);
  record.iw_bytes_b = util::load_le<std::uint64_t>(in + 39);
  record.observed_mss_b = util::load_le<std::uint16_t>(in + 47);
  return record_cycle(in);
}

template <class Record>
struct RecordTraits;

template <>
struct RecordTraits<core::HostScanRecord> {
  static constexpr RecordKind kind = RecordKind::Host;
  static constexpr std::size_t wire_bytes = kHostRecordBytes;
  static constexpr std::string_view file_prefix = "host";
};

}  // namespace iwscan::store
