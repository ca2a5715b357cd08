#include "store/spill_format.hpp"

#include "store/crc32.hpp"

namespace iwscan::store {

void encode_segment_header(std::span<std::uint8_t, kSegmentHeaderBytes> out,
                           const SegmentMeta& meta) {
  std::uint8_t* const p = out.data();
  util::store_le<std::uint32_t>(p, kSegmentMagic);
  util::store_le<std::uint16_t>(p + 4, kFormatVersion);
  p[6] = static_cast<std::uint8_t>(meta.kind);
  p[7] = 0;  // reserved
  util::store_le<std::uint64_t>(p + 8, meta.seed);
  util::store_le<std::uint32_t>(p + 16, meta.shard);
  util::store_le<std::uint32_t>(p + 20, meta.total_shards);
  util::store_le<std::uint32_t>(p + 24, meta.record_bytes);
  util::store_le<std::uint32_t>(p + 28, meta.record_count);
  util::store_le<std::uint64_t>(p + 32, meta.first_cycle);
  util::store_le<std::uint64_t>(p + 40, meta.last_cycle);
  util::store_le<std::uint32_t>(p + 48, meta.payload_crc);
  util::store_le<std::uint32_t>(p + 52, crc32(out.first<kSegmentHeaderBytes - 4>()));
}

bool decode_segment_header(std::span<const std::uint8_t, kSegmentHeaderBytes> in,
                           SegmentMeta& meta, std::string* error) {
  const std::uint8_t* const p = in.data();
  if (util::load_le<std::uint32_t>(p + 52) != crc32(in.first<kSegmentHeaderBytes - 4>())) {
    if (error != nullptr) *error = "segment header CRC mismatch (corrupted header)";
    return false;
  }
  if (util::load_le<std::uint32_t>(p) != kSegmentMagic) {
    if (error != nullptr) *error = "bad segment magic (not an iwspill file)";
    return false;
  }
  const std::uint16_t version = util::load_le<std::uint16_t>(p + 4);
  if (version != kFormatVersion) {
    if (error != nullptr) {
      *error = "unsupported spill format version " + std::to_string(version);
    }
    return false;
  }
  const auto kind = static_cast<RecordKind>(p[6]);
  if (kind != RecordKind::Host && kind != RecordKind::Sweep) {
    if (error != nullptr) {
      *error = "unknown record kind " + std::to_string(static_cast<unsigned>(kind));
    }
    return false;
  }
  meta.kind = kind;
  meta.seed = util::load_le<std::uint64_t>(p + 8);
  meta.shard = util::load_le<std::uint32_t>(p + 16);
  meta.total_shards = util::load_le<std::uint32_t>(p + 20);
  meta.record_bytes = util::load_le<std::uint32_t>(p + 24);
  meta.record_count = util::load_le<std::uint32_t>(p + 28);
  meta.first_cycle = util::load_le<std::uint64_t>(p + 32);
  meta.last_cycle = util::load_le<std::uint64_t>(p + 40);
  meta.payload_crc = util::load_le<std::uint32_t>(p + 48);
  return true;
}

}  // namespace iwscan::store
