#include "tls/records.hpp"

#include <algorithm>

namespace iwscan::tls {
namespace {

/// Wire size of a payload framed as encode_fragmented frames it: one
/// header per started kMaxRecordPayload bytes, and one for an empty payload.
std::size_t fragmented_size(std::size_t payload_bytes) noexcept {
  const std::size_t records =
      std::max<std::size_t>(1, (payload_bytes + kMaxRecordPayload - 1) / kMaxRecordPayload);
  return payload_bytes + records * kRecordHeaderBytes;
}

}  // namespace

// iwlint: allow(unreached) -- composed reference for the in-place TLS first flight
void encode_fragmented(ContentType type, std::uint16_t version,
                       std::span<const std::uint8_t> payload, net::Bytes& out) {
  std::size_t offset = 0;
  do {
    const std::size_t chunk = std::min(payload.size() - offset, kMaxRecordPayload);
    net::WireWriter writer(out);
    writer.u8(static_cast<std::uint8_t>(type));
    writer.u16(version);
    writer.u16(static_cast<std::uint16_t>(chunk));
    writer.raw(payload.subspan(offset, chunk));
    offset += chunk;
  } while (offset < payload.size());
}

FragmentWriter::FragmentWriter(ContentType type, std::uint16_t version,
                               std::size_t payload_bytes, net::Bytes& out)
    : type_(type), version_(version), out_(out), pos_(out.size()),
      payload_left_(payload_bytes) {
  // iwlint: allow(hot-path) -- the one allocation of a server first flight
  // or a probe's ClientHello, sized once; covered by alloc_budget_test's TLS
  // budget and BM_TlsFirstFlight's allocs_per_flight ceiling
  out_.resize(pos_ + fragmented_size(payload_bytes));
  open_record();
}

void FragmentWriter::open_record() noexcept {
  const std::size_t length = std::min(payload_left_, kMaxRecordPayload);
  out_[pos_] = static_cast<std::uint8_t>(type_);
  out_[pos_ + 1] = static_cast<std::uint8_t>(version_ >> 8);
  out_[pos_ + 2] = static_cast<std::uint8_t>(version_);
  out_[pos_ + 3] = static_cast<std::uint8_t>(length >> 8);
  out_[pos_ + 4] = static_cast<std::uint8_t>(length);
  pos_ += kRecordHeaderBytes;
  record_left_ = length;
}

void FragmentWriter::raw(std::span<const std::uint8_t> bytes) noexcept {
  while (!bytes.empty()) {
    const auto piece = claim(bytes.size());
    std::copy_n(bytes.begin(), piece.size(), piece.begin());
    bytes = bytes.subspan(piece.size());
  }
}

void FragmentWriter::fill(std::size_t n, std::uint8_t value) noexcept {
  while (n > 0) {
    const auto piece = claim(n);
    std::fill(piece.begin(), piece.end(), value);
    n -= piece.size();
  }
}

RecordFrame frame_record(std::span<const std::uint8_t> stream) noexcept {
  RecordFrame frame;
  if (stream.size() < kRecordHeaderBytes) return frame;
  const std::uint8_t type = stream[0];
  const std::size_t length = static_cast<std::size_t>((stream[3] << 8) | stream[4]);
  if (type < 20 || type > 23 || length > kMaxRecordPayload + 256) {
    frame.status = RecordFrame::Status::Malformed;
    return frame;
  }
  if (stream.size() < kRecordHeaderBytes + length) return frame;
  frame.status = RecordFrame::Status::Complete;
  frame.type = static_cast<ContentType>(type);
  frame.version = static_cast<std::uint16_t>((stream[1] << 8) | stream[2]);
  frame.payload = stream.subspan(kRecordHeaderBytes, length);
  return frame;
}

}  // namespace iwscan::tls
