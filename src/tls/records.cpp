#include "tls/records.hpp"

#include <algorithm>
#include <stdexcept>

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

void encode_record(const Record& record, net::Bytes& out) {
  // A larger payload must go through encode_fragmented; the 16-bit length
  // field would silently truncate and desync the record stream.
  if (record.payload.size() > kMaxRecordPayload) {
    throw std::length_error("TLS record payload exceeds 2^14 bytes");
  }
  net::WireWriter writer(out);
  writer.u8(static_cast<std::uint8_t>(record.type));
  writer.u16(record.version);
  writer.u16(static_cast<std::uint16_t>(record.payload.size()));
  writer.raw(record.payload);
}

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

void RecordReader::feed(std::span<const std::uint8_t> data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

std::optional<Record> RecordReader::next() {
  if (malformed_ || buffer_.size() < 5) return std::nullopt;
  const std::uint8_t type = buffer_[0];
  if (type < 20 || type > 23) {
    malformed_ = true;
    return std::nullopt;
  }
  const std::uint16_t version =
      static_cast<std::uint16_t>((buffer_[1] << 8) | buffer_[2]);
  const std::size_t length = (buffer_[3] << 8) | buffer_[4];
  if (length > kMaxRecordPayload + 256) {
    malformed_ = true;
    return std::nullopt;
  }
  if (buffer_.size() < 5 + length) return std::nullopt;

  Record record;
  record.type = static_cast<ContentType>(type);
  record.version = version;
  record.payload.assign(buffer_.begin() + 5,
                        buffer_.begin() + 5 + static_cast<std::ptrdiff_t>(length));
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + 5 + static_cast<std::ptrdiff_t>(length));
  return record;
}

net::Bytes encode_alert(AlertLevel level, AlertDescription description) {
  return net::Bytes{static_cast<std::uint8_t>(level),
                    static_cast<std::uint8_t>(description)};
}

std::optional<Alert> decode_alert(std::span<const std::uint8_t> payload) {
  if (payload.size() != 2) return std::nullopt;
  return Alert{static_cast<AlertLevel>(payload[0]),
               static_cast<AlertDescription>(payload[1])};
}

}  // namespace iwscan::tls
