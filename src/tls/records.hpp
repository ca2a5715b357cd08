// TLS record layer (RFC 5246 §6.2): framing only, no encryption — the scan
// never progresses past the server's first flight, which is plaintext.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "netbase/wire.hpp"
#include "util/check.hpp"

namespace iwscan::tls {

enum class ContentType : std::uint8_t {
  ChangeCipherSpec = 20,
  Alert = 21,
  Handshake = 22,
  ApplicationData = 23,
};

inline constexpr std::uint16_t kTls12 = 0x0303;
inline constexpr std::uint16_t kTls10 = 0x0301;
inline constexpr std::size_t kMaxRecordPayload = 1 << 14;
inline constexpr std::size_t kRecordHeaderBytes = 5;  // type, version, length

struct Record {
  ContentType type = ContentType::Handshake;
  std::uint16_t version = kTls12;
  net::Bytes payload;
};

/// Serialize one record (payload must be ≤ 2^14 bytes).
void encode_record(const Record& record, net::Bytes& out);

/// Serialize a payload, fragmenting across records if it exceeds 2^14.
void encode_fragmented(ContentType type, std::uint16_t version,
                       std::span<const std::uint8_t> payload, net::Bytes& out);

/// Writes a payload of known length as the records encode_fragmented makes
/// of it, in place: the constructor grows `out` once by the payload's wire
/// size, and each write lands in the current record, a new header opening
/// every kMaxRecordPayload payload bytes. The writes must total the length.
class FragmentWriter {
 public:
  FragmentWriter(ContentType type, std::uint16_t version, std::size_t payload_bytes,
                 net::Bytes& out);

  /// The next min(n, room left in the current record) payload bytes, to be
  /// written by the caller; opens the next record when the current is full.
  [[nodiscard]] std::span<std::uint8_t> claim(std::size_t n) noexcept {
    IWSCAN_ASSERT(n > 0 && n <= payload_left_,
                  "FragmentWriter: write outside the declared payload");
    if (record_left_ == 0) open_record();
    const std::size_t length = std::min(n, record_left_);
    const std::span<std::uint8_t> piece(out_.data() + pos_, length);
    pos_ += length;
    record_left_ -= length;
    payload_left_ -= length;
    return piece;
  }

  void u8(std::uint8_t v) noexcept { claim(1)[0] = v; }
  void u16(std::uint16_t v) noexcept {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u24(std::uint32_t v) noexcept {
    u8(static_cast<std::uint8_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void raw(std::span<const std::uint8_t> bytes) noexcept;
  /// `n` bytes of `value`.
  void fill(std::size_t n, std::uint8_t value) noexcept;

  /// True once every payload byte has been handed out.
  [[nodiscard]] bool done() const noexcept { return payload_left_ == 0; }

 private:
  void open_record() noexcept;

  ContentType type_;
  std::uint16_t version_;
  net::Bytes& out_;
  std::size_t pos_;            // next write offset in out_
  std::size_t payload_left_;   // payload bytes not yet handed out
  std::size_t record_left_ = 0;  // of those, in the current record
};

/// Incremental record deframer: feed TCP payload bytes, pop whole records.
class RecordReader {
 public:
  void feed(std::span<const std::uint8_t> data);

  /// Next complete record, or nullopt if more bytes are needed.
  /// Sets malformed() and returns nullopt on a bad header.
  [[nodiscard]] std::optional<Record> next();

  [[nodiscard]] bool malformed() const noexcept { return malformed_; }
  [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  net::Bytes buffer_;
  bool malformed_ = false;
};

enum class AlertLevel : std::uint8_t { Warning = 1, Fatal = 2 };
enum class AlertDescription : std::uint8_t {
  CloseNotify = 0,
  HandshakeFailure = 40,
  ProtocolVersion = 70,
  InternalError = 80,
  UnrecognizedName = 112,
};

/// Two-byte alert payload inside an Alert record.
[[nodiscard]] net::Bytes encode_alert(AlertLevel level, AlertDescription description);
struct Alert {
  AlertLevel level;
  AlertDescription description;
};
[[nodiscard]] std::optional<Alert> decode_alert(std::span<const std::uint8_t> payload);

}  // namespace iwscan::tls
