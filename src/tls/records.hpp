// TLS record layer (RFC 5246 §6.2): framing only, no encryption — the scan
// never progresses past the server's first flight, which is plaintext.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

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

/// The record at the front of a TCP byte stream, framed where it lies.
struct RecordFrame {
  enum class Status : std::uint8_t { NeedMore, Complete, Malformed };

  Status status = Status::NeedMore;
  ContentType type = ContentType::Handshake;
  std::uint16_t version = 0;
  std::span<const std::uint8_t> payload;  // a view into the framed bytes

  /// Wire bytes of a Complete record: its header and payload.
  [[nodiscard]] std::size_t size() const noexcept {
    return kRecordHeaderBytes + payload.size();
  }
};

/// Frames the first record of `stream` without copying it: NeedMore until
/// its header and payload are all there; Malformed on a content type the
/// record layer does not define or a length beyond kMaxRecordPayload + 256.
[[nodiscard]] RecordFrame frame_record(std::span<const std::uint8_t> stream) noexcept;

enum class AlertLevel : std::uint8_t { Warning = 1, Fatal = 2 };
enum class AlertDescription : std::uint8_t {
  CloseNotify = 0,
  HandshakeFailure = 40,
  ProtocolVersion = 70,
  InternalError = 80,
  UnrecognizedName = 112,
};

/// A fatal alert as the one record a server sends it in: Alert, TLS 1.2,
/// length 2, then the level and the description.
[[nodiscard]] constexpr std::array<std::uint8_t, 7> fatal_alert_record(
    AlertDescription description) noexcept {
  return {static_cast<std::uint8_t>(ContentType::Alert),
          static_cast<std::uint8_t>(kTls12 >> 8),
          static_cast<std::uint8_t>(kTls12),
          0,
          2,
          static_cast<std::uint8_t>(AlertLevel::Fatal),
          static_cast<std::uint8_t>(description)};
}

}  // namespace iwscan::tls
