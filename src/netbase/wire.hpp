// Big-endian wire readers/writers shared by all codecs (IP/TCP/TLS/HTTP
// framing). Header-only; every access is bounds-checked on the read side.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace iwscan::net {

using Bytes = std::vector<std::uint8_t>;

/// Appends big-endian fields to a growing byte vector.
class WireWriter {
 public:
  explicit WireWriter(Bytes& out) noexcept : out_(out) {}

  // u8 and raw are the only append primitives (u16/u24/u32 route through
  // u8), so they carry this file's hot-path suppressions: encoders write
  // into caller-provided pooled buffers whose capacity is reused across
  // packets, so the growth idiom never allocates in steady state.
  // iwlint: allow(hot-path) -- appends into the caller's pooled buffer;
  // capacity reuse is pinned by alloc_budget_test
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u24(std::uint32_t v) {
    u8(static_cast<std::uint8_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void raw(std::span<const std::uint8_t> bytes) {
    // iwlint: allow(hot-path) -- bulk append into the caller's pooled buffer
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }
  void raw(std::string_view text) {
    // iwlint: allow(hot-path) -- bulk append into the caller's pooled buffer
    out_.insert(out_.end(), text.begin(), text.end());
  }

  /// Current write offset, for later patch_u16 (length fields).
  [[nodiscard]] std::size_t offset() const noexcept { return out_.size(); }

  void patch_u16(std::size_t at, std::uint16_t v) {
    check_patch(at, 2);
    out_[at] = static_cast<std::uint8_t>(v >> 8);
    out_[at + 1] = static_cast<std::uint8_t>(v);
  }

 private:
  // A patch may only rewrite bytes that were already written; an offset
  // reserved with offset() before the field was emitted would silently
  // scribble past the vector otherwise. The exception is the check itself
  // (callers and fuzz drivers recover from it); an assert would be dead
  // under NDEBUG and would turn the recoverable error into an abort.
  void check_patch(std::size_t at, std::size_t len) const {
    if (at > out_.size() || len > out_.size() - at) {
      // iwlint: allow(hot-path) -- audited failure path: an out-of-range
      // patch is a programming error, and fuzz drivers recover via catch
      throw std::out_of_range("WireWriter: patch offset past end of written bytes");
    }
  }

  Bytes& out_;
};

/// Bounds-checked big-endian reader. All accessors return nullopt past end;
/// ok() stays false afterwards so callers can batch-check once.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  std::uint8_t u8() noexcept {
    if (!require(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() noexcept {
    if (!require(2)) return 0;
    const std::uint16_t v =
        static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u24() noexcept {
    if (!require(3)) return 0;
    const std::uint32_t v = (std::uint32_t{data_[pos_]} << 16) |
                            (std::uint32_t{data_[pos_ + 1]} << 8) | data_[pos_ + 2];
    pos_ += 3;
    return v;
  }
  std::uint32_t u32() noexcept {
    const std::uint32_t hi = u16();
    const std::uint32_t lo = u16();
    return (hi << 16) | lo;
  }
  std::span<const std::uint8_t> raw(std::size_t n) noexcept {
    if (!require(n)) return {};
    const auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }
  void skip(std::size_t n) noexcept {
    if (require(n)) pos_ += n;
  }

  /// The sanctioned bounds guard: true iff `n` more bytes are available.
  /// Public so parsers can pre-validate an attacker-derived length before
  /// using it to size containers or slice spans — iwlint's wire-taint rule
  /// recognizes require() as the sanitizer for exactly that flow.
  /// Overflow-safe: pos_ <= data_.size() is an invariant, so the
  /// subtraction cannot wrap, whereas `pos_ + n` could for hostile n.
  bool require(std::size_t n) noexcept {
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Convenience conversion for embedding ASCII payloads.
[[nodiscard]] inline Bytes to_bytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}
[[nodiscard]] inline std::string to_string(std::span<const std::uint8_t> bytes) {
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace iwscan::net
