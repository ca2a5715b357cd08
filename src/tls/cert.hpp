// Synthetic certificate generation.
//
// The scan only measures *bytes on the wire*, never validates trust, so the
// certificates are deterministic DER-shaped blobs (valid outer SEQUENCE
// framing, pseudo-random body) whose sizes follow the censys.io chain-length
// statistics the paper reports (Fig. 2): mean 2186 B, min 36 B, max 65 kB.
//
// A chain is a layout (how many certificates, their sizes and seeds) plus a
// filler per certificate. The server's first flight writes the certificates
// in place from the same two pieces that make_chain uses.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "tls/handshake.hpp"
#include "util/rng.hpp"

namespace iwscan::tls {

/// One certificate of a chain: its size and what its bytes derive from.
struct CertificateSpec {
  std::size_t size = 0;  // ≥ 8
  std::string_view subject;
  std::uint64_t seed = 0;
};

/// The certificates of a chain of `total_bytes` (≥ 8), leaf first. Their
/// sizes sum to max(total_bytes, 8).
struct ChainLayout {
  std::array<CertificateSpec, 3> slots{};
  std::size_t count = 0;

  [[nodiscard]] std::span<const CertificateSpec> certificates() const noexcept {
    return {slots.data(), count};
  }
};
[[nodiscard]] ChainLayout chain_layout(std::size_t total_bytes, std::string_view subject,
                                       std::uint64_t seed) noexcept;

/// Writes one draw of `rng` per byte of `out`.
void fill_draws(std::span<std::uint8_t> out, util::Rng& rng) noexcept;

/// Writes one certificate's bytes in order, in as many pieces as the caller
/// needs (a TLS record boundary may split a certificate): the DER SEQUENCE
/// header, the subject hint, then one draw per remaining byte.
class CertificateFiller {
 public:
  explicit CertificateFiller(const CertificateSpec& spec) noexcept;

  /// Writes the next out.size() bytes; out.size() ≤ remaining().
  void fill(std::span<std::uint8_t> out) noexcept;
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - written_; }

 private:
  std::array<std::uint8_t, 4> header_{};
  std::string_view subject_;  // the part of the hint that fits
  std::size_t size_;
  std::size_t written_ = 0;
  util::Rng rng_;
};

/// One DER-shaped certificate of exactly max(size, 8) bytes, with the
/// subject hint embedded for debuggability.
[[nodiscard]] net::Bytes make_certificate(std::size_t size, std::string_view subject,
                                          std::uint64_t seed);

/// The chain chain_layout describes, one certificate blob each.
[[nodiscard]] CertificateChain make_chain(std::size_t total_bytes,
                                          std::string_view subject, std::uint64_t seed);

}  // namespace iwscan::tls
