#include "tls/cert.hpp"

#include <algorithm>

namespace iwscan::tls {

ChainLayout chain_layout(std::size_t total_bytes, std::string_view subject,
                         std::uint64_t seed) noexcept {
  total_bytes = std::max<std::size_t>(total_bytes, 8);
  ChainLayout layout;

  // Realistic splits: small totals are a lone (often self-signed) leaf;
  // mid-size chains are leaf + one intermediate; large ones add a second
  // intermediate. The leaf takes ~55% of the bytes, as in typical chains.
  if (total_bytes < 1200) {
    layout.slots[layout.count++] = {total_bytes, subject, seed};
    return layout;
  }
  const int intermediates = total_bytes >= 4200 ? 2 : 1;
  const std::size_t leaf = total_bytes * 55 / 100;
  std::size_t remaining = total_bytes - leaf;
  layout.slots[layout.count++] = {leaf, subject, seed};
  for (int i = 0; i < intermediates; ++i) {
    const std::size_t piece =
        i + 1 == intermediates ? remaining : remaining / 2;
    layout.slots[layout.count++] = {piece, "intermediate-ca",
                                    util::mix64(seed, 1000 + i)};
    remaining -= piece;
  }
  return layout;
}

void fill_draws(std::span<std::uint8_t> out, util::Rng& rng) noexcept {
  // A local copy of the generator: the byte stores cannot alias it, so its
  // state stays in registers across the draws.
  util::Rng local = rng;
  for (std::uint8_t& byte : out) byte = static_cast<std::uint8_t>(local());
  rng = local;
}

CertificateFiller::CertificateFiller(const CertificateSpec& spec) noexcept
    : size_(spec.size), rng_(util::mix64(spec.seed, spec.size)) {
  // DER outer frame: SEQUENCE (0x30) with definite long-form length so the
  // blob passes casual "is this DER?" inspection.
  const std::size_t content_len = size_ - header_.size();
  header_ = {0x30, 0x82,  // length in the next two bytes
             static_cast<std::uint8_t>(content_len >> 8),
             static_cast<std::uint8_t>(content_len)};
  subject_ = spec.subject.substr(0, std::min(spec.subject.size(), content_len));
}

void CertificateFiller::fill(std::span<std::uint8_t> out) noexcept {
  // The header and the subject hint, then deterministic filler.
  const std::size_t prefix = header_.size() + subject_.size();
  std::size_t i = 0;
  for (; i < out.size() && written_ < prefix; ++i, ++written_) {
    out[i] = written_ < header_.size()
                 ? header_[written_]
                 : static_cast<std::uint8_t>(subject_[written_ - header_.size()]);
  }
  fill_draws(out.subspan(i), rng_);
  written_ += out.size() - i;
}

// iwlint: allow(unreached) -- pins exact certificate size and DER framing
net::Bytes make_certificate(std::size_t size, std::string_view subject,
                            std::uint64_t seed) {
  size = std::max<std::size_t>(size, 8);
  net::Bytes cert(size);
  CertificateFiller({size, subject, seed}).fill(cert);
  return cert;
}

// iwlint: allow(unreached) -- composed reference for the in-place TLS first flight
CertificateChain make_chain(std::size_t total_bytes, std::string_view subject,
                            std::uint64_t seed) {
  CertificateChain chain;
  const ChainLayout layout = chain_layout(total_bytes, subject, seed);
  chain.certificates.reserve(layout.count);
  for (const CertificateSpec& spec : layout.certificates()) {
    chain.certificates.push_back(make_certificate(spec.size, spec.subject, spec.seed));
  }
  return chain;
}

}  // namespace iwscan::tls
