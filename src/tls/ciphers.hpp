// TLS 1.2 cipher-suite registry.
//
// The paper compiles a list of 40 cipher suites from Safari, Firefox and
// Chrome, enriched with suites seen in censys.io data (§3.3). We reproduce
// that list with real IANA code points so the ClientHello on the simulated
// wire is a faithful byte-level artifact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

namespace iwscan::tls {

using CipherSuite = std::uint16_t;

/// The 40-suite probe list (browser union + censys extras), strongest first.
[[nodiscard]] std::span<const CipherSuite> probe_cipher_list() noexcept;

/// Typical server-side support sets, used to populate host profiles.
enum class CipherProfile {
  Modern,    // ECDHE+AESGCM/ChaCha only
  Standard,  // modern + AES-CBC + RSA key exchange
  Legacy,    // old CBC/3DES/RC4-era suites
  Exotic,    // suites outside the probe list → handshake failure
};

/// The profile's suites: a static table, so a config can refer to it.
[[nodiscard]] std::span<const CipherSuite> cipher_set(CipherProfile profile) noexcept;

/// The first suite of `client_offer` the server supports, or 0 if none. The
/// offer is any range of suites in the client's order: the probe list, or a
/// ClientHello's suites read where they lie (tls::OfferedSuites).
template <class Offer>
[[nodiscard]] CipherSuite negotiate(const Offer& client_offer,
                                    std::span<const CipherSuite> server_set) noexcept {
  for (const CipherSuite offered : client_offer) {
    if (std::ranges::find(server_set, offered) != server_set.end()) return offered;
  }
  return 0;
}

}  // namespace iwscan::tls
