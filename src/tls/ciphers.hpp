// TLS 1.2 cipher-suite registry.
//
// The paper compiles a list of 40 cipher suites from Safari, Firefox and
// Chrome, enriched with suites seen in censys.io data (§3.3). We reproduce
// that list with real IANA code points so the ClientHello on the simulated
// wire is a faithful byte-level artifact.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace iwscan::tls {

using CipherSuite = std::uint16_t;

/// The 40-suite probe list (browser union + censys extras), strongest first.
[[nodiscard]] std::span<const CipherSuite> probe_cipher_list() noexcept;

/// Human-readable suite name ("TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"),
/// or "0xXXXX" if unregistered.
[[nodiscard]] std::string cipher_name(CipherSuite suite);

/// Typical server-side support sets, used to populate host profiles.
enum class CipherProfile {
  Modern,    // ECDHE+AESGCM/ChaCha only
  Standard,  // modern + AES-CBC + RSA key exchange
  Legacy,    // old CBC/3DES/RC4-era suites
  Exotic,    // suites outside the probe list → handshake failure
};

/// The profile's suites: a static table, so a config can refer to it.
[[nodiscard]] std::span<const CipherSuite> cipher_set(CipherProfile profile) noexcept;

/// First probe-list suite supported by the server, or 0 if none.
[[nodiscard]] CipherSuite negotiate(std::span<const CipherSuite> client_offer,
                                    std::span<const CipherSuite> server_set) noexcept;

}  // namespace iwscan::tls
