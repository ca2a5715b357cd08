// Configuration for a simulated TLS host (separated from tls_server.hpp so
// the Internet model can describe hosts without pulling in the app logic).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "tcpstack/config.hpp"
#include "tls/ciphers.hpp"

namespace iwscan::tls {

enum class SniPolicy {
  Ignore,        // serves the default certificate without SNI
  AlertAndClose, // fatal unrecognized_name alert, then close
  SilentClose,   // FIN immediately, zero application bytes (Table 2 NoData)
};

struct TlsConfig {
  SniPolicy sni_policy = SniPolicy::Ignore;
  // Refers to a cipher_set table (or other storage that outlives the
  // config): every accepted connection derives a config, so no copy.
  std::span<const CipherSuite> supported_ciphers = cipher_set(CipherProfile::Standard);
  std::size_t chain_bytes = 2186;  // total certificate bytes (Fig. 2 mean)
  bool ocsp_staple = false;        // adds a CertificateStatus message
  std::string server_name;         // certificate subject hint
  std::uint64_t seed = 0;
  // Per-vhost IW split (CDN edges): a ClientHello whose SNI names
  // `server_name` is answered with this IwConfig instead of the listener's
  // default — applied before the ServerHello flight, so SNI-less probing
  // measures a different window than named probing.
  std::optional<tcp::IwConfig> sni_iw;
};

}  // namespace iwscan::tls
