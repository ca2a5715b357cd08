// Application-layer probe strategies: how to trigger a large-enough
// response from an unknown host (§3.2 HTTP, §3.3 TLS).
//
// One strategy instance drives one probe attempt, which may span multiple
// connections (HTTP follows a 301 redirect on a fresh connection, then
// falls back to a bloated URI that enlarges echoing 404 pages).
#pragma once

#include <memory>
#include <string>

#include "core/result.hpp"

namespace iwscan::core {

class ProbeStrategy {
 public:
  virtual ~ProbeStrategy() = default;

  /// Request payload for the next connection of this probe attempt.
  [[nodiscard]] virtual net::Bytes request() = 0;

  /// Inspect a concluded connection. Returns true if the strategy wants a
  /// follow-up connection (it has updated its internal state so the next
  /// request() reflects the new plan).
  [[nodiscard]] virtual bool wants_followup(const ConnObservation& observation) = 0;

  /// Application-layer pathology observed across this attempt's
  /// connections (e.g. a 301 redirect loop) — evidence the wire-level
  /// estimator cannot see. None unless the strategy detected one.
  [[nodiscard]] virtual ProbeAnomaly anomaly() const { return ProbeAnomaly::None; }
};

/// HTTP probe: GET / with the IP as Host → follow 301 → long-URI fallback,
/// within `max_connections` connections and `max_redirect_hops` redirects
/// (§3.2 follows exactly one; the visited-URL set still cuts loops).
[[nodiscard]] std::unique_ptr<ProbeStrategy> make_http_strategy(
    net::IPv4Address target, int max_connections, int max_redirect_hops);

/// TLS probe: ClientHello with the 40-cipher browser-union list and an OCSP
/// status request (§3.3); the certificate chain in the reply is the data
/// source. Single connection. `seed` draws the ClientHello random. Curated-SNI
/// mode (the TLS analogue of the §5 URL lists): a non-empty `server_name` is
/// carried as SNI, required to reach per-vhost IW configs on multi-tenant CDN
/// edges; empty (no SNI) measures the IP-as-Host window.
[[nodiscard]] std::unique_ptr<ProbeStrategy> make_tls_strategy(std::uint64_t seed,
                                                               std::string server_name);

/// Curated-URL probe (the future work of §5): with prior knowledge of a
/// valid host name (à la Padhye/Floyd and Medina et al. URL lists), request
/// its root page under that Host header — the only way to assess virtualized
/// per-customer services like Akamai's (§4.3). Single connection.
[[nodiscard]] std::unique_ptr<ProbeStrategy> make_url_list_strategy(
    std::string host_header);

}  // namespace iwscan::core
