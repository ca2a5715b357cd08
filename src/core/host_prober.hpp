// Per-host probe orchestration (§4 "Scan setup"):
//
//   * each host is probed three times per announced MSS, to detect tail
//     loss: the host counts as Success only if at least two probes agree
//     AND the agreed value is the maximum of all probes;
//   * the whole sequence runs twice, with MSS 64 and MSS 128, back-to-back
//     ("all six probes are sent after each other"), so byte-counted IWs
//     (§4.2) can be told apart from segment-counted ones;
//   * each probe may span several connections (HTTP redirect / long-URI
//     escalation, §3.2).
//
// A probe's request is a value written when the target answers: §3.2's
// IP-as-Host GET and its follow-ups, §5's curated-URL GET, or §3.3's
// ClientHello.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimator.hpp"
#include "core/result.hpp"
#include "scanner/direct_services.hpp"
#include "scanner/scan_engine.hpp"

namespace iwscan::core {

enum class ProbeProtocol { Http, Tls };

struct IwScanConfig {
  ProbeProtocol protocol = ProbeProtocol::Http;
  std::uint16_t port = 80;
  std::uint16_t mss_primary = 64;
  std::uint16_t mss_secondary = 128;  // 0 disables the dual-MSS pass
  int probes_per_mss = 3;
  // HTTP connection and redirect-hop budgets per probe (§3.2 follows exactly
  // one redirect). Raising them lets a probe walk longer chains — the only
  // way it reaches a loop's revisited URL (RedirectLoop).
  int max_connections = 2;
  int max_redirect_hops = 1;
  // Curated-URL mode (§5 future work): when curated_host is non-empty, HTTP
  // probes request "/" with this Host header, with no follow-up, instead of
  // the generic no-prior-knowledge GET — required for virtualized services.
  std::string curated_host;
};

class IwProbeModule;

/// §3.3's probe: a ClientHello with the 40-cipher browser-union list and an
/// OCSP status request, in one TLS 1.0 handshake record; the certificate
/// chain in the reply is the data source. `seed` draws the ClientHello
/// random. A non-empty `server_name` is carried as SNI (curated-SNI mode,
/// the TLS analogue of the §5 URL lists), required to reach per-vhost IW
/// configs on multi-tenant CDN edges; empty (no SNI) measures the
/// IP-as-Host window.
[[nodiscard]] net::Bytes client_hello(std::uint64_t seed, std::string_view server_name);

/// One target's probe sequence. A session whose SYN is still unanswered
/// holds only its counters and the current connection's SYN-phase state;
/// the request and the connection's evidence block are built when the
/// target first answers (DESIGN §10).
class HostProber final : public scan::ProbeSession, private IwEstimator::Owner {
 public:
  using RecordFn = std::function<void(const HostScanRecord&)>;

  /// Reads `module`'s config, record sink and evidence pool, which must
  /// outlive the prober.
  HostProber(scan::SessionServices& services, net::IPv4Address target,
             IwProbeModule& module, std::function<void()> finish);
  ~HostProber() override;

  void start() override;
  void on_datagram(const net::Datagram& datagram) override;
  void on_budget_exhausted(scan::BudgetKind kind) override;

 private:
  // Per-probe merged view over its connections.
  struct ProbeResult {
    std::uint64_t span_bytes = 0;
    std::uint32_t iw_estimate = 0;
    std::uint32_t lower_bound = 0;
    std::uint16_t max_segment = 0;
    ConnOutcome outcome = ConnOutcome::Error;
    bool fin_seen = false;
    bool reorder_seen = false;
    bool loss_holes = false;
  };
  // Aggregate over the 3 probes of one MSS pass.
  struct PassResult {
    HostOutcome outcome = HostOutcome::Error;
    std::uint32_t iw_segments = 0;
    std::uint64_t iw_bytes = 0;
    std::uint16_t observed_mss = 0;
    std::uint32_t lower_bound = 0;
    bool fin_seen = false;
    bool reorder_seen = false;
    bool loss_suspected = false;
  };

  // IwEstimator::Owner
  EvidencePool& evidence_pool() override;
  net::Bytes request() override;
  void connection_done(const ConnObservation& observation) override;

  // The Host and path of one redirect a probe followed.
  struct Redirect {
    std::string host;
    std::string path;
  };

  void begin_probe();
  void begin_connection();
  [[nodiscard]] bool follow_up(const ConnObservation& observation);
  [[nodiscard]] bool visited(std::string_view host, std::string_view path) const;
  void finish_probe();
  [[nodiscard]] PassResult aggregate_pass(std::span<const ProbeResult> probes) const;
  void finish_host();
  void emit(const HostScanRecord& record);

  scan::SessionServices& services_;
  IwProbeModule& module_;
  std::function<void()> finish_;
  // The redirects the current probe followed, oldest first; the last names
  // the next request's Host and path. Null until a probe follows a 301.
  std::unique_ptr<std::vector<Redirect>> redirects_;
  // Completed probes of both passes, primary first. Allocated when the
  // first probe completes: an unanswered target never needs it.
  std::unique_ptr<ProbeResult[]> probes_;
  // The current connection. Replaced only from the inter-connection
  // continuation, never while the previous estimator is on the stack.
  std::optional<IwEstimator> estimator_;
  sim::EventId continuation_ = sim::kNullEvent;
  // The TLS ClientHello seed, drawn when each probe begins so every
  // per-target draw keeps its order; the ClientHello is built from it later.
  std::uint64_t tls_seed_ = 0;
  ProbeResult current_probe_;
  net::IPv4Address target_;

  std::uint16_t probe_ = 0;           // within the pass
  std::uint16_t probes_done_ = 0;     // entries of probes_
  std::uint16_t primary_probes_ = 0;  // of which the primary pass's
  // The current probe's HTTP follow-ups, each one more connection: its
  // redirect hops and its long-URI retry.
  std::uint16_t redirect_hops_ = 0;
  std::uint8_t pass_ = 0;             // 0 = primary MSS, 1 = secondary
  std::uint8_t connections_used_ = 0;
  bool tried_long_uri_ = false;
  bool long_uri_path_ = false;  // requests carry the long URI until a 301 is followed
  bool current_probe_has_conn_ = false;
  bool first_connection_ = true;
  bool finished_ = false;
  // First anomaly observed across all connections of this host (wire-level
  // from the estimator, or a redirect loop the follow-ups ran into).
  ProbeAnomaly anomaly_ = ProbeAnomaly::None;
};

/// ProbeModule adapter so HostProber plugs into the ScanEngine. Owns what
/// its sessions share: the probe config, the record sink and the pool of
/// connection evidence blocks. Sessions refer to all three, so the module
/// must outlive them (and serve one event loop).
class IwProbeModule final : public scan::ProbeModule {
 public:
  IwProbeModule(IwScanConfig config, HostProber::RecordFn on_record)
      : config_(std::move(config)), on_record_(std::move(on_record)) {}

  std::unique_ptr<scan::ProbeSession> create_session(
      scan::SessionServices& services, net::IPv4Address target,
      std::function<void()> finish) override;

  [[nodiscard]] const IwScanConfig& config() const noexcept { return config_; }

 private:
  friend class HostProber;

  IwScanConfig config_;
  HostProber::RecordFn on_record_;
  EvidencePool evidence_;
};

/// One full HostProber session against `target` through `services`, run on
/// the services' loop until the host's record is in. Ports and session
/// seeds continue `services`' sequences, so a probe that must not depend on
/// earlier ones gets a fresh DirectServices.
[[nodiscard]] HostScanRecord probe_host(scan::DirectServices& services,
                                        net::IPv4Address target,
                                        const IwScanConfig& config);

}  // namespace iwscan::core
