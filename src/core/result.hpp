// Result records for IW probing, at connection, probe and host granularity.
#pragma once

#include <cstdint>
#include <string_view>

#include "netbase/ipv4.hpp"
#include "netbase/wire.hpp"

namespace iwscan::core {

/// Outcome of a single estimation connection (Fig. 1 run).
enum class ConnOutcome : std::uint8_t {
  Unreachable,  // no SYN/ACK before timeout
  Refused,      // RST in answer to our SYN (port closed)
  Success,      // first-segment retransmission seen AND ACK release produced
                // new data → the sender was genuinely IW-limited
  FewData,      // response ended (FIN) or no data followed the ACK release:
                // the IW may not have been filled; only a lower bound holds
  NoData,       // handshake fine but zero payload bytes arrived
  Error,        // RST mid-exchange, malformed data, or timeout w/o retransmit
};

[[nodiscard]] constexpr std::string_view to_string(ConnOutcome outcome) noexcept {
  switch (outcome) {
    case ConnOutcome::Unreachable: return "unreachable";
    case ConnOutcome::Refused: return "refused";
    case ConnOutcome::Success: return "success";
    case ConnOutcome::FewData: return "few-data";
    case ConnOutcome::NoData: return "no-data";
    case ConnOutcome::Error: return "error";
  }
  return "?";
}

/// Hostile-stack taxonomy (§5 anomalous stacks; DESIGN.md §11). A probe
/// that trips one of these is still classified into a ConnOutcome — the
/// anomaly records *why* the exchange degenerated so reports can count
/// pathologies per class instead of folding them into Timeout/Few-Data.
enum class ProbeAnomaly : std::uint8_t {
  None,
  Tarpit,               // SYN/ACK then total silence; request never ACKed
  ZeroWindow,           // request ACKed but receive window pinned at zero
  MssViolation,         // segment larger than the announced MSS
  NoRetransmit,         // data but no RTO retransmission of the first segment
  MidStreamRst,         // RST after data had started flowing
  RedirectLoop,         // 301 chain exceeded the hop budget / revisited a URL
  Slowloris,            // bytes tricking in with long gaps between segments
  EarlyFin,             // FIN before any payload byte
  TlsFatalAlert,        // TLS fatal alert instead of a ServerHello
  ShrinkingRetransmit,  // partially-overlapping / shrinking retransmissions
  BudgetExceeded,       // engine killed the session (wall/bytes/segments)
  PacedDelivery,        // first flight trickled across the RTO window (CDN
                        // pacing): the burst count is a lower bound only
};

[[nodiscard]] constexpr std::string_view to_string(ProbeAnomaly anomaly) noexcept {
  switch (anomaly) {
    case ProbeAnomaly::None: return "none";
    case ProbeAnomaly::Tarpit: return "tarpit";
    case ProbeAnomaly::ZeroWindow: return "zero-window";
    case ProbeAnomaly::MssViolation: return "mss-violation";
    case ProbeAnomaly::NoRetransmit: return "no-retransmit";
    case ProbeAnomaly::MidStreamRst: return "mid-stream-rst";
    case ProbeAnomaly::RedirectLoop: return "redirect-loop";
    case ProbeAnomaly::Slowloris: return "slowloris";
    case ProbeAnomaly::EarlyFin: return "early-fin";
    case ProbeAnomaly::TlsFatalAlert: return "tls-fatal-alert";
    case ProbeAnomaly::ShrinkingRetransmit: return "shrinking-retransmit";
    case ProbeAnomaly::BudgetExceeded: return "budget-exceeded";
    case ProbeAnomaly::PacedDelivery: return "paced-delivery";
  }
  return "?";
}

/// Everything one estimation connection observed.
struct ConnObservation {
  ConnOutcome outcome = ConnOutcome::Unreachable;
  std::uint32_t segments = 0;      // distinct data segments before retransmit
  std::uint64_t span_bytes = 0;    // highest received seq − first data seq
  std::uint16_t max_segment = 0;   // observed maximum segment size (§3.1)
  std::uint32_t iw_estimate = 0;   // segments, span/max_segment rounded
  bool fin_seen = false;
  bool reorder_seen = false;
  bool loss_holes = false;         // unfilled sequence holes at conclusion
  bool verify_new_data = false;    // data released by the 2·MSS-window ACK
  ProbeAnomaly anomaly = ProbeAnomaly::None;
  bool zero_window_seen = false;   // any segment advertised window 0
  bool mss_violation = false;      // any payload exceeded the announced MSS
  bool overlap_seen = false;       // partially-overlapping retransmission
  net::Bytes prefix;               // in-order payload prefix (capped)
};

/// Final per-host classification, matching the paper's Table 1 buckets.
enum class HostOutcome {
  Unreachable,  // excluded from the "reachable" denominators
  Success,
  FewData,
  Error,
};

[[nodiscard]] constexpr std::string_view to_string(HostOutcome outcome) noexcept {
  switch (outcome) {
    case HostOutcome::Unreachable: return "unreachable";
    case HostOutcome::Success: return "success";
    case HostOutcome::FewData: return "few-data";
    case HostOutcome::Error: return "error";
  }
  return "?";
}

struct HostScanRecord {
  net::IPv4Address ip;
  HostOutcome outcome = HostOutcome::Unreachable;

  // Success fields (primary announced MSS, normally 64 B).
  std::uint32_t iw_segments = 0;
  std::uint64_t iw_bytes = 0;
  std::uint16_t observed_mss = 0;

  // FewData lower bound in segments; 0 means no data at all (Table 2
  // "NoData" column).
  std::uint32_t lower_bound = 0;

  // Secondary-MSS success values (0 if not measured / not successful);
  // used for the §4.2 byte-limit analysis.
  std::uint32_t iw_segments_b = 0;
  std::uint64_t iw_bytes_b = 0;
  std::uint16_t observed_mss_b = 0;

  bool fin_seen = false;
  bool reorder_seen = false;
  bool loss_suspected = false;
  ProbeAnomaly anomaly = ProbeAnomaly::None;
  std::uint8_t probes_run = 0;
  std::uint8_t connections_used = 0;

  /// Field-wise equality — the byte-identity contract of sharded scans
  /// (exec::run_scan) is pinned against this.
  [[nodiscard]] friend bool operator==(const HostScanRecord&,
                                       const HostScanRecord&) = default;

  [[nodiscard]] bool success() const noexcept {
    return outcome == HostOutcome::Success;
  }
  /// §4.2 classification: a host whose IW is a byte budget sends half the
  /// segments when the announced MSS doubles (same byte total).
  [[nodiscard]] bool byte_limited() const noexcept {
    return iw_segments_b != 0 && iw_segments != 0 &&
           iw_segments != iw_segments_b && iw_bytes == iw_bytes_b;
  }
};

}  // namespace iwscan::core
