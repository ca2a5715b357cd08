// Host TCP stack configuration: OS MSS-clamping profiles and initial-window
// policies.
//
// These knobs span every sender behaviour the paper observes in the wild:
//   * segment-counted IWs (RFC 2001/2414/3390/6928: 1, 2, 4, 10, vendor
//     values like 25, 48, 64),
//   * byte-counted IWs (§4.2: hosts that always send ~4 kB — Technicolor
//     modems at Telmex — so 64 segments at MSS 64 but 32 at MSS 128),
//   * MTU-fill IWs (§4.2: hosts summing to 1536 B: 24 segments at MSS 64,
//     12 at MSS 128),
//   * OS minimum-MSS rules (§3.1: Linux rejects MSS < 64; all tested
//     Windows variants fall back to 536 when the announced MSS is smaller).
#pragma once

#include <algorithm>
#include <cstdint>

namespace iwscan::tcp {

enum class OsProfile {
  Linux,    // accepts MSS >= 64; below that clamps to 64
  Windows,  // announced MSS < 536 → uses 536
};

/// Effective segment size a host uses toward a peer that announced
/// `announced_mss`, given the host's own upper limit (interface MTU - 40).
[[nodiscard]] constexpr std::uint16_t effective_mss(OsProfile os,
                                                    std::uint16_t announced_mss,
                                                    std::uint16_t own_limit) noexcept {
  std::uint16_t mss = announced_mss;
  switch (os) {
    case OsProfile::Linux:
      mss = std::max<std::uint16_t>(mss, 64);
      break;
    case OsProfile::Windows:
      if (mss < 536) mss = 536;
      break;
  }
  return std::min(mss, own_limit);
}

enum class IwPolicy {
  Segments,  // cwnd_0 = segments × MSS (the RFC family and vendor variants)
  Bytes,     // cwnd_0 = fixed byte budget regardless of MSS (§4.2 hosts)
};

enum class PacingMode : std::uint8_t {
  Burst,  // whole initial window back-to-back (the paper's §3 assumption)
  Paced,  // first flight spread over a fraction of the handshake RTT
};

/// First-flight delivery policy. CDN edge stacks ("Demystifying TCP Initial
/// Window Configurations of CDNs") pace the initial window across the RTT
/// instead of bursting it, which removes the clean burst the
/// count-bytes-before-RTO method relies on. The schedule itself is built by
/// build_pacing_schedule() (pacing.hpp) from a per-connection seed, so a
/// paced host's wire behaviour is bit-reproducible.
struct PacingPolicy {
  PacingMode mode = PacingMode::Burst;
  // Fraction of the measured handshake RTT the first flight is spread over,
  // in percent (100 = one full RTT). The schedule is additionally capped at
  // 9/10 of the sender's RTO so pacing never trips its own retransmit timer.
  std::uint32_t spread_rtt_percent = 100;
  // Seeded per-gap jitter amplitude in percent of the nominal gap (0 =
  // perfectly even spacing).
  std::uint32_t jitter_percent = 10;

  [[nodiscard]] constexpr bool paced() const noexcept {
    return mode == PacingMode::Paced;
  }
  friend constexpr bool operator==(const PacingPolicy&,
                                   const PacingPolicy&) = default;
};

struct IwConfig {
  IwPolicy policy = IwPolicy::Segments;
  std::uint32_t segments = 10;  // used when policy == Segments
  std::uint32_t bytes = 4096;   // used when policy == Bytes
  PacingPolicy pacing{};        // how the first flight leaves the host

  [[nodiscard]] constexpr std::uint32_t initial_cwnd(std::uint16_t mss) const noexcept {
    if (policy == IwPolicy::Bytes) return std::max(bytes, std::uint32_t{mss});
    return segments * mss;
  }

  [[nodiscard]] static constexpr IwConfig segments_of(std::uint32_t n) noexcept {
    return IwConfig{IwPolicy::Segments, n, 0};
  }
  [[nodiscard]] static constexpr IwConfig bytes_of(std::uint32_t n) noexcept {
    return IwConfig{IwPolicy::Bytes, 0, n};
  }

  // CDN-scale presets from the follow-up study: segment tiers IW16/32/50
  // and byte-budget tiers (edge configs that provision the first flight in
  // kilobytes, like the §4.2 byte-counted hosts but far larger).
  [[nodiscard]] static constexpr IwConfig iw16() noexcept { return segments_of(16); }
  [[nodiscard]] static constexpr IwConfig iw32() noexcept { return segments_of(32); }
  [[nodiscard]] static constexpr IwConfig iw50() noexcept { return segments_of(50); }
  [[nodiscard]] static constexpr IwConfig byte_tier_kib(std::uint32_t kib) noexcept {
    return bytes_of(kib * 1024);
  }

  /// Copy of this config with a paced first flight.
  [[nodiscard]] constexpr IwConfig paced_over(
      std::uint32_t spread_rtt_percent, std::uint32_t jitter_percent = 10) const noexcept {
    IwConfig out = *this;
    out.pacing = PacingPolicy{PacingMode::Paced, spread_rtt_percent, jitter_percent};
    return out;
  }

  friend constexpr bool operator==(const IwConfig&, const IwConfig&) = default;
};

/// What a simulated host varies: its OS clamping rule, its IW and its own
/// MSS limit. The timers and the advertised window every host shares are
/// constants of TcpConnection.
struct StackConfig {
  OsProfile os = OsProfile::Linux;
  IwConfig iw = IwConfig::segments_of(10);
  std::uint16_t own_mss_limit = 1460;  // own interface MTU - 40
};
// Every materialized host holds one and each connection a copy: a field
// added here shows up in review.
static_assert(sizeof(StackConfig) == 32);

}  // namespace iwscan::tcp
