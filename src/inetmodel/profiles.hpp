// Host ground truth: a pure, deterministic function (registry, config, ip) →
// everything about the host at that address. Because it is pure, the
// simulator can materialize hosts lazily during a scan, and the analysis /
// validation code can recompute the truth for any address without storing
// millions of records.
#pragma once

#include <optional>
#include <string>

#include "inetmodel/adversarial.hpp"
#include "inetmodel/as_registry.hpp"
#include "netbase/ipv4.hpp"
#include "tcpstack/config.hpp"

namespace iwscan::model {

struct GroundTruth {
  bool present = false;  // something answers at this address
  bool http = false;     // port 80 open
  bool tls = false;      // port 443 open
  const AsInfo* as = nullptr;
  bool popular = false;  // inside the AS's Alexa-style sub-block

  tcp::OsProfile os = tcp::OsProfile::Linux;
  tcp::IwConfig http_iw;
  tcp::IwConfig tls_iw;

  HttpCategory http_category = HttpCategory::SuccessDirect;
  std::uint32_t few_bound = 0;     // HTTP FewData target (segments at 64 B)
  std::size_t http_page_bytes = 0; // body size of the canonical page
  std::size_t redirect_page_bytes = 0;
  std::string canonical_name;

  TlsCategory tls_category = TlsCategory::Normal;
  std::size_t chain_bytes = 0;
  bool ocsp_staple = false;

  std::string rdns;  // empty if no PTR record
  std::uint32_t path_mtu = 1500;
  std::uint32_t latency_us = 40'000;  // one-way, microseconds

  // Hostile-stack overlay: when set, the modeled daemons above are replaced
  // by the named pathology (see inetmodel/adversarial.hpp).
  std::optional<AdversarialBehavior> adversary;

  // CDN overlay (modern-stack follow-up). Tier 0 = not overlaid; tiers
  // 1/2/3 map to the IW16/IW32/IW50 (or 16/24/32 KiB byte-budget) plans.
  // When the vhost configs are set, the edge serves a *different* IwConfig
  // for requests naming the canonical host (Host header / SNI) than for
  // IP-as-Host probes — the per-vhost split real CDNs exhibit.
  std::uint8_t cdn_tier = 0;
  std::optional<tcp::IwConfig> http_vhost_iw;
  std::optional<tcp::IwConfig> tls_vhost_iw;

  /// True IW in segments for a protocol, under an announced MSS, given the
  /// host's OS clamping — the value a perfect estimator should measure.
  /// `vhost` selects the per-vhost config (requests that name the canonical
  /// host); it falls back to the default config when the host has no split.
  [[nodiscard]] std::uint32_t true_iw_segments(bool for_tls,
                                               std::uint16_t announced_mss,
                                               bool vhost = false) const;
};

/// The simulated world's parameters: its size and seed, path impairments,
/// and the three overlays the ground truth layers on the paper's snapshot.
struct ModelConfig {
  // The scale_log2 range the synthetic population supports.
  static constexpr int kMinScaleLog2 = 12;
  static constexpr int kMaxScaleLog2 = 24;
  int scale_log2 = 18;       // universe of 2^N addresses (default 256 Ki)
  std::uint64_t seed = 42;
  double loss_rate = 0.002;  // per-packet, per-direction
  double reorder_rate = 0.003;
  double duplicate_rate = 0.0;
  // Hostile-stack overlay: this fraction of present hosts swap their modeled
  // daemons for a pathology from inetmodel/adversarial.hpp. Drawn from a
  // dedicated RNG stream, so 0.0 reproduces pre-overlay worlds exactly.
  double adversarial_fraction = 0.0;
  // Longitudinal drift (the §5 trend-monitoring extension): each epoch,
  // 6 % of the legacy-IW Linux hosts still waiting upgrade to IW 10
  // (kernel/distro updates — the mechanism the paper names for the slow
  // IW10 adoption). Upgrades are deterministic per host and monotone
  // across epochs.
  int epoch = 0;
  // CDN overlay (modern-stack follow-up): this fraction of present web hosts
  // inside CDN-eligible ASes become tiered large-IW edges (paced first
  // flights, per-vhost splits). Dedicated RNG stream: 0.0 reproduces
  // pre-overlay worlds exactly. Tier drift shares `epoch` above: each step
  // up a tier lands after a geometric wait at 8 % per epoch.
  double cdn_fraction = 0.0;
};

/// Synthesize the ground truth for one address. Pure in (config, ip), of
/// which it reads the seed and the drift and overlay fields; upgrades are
/// monotone in the epoch (a host never downgrades).
[[nodiscard]] GroundTruth synthesize_host(const AsRegistry& registry,
                                          const ModelConfig& config,
                                          net::IPv4Address ip);

}  // namespace iwscan::model
