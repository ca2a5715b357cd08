// Synthetic autonomous-system registry.
//
// Stands in for the real AS topology (DESIGN.md §2): ~30 ASes modeled on
// the networks the paper names (Amazon, Akamai, Cloudflare, Azure, GoDaddy,
// Comcast, Telmex, Vodafone IT, Korea Telecom, universities, national
// backbones, …), each with CIDR prefixes carved from a configurable
// universe and an *archetype* describing its host population:
// IW mixes per protocol (Table 3 anchors), HTTP response behaviours
// (§3.2), TLS policies (§3.3), OS shares, and reverse-DNS style.
//
// Every AS's first prefix reserves a small "popular" sub-block whose hosts
// use the Alexa-style mix (Fig. 4): popularity is thus decidable from the
// IP alone, keeping host synthesis a pure function.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netbase/ipv4.hpp"
#include "tcpstack/config.hpp"
#include "tls/ciphers.hpp"

namespace iwscan::model {

enum class AsKind {
  Cloud,
  Cdn,
  Hoster,
  Isp,        // transit/eyeball ISP with legacy server population
  Access,     // residential access network (CPE devices)
  University,
  Backbone,
  Enterprise,
};

[[nodiscard]] std::string_view to_string(AsKind kind) noexcept;

/// One entry of an initial-window mix.
struct IwMixEntry {
  tcp::IwConfig iw;
  double weight = 0;
};

/// HTTP response-behaviour categories (observable classes from §3.2/§4.1).
enum class HttpCategory {
  SuccessDirect,    // "/" serves a page larger than any plausible IW
  SuccessRedirect,  // 301 to a canonical name; the target page is large
  SuccessEcho,      // 404 that echoes the URI; the long-URI retry succeeds
  FewData,          // response sized below the IW → lower bound only
  NoData,           // accepts the connection, never sends a byte
  Abort,            // resets when the request arrives (Table 1 "Error")
};

/// TLS host behaviour categories (§3.3, Table 2 discussion).
enum class TlsCategory {
  Normal,        // first flight with a censys-distributed cert chain
  SniAlert,      // fatal unrecognized_name without SNI → ~1 segment
  SniSilent,     // closes silently without SNI → NoData
  ExoticCipher,  // no suite in common → handshake_failure alert
  Abort,         // resets on ClientHello (Table 1 "Error")
};

struct HttpArchetype {
  std::vector<IwMixEntry> iw_mix;
  // Category weights (normalized at draw time).
  double success_direct = 0.28;
  double success_redirect = 0.13;
  double success_echo = 0.10;
  double few_data = 0.45;
  double no_data = 0.023;
  double abort = 0.016;
  // Few-data lower-bound targets: weight of bound k at index k (index 0
  // unused; NoData is its own category). Defaults to the global Table 2
  // anchored distribution when empty.
  std::vector<double> few_bound_weights;
};

struct TlsArchetype {
  std::vector<IwMixEntry> iw_mix;
  double sni_alert = 0.075;
  double sni_silent = 0.024;
  double exotic_cipher = 0.008;
  double abort = 0.011;
  double ocsp_staple = 0.30;  // of normal hosts (2017-era stapling share)
  tls::CipherProfile ciphers = tls::CipherProfile::Standard;
};

struct AsArchetype {
  double host_density = 0.25;  // P(an address in the prefix hosts anything)
  double p_http_only = 0.55;   // given a host is present
  double p_tls_only = 0.25;
  double p_both = 0.20;
  double windows_share = 0.10;
  double rdns_present = 0.70;
  double rdns_ip_encoded = 0.40;  // of hosts with rDNS
  std::string rdns_tag;           // domain label, e.g. "comcastline"
  bool rdns_is_isp = false;       // appears on the access-classifier lists
  HttpArchetype http;
  TlsArchetype tls;

  // CDN overlay eligibility (the 2019 follow-up; see
  // ModelConfig::cdn_fraction in profiles.hpp). Relative weights for the IW16/IW32/IW50 tiers assigned
  // to overlaid hosts — all-zero means the AS never hosts a CDN edge and
  // the overlay skips it entirely. Popular sub-blocks bias toward the
  // higher tiers (popularity-weighted IW, Fig. 4 style).
  std::array<double, 3> cdn_tier_weights{0.0, 0.0, 0.0};
  double cdn_paced_share = 0.0;      // of overlaid hosts: paced first flight
  double cdn_byte_tier_share = 0.0;  // of overlaid hosts: byte-budget tiers
  double cdn_vhost_share = 0.0;      // of overlaid hosts: per-vhost IW split

  [[nodiscard]] bool cdn_eligible() const noexcept {
    return cdn_tier_weights[0] + cdn_tier_weights[1] + cdn_tier_weights[2] > 0.0;
  }
};

struct AsInfo {
  std::uint32_t asn = 0;
  std::string name;
  AsKind kind;
  std::vector<net::Cidr> prefixes;
  std::optional<net::Cidr> popular_prefix;  // Alexa-style sub-block
  AsArchetype archetype;
  AsArchetype popular_archetype;  // used inside popular_prefix
  std::string service_tag;        // "akamai", "ec2", "cloudflare", "azure", ""
};

class AsRegistry {
 public:
  /// Build the standard registry in a universe of 2^scale_log2 addresses
  /// starting at 10.0.0.0 (scale_log2 within ModelConfig's kMinScaleLog2..
  /// kMaxScaleLog2, [12, 24]; default 20 ≈ 1M).
  [[nodiscard]] static AsRegistry standard(int scale_log2 = 20);

  [[nodiscard]] const std::vector<AsInfo>& all() const noexcept { return ases_; }
  [[nodiscard]] const AsInfo* find(net::IPv4Address addr) const noexcept;
  [[nodiscard]] const AsInfo* by_name(std::string_view name) const noexcept;

  /// Allowlist for a full scan: every AS prefix.
  [[nodiscard]] std::vector<net::Cidr> scan_space() const;
  /// Allowlist for the Alexa-style scan: the popular sub-blocks.
  [[nodiscard]] std::vector<net::Cidr> popular_space() const;
  /// Total addresses in scan_space().
  [[nodiscard]] std::uint64_t scan_space_size() const noexcept;

 private:
  struct Range {
    std::uint32_t start;
    std::uint32_t end;  // inclusive
    std::size_t as_index;
  };

  void index_ranges();

  std::vector<AsInfo> ases_;
  std::vector<Range> ranges_;  // sorted by start
};

/// The global Table-2-anchored few-data lower-bound weights (index = bound).
[[nodiscard]] const std::vector<double>& default_few_bound_weights();

}  // namespace iwscan::model
