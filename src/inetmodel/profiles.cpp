#include "inetmodel/profiles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <string_view>

#include "httpd/http_message.hpp"
#include "inetmodel/censys_certs.hpp"
#include "util/rng.hpp"

namespace iwscan::model {
namespace {

tcp::IwConfig draw_iw(const std::vector<IwMixEntry>& mix, util::Rng& rng) {
  if (mix.empty()) return tcp::IwConfig::segments_of(10);
  double total = 0;
  for (const auto& entry : mix) total += entry.weight;
  double pick = rng.uniform01() * total;
  for (const auto& entry : mix) {
    if (pick < entry.weight) return entry.iw;
    pick -= entry.weight;
  }
  return mix.back().iw;
}

/// Smallest standard segment-IW ≥ bound (used so a few-data host's true IW
/// is consistent with the data it manages to send).
std::uint32_t standard_iw_at_least(std::uint32_t bound) {
  for (const std::uint32_t candidate : {1u, 2u, 4u, 10u, 16u, 32u, 64u}) {
    if (candidate >= bound) return candidate;
  }
  return bound;
}

std::uint32_t draw_path_mtu(util::Rng& rng) {
  // Tuned so that P(MSS ≥ 1436) ≈ 0.80 and P(MSS ≥ 1336) ≈ 0.99
  // (footnote 1 of the paper).
  const double r = rng.uniform01();
  if (r < 0.70) return 1500;
  if (r < 0.76) return 1492;  // PPPoE
  if (r < 0.80) return 1476;  // MSS 1436 boundary
  if (r < 0.92) return 1400;
  if (r < 0.99) return 1376;  // MSS 1336 boundary
  return 576;
}

std::string hex_name(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%08llx",
                static_cast<unsigned long long>(value & 0xffffffffULL));
  return buf;
}

/// Concatenates `parts` into one allocation: ground truth is rebuilt for
/// every materialized host and every connection a modeled daemon accepts.
std::string concat(std::initializer_list<std::string_view> parts) {
  std::size_t size = 0;
  for (const std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (const std::string_view part : parts) out += part;
  return out;
}

std::string canonical_name_for(std::uint64_t seed, net::IPv4Address ip) {
  return concat({"www.site-", hex_name(util::mix64(seed, ip.value() ^ 1)), ".example"});
}

}  // namespace

std::uint32_t GroundTruth::true_iw_segments(bool for_tls,
                                            std::uint16_t announced_mss,
                                            bool vhost) const {
  const tcp::IwConfig* iw = for_tls ? &tls_iw : &http_iw;
  if (vhost) {
    const auto& split = for_tls ? tls_vhost_iw : http_vhost_iw;
    if (split) iw = &*split;
  }
  const std::uint16_t eff = tcp::effective_mss(os, announced_mss, 1460);
  const std::uint32_t cwnd = iw->initial_cwnd(eff);
  return (cwnd + eff - 1) / eff;  // partial trailing segment counts
}

namespace {

/// Per-epoch odds that a legacy-IW Linux host still waiting upgrades to
/// IW 10 (§5 trend drift).
constexpr double kLegacyUpgradeRate = 0.06;
/// Per-epoch odds of a CDN edge's next step up a tier.
constexpr double kCdnTierUpgradeRate = 0.08;

/// Epoch at which a host's (salt-identified) upgrade lands: geometric in the
/// per-epoch rate, deterministic per (seed, salt, ip), ≥ 1.
int upgrade_epoch(std::uint64_t seed, std::uint64_t salt, net::IPv4Address ip,
                  double rate) {
  const double u =
      static_cast<double>(util::mix64(seed ^ salt, ip.value()) >> 11) * 0x1.0p-53;
  const double epochs = std::log(1.0 - u) / std::log(1.0 - rate);
  return 1 + static_cast<int>(epochs);
}

}  // namespace

GroundTruth synthesize_host(const AsRegistry& registry, const ModelConfig& config,
                            net::IPv4Address ip) {
  const std::uint64_t seed = config.seed;
  GroundTruth gt;
  const AsInfo* as = registry.find(ip);
  if (as == nullptr) return gt;
  gt.as = as;
  gt.popular = as->popular_prefix && as->popular_prefix->contains(ip);
  const AsArchetype& arch = gt.popular ? as->popular_archetype : as->archetype;

  util::Rng rng(util::mix64(seed, ip.value()));
  if (!rng.chance(arch.host_density)) return gt;
  gt.present = true;

  {
    const double r = rng.uniform01();
    if (r < arch.p_http_only) {
      gt.http = true;
    } else if (r < arch.p_http_only + arch.p_tls_only) {
      gt.tls = true;
    } else if (r < arch.p_http_only + arch.p_tls_only + arch.p_both) {
      gt.http = gt.tls = true;
    }
    // Remainder: present but neither web port open (probes see RST).
  }

  gt.os = rng.chance(arch.windows_share) ? tcp::OsProfile::Windows
                                         : tcp::OsProfile::Linux;
  gt.http_iw = draw_iw(arch.http.iw_mix, rng);
  gt.tls_iw = draw_iw(arch.tls.iw_mix, rng);
  // Dual-service server-class hosts mostly run one kernel stack, so their
  // HTTP and TLS IWs usually agree (paper: 6.2 M of 7 M dual hosts match);
  // the remainder — and CPE-style access hosts, where :80 and :443 are
  // often different devices behind one address — keep independent values
  // ("some services run IW configurations customized to different
  // services").
  if (gt.http && gt.tls) {
    // CDNs are excluded: their per-service IW customization is deliberate
    // (Akamai's TLS IW4 vs. per-customer HTTP IWs, §4.3).
    const bool server_class =
        as->kind == AsKind::Cloud || as->kind == AsKind::Hoster ||
        as->kind == AsKind::Enterprise || as->kind == AsKind::University;
    if (server_class && rng.chance(0.92)) gt.tls_iw = gt.http_iw;
  }

  // Longitudinal drift (§5 trend-monitoring extension): once a legacy-IW
  // Linux host's deterministic kernel-update epoch passes, it runs IW 10 —
  // one kernel, so both services upgrade together.
  if (config.epoch > 0 && gt.os == tcp::OsProfile::Linux &&
      config.epoch >=
          upgrade_epoch(seed, 0xeb0c4ULL, ip, kLegacyUpgradeRate)) {
    const auto upgrade = [](tcp::IwConfig& iw) {
      if (iw.policy == tcp::IwPolicy::Segments && iw.segments <= 4) {
        iw = tcp::IwConfig::segments_of(10);
      }
    };
    upgrade(gt.http_iw);
    upgrade(gt.tls_iw);
  }

  // ---- HTTP behaviour ----------------------------------------------------
  if (gt.http) {
    const HttpArchetype& h = arch.http;
    const double weights[] = {h.success_direct, h.success_redirect, h.success_echo,
                              h.few_data,       h.no_data,          h.abort};
    switch (rng.weighted(weights)) {
      case 0: gt.http_category = HttpCategory::SuccessDirect; break;
      case 1: gt.http_category = HttpCategory::SuccessRedirect; break;
      case 2: gt.http_category = HttpCategory::SuccessEcho; break;
      case 3: gt.http_category = HttpCategory::FewData; break;
      case 4: gt.http_category = HttpCategory::NoData; break;
      default: gt.http_category = HttpCategory::Abort; break;
    }

    if (gt.http_category == HttpCategory::SuccessEcho) {
      // The echoed 404 tops out near ~1.7 kB, which only exceeds the IW for
      // Linux-clamped MSS and IWs ≤ 10 segments — larger/Windows hosts
      // would stay few-data, so the category forces a compatible profile.
      gt.os = tcp::OsProfile::Linux;
      if (gt.http_iw.policy != tcp::IwPolicy::Segments || gt.http_iw.segments > 10) {
        gt.http_iw = tcp::IwConfig::segments_of(10);
      }
    }

    if (gt.http_category == HttpCategory::FewData) {
      const auto& bounds = h.few_bound_weights.empty() ? default_few_bound_weights()
                                                       : h.few_bound_weights;
      gt.few_bound = static_cast<std::uint32_t>(rng.weighted(bounds));
      if (gt.few_bound == 0) gt.few_bound = 1;
      // The host's true IW must be at least the bound (it managed to send
      // that much in one burst) — §4.1: bound-7 hosts "are very likely
      // configured to use an IW of 10".
      if (gt.http_iw.policy == tcp::IwPolicy::Segments &&
          gt.http_iw.segments < gt.few_bound) {
        gt.http_iw = tcp::IwConfig::segments_of(standard_iw_at_least(gt.few_bound));
      }
      // Pick a page size whose total response lands mid-bucket: the
      // estimator's lower bound ceil(span/mss) then equals few_bound.
      const std::uint32_t eff = gt.os == tcp::OsProfile::Windows ? 536 : 64;
      const std::size_t span = gt.few_bound * eff - eff / 2;
      const std::size_t overhead =
          http::response_head_size({http::StatusCode::Ok, "Apache", true, {}}, span);
      if (span > overhead + 8) {
        gt.http_page_bytes = span - overhead;
      } else {
        gt.http_page_bytes = span;  // served as a raw banner (non-HTTP)
      }
    }

    if (gt.http_category == HttpCategory::SuccessDirect ||
        gt.http_category == HttpCategory::SuccessRedirect) {
      // Enough data to overflow the IW in both MSS passes plus slack for
      // the verification window.
      const std::uint16_t eff64 = tcp::effective_mss(gt.os, 64, 1460);
      const std::uint16_t eff128 = tcp::effective_mss(gt.os, 128, 1460);
      const std::size_t need = std::max(gt.http_iw.initial_cwnd(eff64),
                                        gt.http_iw.initial_cwnd(eff128)) +
                               2 * std::size_t{eff128};
      const double extra = 400.0 - 2800.0 * std::log(1.0 - rng.uniform01() + 1e-12);
      const std::size_t page = need + static_cast<std::size_t>(extra);
      if (gt.http_category == HttpCategory::SuccessRedirect) {
        gt.redirect_page_bytes = page;
        gt.canonical_name = canonical_name_for(seed, ip);
      } else {
        gt.http_page_bytes = page;
      }
    }
  }

  // ---- TLS behaviour -----------------------------------------------------
  if (gt.tls) {
    const TlsArchetype& t = arch.tls;
    const double normal =
        std::max(0.0, 1.0 - t.sni_alert - t.sni_silent - t.exotic_cipher - t.abort);
    const double weights[] = {normal, t.sni_alert, t.sni_silent, t.exotic_cipher,
                              t.abort};
    switch (rng.weighted(weights)) {
      case 0: gt.tls_category = TlsCategory::Normal; break;
      case 1: gt.tls_category = TlsCategory::SniAlert; break;
      case 2: gt.tls_category = TlsCategory::SniSilent; break;
      case 3: gt.tls_category = TlsCategory::ExoticCipher; break;
      default: gt.tls_category = TlsCategory::Abort; break;
    }
    gt.chain_bytes = CertChainDistribution::sample(rng);
    gt.ocsp_staple = rng.chance(t.ocsp_staple);
    if (gt.canonical_name.empty()) {
      gt.canonical_name = canonical_name_for(seed, ip);
    }
  }

  // ---- Reverse DNS ---------------------------------------------------------
  if (rng.chance(arch.rdns_present)) {
    const std::string_view tag = arch.rdns_tag.empty() ? as->name : arch.rdns_tag;
    if (rng.chance(arch.rdns_ip_encoded)) {
      char buf[96];
      const char* style = arch.rdns_is_isp
                              ? (rng.chance(0.5) ? "customer" : "dyn")
                              : "host";
      std::snprintf(buf, sizeof(buf), "%s-%u-%u-%u-%u.%.*s.example", style,
                    ip.octet(0), ip.octet(1), ip.octet(2), ip.octet(3),
                    static_cast<int>(tag.size()), tag.data());
      gt.rdns = buf;
    } else {
      gt.rdns = concat({"srv", hex_name(util::mix64(seed, ip.value() ^ 2)), ".", tag,
                        ".example"});
    }
  }

  gt.path_mtu = draw_path_mtu(rng);
  gt.latency_us = static_cast<std::uint32_t>(rng.between(8'000, 120'000));

  // ---- Adversarial overlay -------------------------------------------------
  // Dedicated RNG stream: the draw sequence above is untouched, so a world
  // with fraction == 0 is byte-identical to one synthesized without the
  // overlay at all.
  if (config.adversarial_fraction > 0.0) {
    util::Rng adv_rng(util::mix64(seed ^ 0xadde5ULL, ip.value()));
    if (adv_rng.chance(config.adversarial_fraction)) {
      AdversarialBehavior candidates[kAdversarialBehaviorCount];
      int count = 0;
      for (int i = 0; i < kAdversarialBehaviorCount; ++i) {
        const auto behavior = static_cast<AdversarialBehavior>(i);
        // App-layer pathologies need the matching port open; wire-level
        // ones replace whatever daemons the host would have run.
        if (behavior == AdversarialBehavior::RedirectLoop && !gt.http) continue;
        if (behavior == AdversarialBehavior::TlsFatalAlert && !gt.tls) continue;
        candidates[count++] = behavior;
      }
      gt.adversary = candidates[adv_rng.between(0, count - 1)];
    }
  }

  // ---- CDN overlay ---------------------------------------------------------
  // Modern-stack follow-up: a fraction of the web hosts inside CDN-eligible
  // ASes become edges running the tiered large-IW plans, optionally paced
  // and optionally with a per-vhost IW split. Like the adversarial overlay,
  // everything is drawn from a dedicated stream so fraction == 0 worlds are
  // byte-identical to pre-overlay ones. Adversaries win: a hostile stack is
  // not also a CDN edge.
  if (config.cdn_fraction > 0.0 && gt.present && !gt.adversary &&
      (gt.http || gt.tls) && arch.cdn_eligible()) {
    util::Rng cdn_rng(util::mix64(seed ^ 0xcd17ULL, ip.value()));
    if (cdn_rng.chance(config.cdn_fraction)) {
      // Base tier 1..3 (IW16 / IW32 / IW50), popularity-weighted per AS.
      int tier = 1 + static_cast<int>(cdn_rng.weighted(arch.cdn_tier_weights));
      // Longitudinal tier drift: each upgrade step lands at a deterministic
      // geometric epoch (pure in (seed, step, ip) — the draws themselves
      // never depend on the epoch, so advancing the epoch only ever raises
      // the tier: monotone drift).
      int lands_at = 0;
      for (std::uint64_t step = 0; tier < 3; ++step) {
        lands_at += upgrade_epoch(seed, 0x7d21fULL + step, ip, kCdnTierUpgradeRate);
        if (lands_at > config.epoch) break;
        ++tier;
      }
      gt.cdn_tier = static_cast<std::uint8_t>(tier);
      gt.os = tcp::OsProfile::Linux;  // the edge fleets are Linux-derived

      // Tier → IwConfig: segment plans by default, byte-budget plans for a
      // share of edges (16/24/32 KiB for tiers 1/2/3).
      const bool byte_tiered = cdn_rng.chance(arch.cdn_byte_tier_share);
      const auto tier_config = [byte_tiered](int t) {
        if (byte_tiered) {
          return tcp::IwConfig::byte_tier_kib(t == 1 ? 16u : t == 2 ? 24u : 32u);
        }
        return t == 1 ? tcp::IwConfig::iw16()
                      : t == 2 ? tcp::IwConfig::iw32() : tcp::IwConfig::iw50();
      };
      tcp::IwConfig edge_iw = tier_config(tier);

      // Paced first flight: spread well past the detection threshold even at
      // the model's minimum RTT (16 ms × 600% = 96 ms > the 80 ms default).
      const bool paced = cdn_rng.chance(arch.cdn_paced_share);
      const std::uint32_t spreads[] = {600, 800, 1200};
      const std::uint32_t spread =
          spreads[cdn_rng.between(0, 2)];  // drawn even when unused: fixed stream
      if (paced) edge_iw = edge_iw.paced_over(spread);

      // Per-vhost split: requests naming the canonical host get the next
      // tier up; a tier-3 edge flips representation (segments ↔ bytes) so
      // the vhost config is still distinct from the IP-as-Host one.
      const bool vhost_split = cdn_rng.chance(arch.cdn_vhost_share);
      if (vhost_split) {
        tcp::IwConfig vhost_iw =
            tier < 3 ? tier_config(tier + 1)
                     : (byte_tiered ? tcp::IwConfig::iw50()
                                    : tcp::IwConfig::byte_tier_kib(32));
        if (paced) vhost_iw = vhost_iw.paced_over(spread);
        if (gt.http) gt.http_vhost_iw = vhost_iw;
        if (gt.tls) gt.tls_vhost_iw = vhost_iw;
      }
      if (gt.http) gt.http_iw = edge_iw;
      if (gt.tls) gt.tls_iw = edge_iw;

      // An edge always serves real content: force the success categories and
      // resize the page so even the largest (vhost) config overflows at both
      // announced MSSes, with verification slack.
      if (gt.canonical_name.empty()) {
        gt.canonical_name = canonical_name_for(seed, ip);
      }
      const std::uint16_t eff64 = tcp::effective_mss(gt.os, 64, 1460);
      const std::uint16_t eff128 = tcp::effective_mss(gt.os, 128, 1460);
      std::size_t need = 0;
      const auto consider = [&need, eff64, eff128](const tcp::IwConfig& iw) {
        need = std::max({need, std::size_t{iw.initial_cwnd(eff64)},
                         std::size_t{iw.initial_cwnd(eff128)}});
      };
      consider(edge_iw);
      if (gt.http_vhost_iw) consider(*gt.http_vhost_iw);
      if (gt.tls_vhost_iw) consider(*gt.tls_vhost_iw);
      need += 2 * std::size_t{eff128};
      const double extra =
          400.0 - 2800.0 * std::log(1.0 - cdn_rng.uniform01() + 1e-12);
      if (gt.http) {
        gt.http_category = HttpCategory::SuccessDirect;
        gt.http_page_bytes = need + static_cast<std::size_t>(extra);
        gt.redirect_page_bytes = 0;
        gt.few_bound = 0;
      }
      if (gt.tls) {
        gt.tls_category = TlsCategory::Normal;
        // Edge chains are padded (full chains, SCTs, OCSP) well past the
        // Fig. 2 mean — large enough that the ServerHello flight overflows
        // even the vhost window, so TLS probes measure the IW, not the chain.
        gt.chain_bytes = std::max(gt.chain_bytes, need + 512);
      }
    }
  }
  return gt;
}

}  // namespace iwscan::model
