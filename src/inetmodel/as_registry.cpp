#include "inetmodel/as_registry.hpp"

#include <algorithm>

#include "inetmodel/profiles.hpp"
#include "util/check.hpp"

namespace iwscan::model {

std::string_view to_string(AsKind kind) noexcept {
  switch (kind) {
    case AsKind::Cloud: return "cloud";
    case AsKind::Cdn: return "cdn";
    case AsKind::Hoster: return "hoster";
    case AsKind::Isp: return "isp";
    case AsKind::Access: return "access";
    case AsKind::University: return "university";
    case AsKind::Backbone: return "backbone";
    case AsKind::Enterprise: return "enterprise";
  }
  return "?";
}

const std::vector<double>& default_few_bound_weights() {
  // Table 2 (HTTP row), renormalized over bounds 1..14; the 4.8% NoData
  // share is a separate category. The published tail beyond IW10 (~6.2%)
  // is spread over 11..14.
  static const std::vector<double> kWeights = {
      0.0,   // index 0 unused
      16.5, 7.1, 7.2, 2.9, 3.6, 2.0, 45.0, 2.7, 1.1, 0.9,
      2.2, 1.8, 1.2, 1.0,
  };
  return kWeights;
}

namespace {

using SegList = std::initializer_list<std::pair<std::uint32_t, double>>;

std::vector<IwMixEntry> segs(SegList list) {
  std::vector<IwMixEntry> mix;
  mix.reserve(list.size());
  for (const auto& [n, w] : list) {
    mix.push_back({tcp::IwConfig::segments_of(n), w});
  }
  return mix;
}

void add_bytes_entry(std::vector<IwMixEntry>& mix, std::uint32_t bytes, double weight) {
  mix.push_back({tcp::IwConfig::bytes_of(bytes), weight});
}

// ---- archetype factories -------------------------------------------------

AsArchetype content_archetype() {
  AsArchetype a;
  a.host_density = 0.35;
  a.p_http_only = 0.30;
  a.p_tls_only = 0.30;
  a.p_both = 0.40;
  a.windows_share = 0.04;
  a.rdns_present = 0.85;
  a.rdns_ip_encoded = 0.75;
  a.rdns_tag = "cloudhost";
  a.http.iw_mix = segs({{2, 2}, {4, 4}, {10, 92}, {16, 1}, {20, 1}});
  a.http.success_direct = 0.42;
  a.http.success_redirect = 0.22;
  a.http.success_echo = 0.08;
  a.http.few_data = 0.25;
  a.http.no_data = 0.015;
  a.http.abort = 0.015;
  a.tls.iw_mix = segs({{1, 1}, {2, 2}, {4, 5}, {10, 90}, {25, 2}});
  a.tls.sni_alert = 0.05;
  a.tls.sni_silent = 0.015;
  return a;
}

AsArchetype access_archetype() {
  AsArchetype a;
  a.host_density = 0.18;
  a.p_http_only = 0.65;  // CPE admin pages are HTTP-heavy
  a.p_tls_only = 0.20;
  a.p_both = 0.15;
  a.windows_share = 0.06;
  a.rdns_present = 0.92;
  a.rdns_ip_encoded = 0.95;
  a.rdns_is_isp = true;
  // Table 3 "Access NW" anchors: HTTP 3.5/50.2/20.8/21.7 (IW 1/2/4/10),
  // TLS 4.5/17.6/67.1/10.4.
  a.http.iw_mix = segs({{1, 3.5}, {2, 50.2}, {3, 1.5}, {4, 20.8}, {10, 21.7}, {6, 1.0}});
  add_bytes_entry(a.http.iw_mix, 4096, 1.2);   // scattered byte-IW CPE
  add_bytes_entry(a.http.iw_mix, 1536, 0.5);   // MTU-fill monitors
  a.tls.iw_mix = segs({{1, 4.5}, {2, 17.6}, {4, 67.1}, {10, 10.4}, {5, 0.4}});
  a.http.success_direct = 0.24;
  a.http.success_redirect = 0.05;
  a.http.success_echo = 0.12;
  a.http.few_data = 0.53;
  a.http.no_data = 0.04;
  a.http.abort = 0.02;
  a.tls.sni_alert = 0.06;
  a.tls.sni_silent = 0.030;
  a.tls.exotic_cipher = 0.010;
  a.tls.ciphers = tls::CipherProfile::Standard;
  return a;
}

AsArchetype legacy_isp_archetype() {
  AsArchetype a;
  a.host_density = 0.22;
  a.p_http_only = 0.62;
  a.p_tls_only = 0.18;
  a.p_both = 0.20;
  a.windows_share = 0.08;
  a.rdns_present = 0.55;
  a.rdns_ip_encoded = 0.60;
  a.rdns_tag = "netline";
  a.http.iw_mix = segs({{1, 15}, {2, 42}, {3, 8}, {4, 22}, {5, 1}, {10, 11}, {6, 1}});
  a.tls.iw_mix = segs({{1, 14}, {2, 20}, {4, 44}, {10, 20}, {3, 2}});
  a.http.success_direct = 0.26;
  a.http.success_redirect = 0.08;
  a.http.success_echo = 0.10;
  a.http.few_data = 0.50;
  a.http.no_data = 0.04;
  a.http.abort = 0.02;
  a.tls.sni_alert = 0.07;
  a.tls.sni_silent = 0.034;
  return a;
}

AsArchetype hoster_archetype() {
  AsArchetype a;
  a.host_density = 0.40;
  a.p_http_only = 0.35;
  a.p_tls_only = 0.20;
  a.p_both = 0.45;
  a.windows_share = 0.08;
  a.rdns_present = 0.80;
  a.rdns_ip_encoded = 0.55;
  a.rdns_tag = "vserver";
  a.http.iw_mix = segs({{1, 2}, {2, 5}, {4, 8}, {10, 83}, {9, 0.8}, {11, 0.7}, {30, 0.5}});
  a.tls.iw_mix = segs({{1, 2}, {2, 4}, {4, 10}, {10, 80}, {25, 3}, {9, 1}});
  a.http.success_direct = 0.34;
  a.http.success_redirect = 0.18;
  a.http.success_echo = 0.10;
  a.http.few_data = 0.34;
  a.http.no_data = 0.02;
  a.http.abort = 0.02;
  a.tls.sni_alert = 0.07;
  return a;
}

AsArchetype university_archetype() {
  AsArchetype a;
  a.host_density = 0.20;
  a.p_http_only = 0.60;
  a.p_tls_only = 0.15;
  a.p_both = 0.25;
  a.windows_share = 0.08;
  a.rdns_present = 0.90;
  a.rdns_ip_encoded = 0.30;
  a.rdns_tag = "campusnet";
  a.http.iw_mix = segs({{1, 5}, {2, 55}, {3, 4}, {4, 12}, {10, 24}});
  a.tls.iw_mix = segs({{1, 4}, {2, 30}, {4, 30}, {10, 36}});
  a.http.success_direct = 0.30;
  a.http.success_redirect = 0.10;
  a.http.success_echo = 0.12;
  a.http.few_data = 0.50;
  a.http.no_data = 0.03;
  a.http.abort = 0.015;
  return a;
}

AsArchetype backbone_archetype() {
  AsArchetype a;
  a.host_density = 0.12;
  a.p_http_only = 0.70;
  a.p_tls_only = 0.12;
  a.p_both = 0.18;
  a.windows_share = 0.08;
  a.rdns_present = 0.50;
  a.rdns_ip_encoded = 0.55;
  a.rdns_tag = "transit";
  a.http.iw_mix = segs({{1, 25}, {2, 34}, {3, 6}, {4, 19}, {10, 15}, {20, 1}});
  a.tls.iw_mix = segs({{1, 20}, {2, 22}, {4, 34}, {10, 23}, {11, 1}});
  a.http.success_direct = 0.24;
  a.http.success_redirect = 0.06;
  a.http.success_echo = 0.08;
  a.http.few_data = 0.56;
  a.http.no_data = 0.04;
  a.http.abort = 0.02;
  a.tls.sni_alert = 0.085;
  a.tls.sni_silent = 0.036;
  return a;
}

AsArchetype enterprise_archetype() {
  AsArchetype a;
  a.host_density = 0.15;
  a.p_http_only = 0.45;
  a.p_tls_only = 0.25;
  a.p_both = 0.30;
  a.windows_share = 0.20;
  a.rdns_present = 0.60;
  a.rdns_ip_encoded = 0.20;
  a.rdns_tag = "corp";
  a.http.iw_mix = segs({{1, 4}, {2, 20}, {4, 26}, {10, 48}, {5, 1}, {64, 1}});
  a.tls.iw_mix = segs({{1, 3}, {2, 10}, {4, 35}, {10, 50}, {6, 2}});
  a.http.success_direct = 0.30;
  a.http.success_redirect = 0.12;
  a.http.success_echo = 0.08;
  a.http.few_data = 0.46;
  a.http.no_data = 0.02;
  a.http.abort = 0.02;
  return a;
}

/// Alexa-style mix (Fig. 4): high success, strong IW10 dominance.
AsArchetype popular_archetype_for(const AsArchetype& base) {
  AsArchetype a = base;
  a.host_density = std::max(base.host_density, 0.55);
  a.p_both = 0.55;
  a.p_http_only = 0.25;
  a.p_tls_only = 0.20;
  // The AS's own IW mixes are kept: popularity changes how much data a
  // host serves and how well-kept it is, not which kernel/CDN stack it
  // runs (Akamai's popular sites still show Akamai's IW).
  // ASes whose HTTP hosts can never be pushed to success (Akamai after its
  // error-page change) stay that way: popularity does not restore the echo.
  const bool http_unscannable = base.http.success_direct +
                                    base.http.success_redirect +
                                    base.http.success_echo <
                                0.01;
  if (!http_unscannable) {
    a.http.success_direct = 0.52;
    a.http.success_redirect = 0.22;
    a.http.success_echo = 0.06;
    a.http.few_data = 0.17;
    a.http.no_data = 0.01;
    a.http.abort = 0.02;
  }
  a.tls.sni_alert = 0.05;
  a.tls.sni_silent = 0.02;
  a.tls.exotic_cipher = 0.005;
  // Popularity-weighted CDN tiers: the popular sub-block of a CDN-eligible
  // AS skews toward the premium (larger-IW) tiers — high-traffic customers
  // buy the aggressive first-flight plans.
  if (base.cdn_eligible()) {
    a.cdn_tier_weights = {base.cdn_tier_weights[0] * 0.25,
                          base.cdn_tier_weights[1],
                          base.cdn_tier_weights[2] * 3.0};
  }
  return a;
}

struct AsSpec {
  std::uint32_t asn;
  const char* name;
  AsKind kind;
  int size_delta;  // block size = universe >> size_delta
  const char* service_tag;
  AsArchetype archetype;
};

}  // namespace

AsRegistry AsRegistry::standard(int scale_log2) {
  IWSCAN_ASSERT(scale_log2 >= ModelConfig::kMinScaleLog2 &&
                    scale_log2 <= ModelConfig::kMaxScaleLog2,
                "AsRegistry::standard scale must stay within the synthetic "
                "population's supported range");

  std::vector<AsSpec> specs;

  {  // --- Clouds ---
    AsArchetype ec2 = content_archetype();
    // Table 3 EC2 anchors: HTTP 0.0/1.8/3.4/94.7 — TLS 0.2/1.3/2.6/95.8.
    ec2.http.iw_mix = segs({{2, 1.8}, {4, 3.4}, {10, 94.7}});
    ec2.tls.iw_mix = segs({{1, 0.2}, {2, 1.3}, {4, 2.6}, {10, 95.8}});
    ec2.rdns_tag = "compute.amazonia";
    specs.push_back({16509, "Amazon-EC2", AsKind::Cloud, 4, "ec2", ec2});

    AsArchetype azure = content_archetype();
    // Table 3 Azure anchors: HTTP 0.0/7.8/54.9/37.1 — TLS 0.1/4.1/73.3/21.9.
    azure.http.iw_mix = segs({{2, 7.8}, {4, 54.9}, {10, 37.1}, {3, 0.2}});
    azure.tls.iw_mix = segs({{1, 0.1}, {2, 4.1}, {4, 73.3}, {10, 21.9}, {6, 0.6}});
    azure.windows_share = 0.12;
    azure.rdns_tag = "cloudapp.azzure";
    specs.push_back({8075, "Microsoft-Azure", AsKind::Cloud, 5, "azure", azure});

    AsArchetype gcloud = content_archetype();
    gcloud.http.iw_mix = segs({{4, 4}, {10, 95}, {32, 1}});
    gcloud.tls.iw_mix = segs({{4, 5}, {10, 94}, {32, 1}});
    gcloud.rdns_tag = "gcloud";
    specs.push_back({396982, "Googol-Cloud", AsKind::Cloud, 6, "", gcloud});
  }

  {  // --- CDNs ---
    AsArchetype cloudflare = content_archetype();
    // Table 3: Cloudflare 100% IW10 on both protocols.
    cloudflare.http.iw_mix = segs({{10, 100}});
    cloudflare.tls.iw_mix = segs({{10, 100}});
    cloudflare.http.success_direct = 0.55;
    cloudflare.http.success_redirect = 0.25;
    cloudflare.http.few_data = 0.16;
    cloudflare.http.no_data = 0.01;
    cloudflare.http.abort = 0.01;
    cloudflare.host_density = 0.60;
    cloudflare.rdns_tag = "cflare";
    cloudflare.cdn_tier_weights = {55, 35, 10};  // IW16 / IW32 / IW50
    cloudflare.cdn_paced_share = 0.40;
    cloudflare.cdn_byte_tier_share = 0.15;
    cloudflare.cdn_vhost_share = 0.35;
    specs.push_back({13335, "Cloudflare", AsKind::Cdn, 6, "cloudflare", cloudflare});

    AsArchetype akamai = content_archetype();
    // Table 3: Akamai TLS 100% IW4; the HTTP row is all "–" because its
    // default error page stopped echoing the URI mid-study (§4 "Success
    // rates"), so HTTP estimates never succeed.
    akamai.tls.iw_mix = segs({{4, 100}});
    akamai.http.iw_mix = segs({{4, 60}, {16, 20}, {32, 20}});  // per-customer IWs
    akamai.http.success_direct = 0.0;
    akamai.http.success_redirect = 0.0;
    akamai.http.success_echo = 0.0;   // the "Akamai change": no URI echo
    akamai.http.few_data = 0.96;
    akamai.http.no_data = 0.02;
    akamai.http.abort = 0.02;
    akamai.tls.sni_alert = 0.0;
    akamai.tls.sni_silent = 0.0;
    akamai.host_density = 0.55;
    akamai.rdns_tag = "akam";
    akamai.cdn_tier_weights = {70, 25, 5};
    akamai.cdn_paced_share = 0.25;
    akamai.cdn_byte_tier_share = 0.30;  // per-customer byte budgets
    akamai.cdn_vhost_share = 0.50;      // heavily multi-tenant edges
    specs.push_back({20940, "Akamai", AsKind::Cdn, 5, "akamai", akamai});

    AsArchetype fastly = content_archetype();
    fastly.http.iw_mix = segs({{10, 97}, {20, 3}});
    fastly.tls.iw_mix = segs({{10, 96}, {25, 4}});
    fastly.rdns_tag = "fastish";
    fastly.cdn_tier_weights = {40, 40, 20};
    fastly.cdn_paced_share = 0.55;  // aggressive pacer deployment
    fastly.cdn_byte_tier_share = 0.10;
    fastly.cdn_vhost_share = 0.30;
    specs.push_back({54113, "Fastly", AsKind::Cdn, 7, "", fastly});
  }

  {  // --- Hosters ---
    AsArchetype godaddy = hoster_archetype();
    // §4.3: 19.8% of GoDaddy's HTTP hosts (32.7% TLS) use a static IW 48,
    // irrespective of the announced MSS.
    godaddy.http.iw_mix = segs({{2, 4}, {4, 8}, {10, 66}, {48, 19.8}, {1, 2.2}});
    godaddy.tls.iw_mix = segs({{2, 3}, {4, 9}, {10, 54}, {48, 32.7}, {1, 1.3}});
    godaddy.rdns_tag = "secureserver";
    specs.push_back({26496, "GoDaddy", AsKind::Hoster, 6, "", godaddy});

    AsArchetype ovh = hoster_archetype();
    ovh.tls.iw_mix = segs({{1, 2}, {2, 4}, {4, 10}, {10, 77}, {25, 6}, {9, 1}});
    ovh.rdns_tag = "ovhall";
    specs.push_back({16276, "OVH", AsKind::Hoster, 6, "", ovh});

    specs.push_back({24940, "Hetzner", AsKind::Hoster, 7, "", hoster_archetype()});
    specs.push_back({14061, "DigitalOcean", AsKind::Hoster, 7, "", hoster_archetype()});
    AsArchetype unified = hoster_archetype();
    unified.windows_share = 0.30;
    specs.push_back({46606, "UnifiedLayer", AsKind::Hoster, 7, "", unified});
  }

  {  // --- Access networks ---
    AsArchetype comcast = access_archetype();
    comcast.http.iw_mix = segs({{1, 4}, {2, 58}, {4, 16}, {10, 21}, {3, 1}});
    comcast.rdns_tag = "comcastline";
    specs.push_back({7922, "Comcast", AsKind::Access, 4, "access", comcast});

    AsArchetype telmex = access_archetype();
    // §4.2: Technicolor residential modems at Telmex configured with a
    // 4 kB byte-counted IW (64 segments at MSS 64, 32 at MSS 128); a
    // smaller group of devices fills one 1536 B MTU (24 / 12 segments).
    telmex.http.iw_mix = segs({{1, 4}, {2, 44}, {4, 18}, {10, 14}});
    add_bytes_entry(telmex.http.iw_mix, 4096, 30.0);  // Technicolor CPE
    add_bytes_entry(telmex.http.iw_mix, 1536, 5.0);   // MTU-fill devices
    telmex.tls.iw_mix = segs({{1, 5}, {2, 16}, {4, 64}, {10, 13}});
    add_bytes_entry(telmex.tls.iw_mix, 4096, 2.0);
    telmex.rdns_tag = "prod-infinitum";
    specs.push_back({8151, "Telmex", AsKind::Access, 5, "access", telmex});

    AsArchetype vodafone_it = access_archetype();
    vodafone_it.http.iw_mix = segs({{1, 3}, {2, 62}, {4, 14}, {10, 20}, {3, 1}});
    vodafone_it.rdns_tag = "vodafonedsl";
    specs.push_back({30722, "VodafonIT", AsKind::Access, 6, "access", vodafone_it});

    AsArchetype korea_tel = access_archetype();
    korea_tel.http.iw_mix = segs({{1, 6}, {2, 38}, {4, 30}, {10, 24}, {6, 2}});
    korea_tel.tls.iw_mix = segs({{1, 5}, {2, 14}, {4, 70}, {10, 10}, {5, 1}});
    korea_tel.rdns_tag = "kornet";
    specs.push_back({4766, "KoreaTelecom", AsKind::Access, 5, "access", korea_tel});

    AsArchetype dtag = access_archetype();
    dtag.rdns_tag = "dialin-t";
    specs.push_back({3320, "DeutscheTelekom", AsKind::Access, 5, "access", dtag});

    AsArchetype orange = access_archetype();
    orange.rdns_tag = "orangecust";
    specs.push_back({3215, "Orange", AsKind::Access, 6, "access", orange});

    AsArchetype turktel = access_archetype();
    turktel.rdns_tag = "ttnetcust";
    specs.push_back({9121, "TurkTelekom", AsKind::Access, 6, "access", turktel});
  }

  {  // --- ISPs / backbones / universities / enterprises ---
    specs.push_back({4134, "ChinaNet", AsKind::Isp, 3, "", legacy_isp_archetype()});
    specs.push_back({4837, "ChinaUnicom", AsKind::Isp, 4, "", legacy_isp_archetype()});
    specs.push_back({9498, "Nat.Int.Backbone", AsKind::Backbone, 5, "",
                     backbone_archetype()});
    specs.push_back({6453, "TataComm", AsKind::Backbone, 6, "", backbone_archetype()});
    specs.push_back({3356, "Level-Trans", AsKind::Backbone, 6, "",
                     backbone_archetype()});
    AsArchetype univ = university_archetype();
    specs.push_back({680, "RWTH-DFN", AsKind::University, 7, "", univ});
    specs.push_back({3, "MIT-Net", AsKind::University, 7, "", univ});
    specs.push_back({786, "JANET-Campus", AsKind::University, 7, "", univ});
    specs.push_back({2906, "Enterprise-A", AsKind::Enterprise, 6, "",
                     enterprise_archetype()});
    specs.push_back({13414, "Enterprise-B", AsKind::Enterprise, 6, "",
                     enterprise_archetype()});
  }

  {  // --- Additional clouds / hosters / ISPs for per-AS statistics ---
    AsArchetype alibaba = content_archetype();
    alibaba.http.iw_mix = segs({{2, 6}, {4, 10}, {10, 82}, {20, 2}});
    alibaba.tls.iw_mix = segs({{2, 5}, {4, 14}, {10, 79}, {25, 2}});
    alibaba.rdns_tag = "alicloudish";
    specs.push_back({45102, "Alibaba-Cloud", AsKind::Cloud, 5, "", alibaba});

    AsArchetype tencent = content_archetype();
    tencent.http.iw_mix = segs({{2, 8}, {4, 16}, {10, 74}, {16, 2}});
    tencent.tls.iw_mix = segs({{2, 6}, {4, 20}, {10, 72}, {16, 2}});
    tencent.rdns_tag = "tencloudish";
    specs.push_back({45090, "Tencent-Cloud", AsKind::Cloud, 6, "", tencent});

    specs.push_back({60781, "LeaseWeb", AsKind::Hoster, 7, "", hoster_archetype()});

    // A capacity-constrained regional ISP: small IWs remain rational where
    // links are thin (the "large IWs overflow low-capacity links" side of
    // the paper's introduction).
    AsArchetype regional = legacy_isp_archetype();
    regional.http.iw_mix = segs({{1, 30}, {2, 48}, {3, 8}, {4, 10}, {10, 4}});
    regional.tls.iw_mix = segs({{1, 26}, {2, 34}, {4, 30}, {10, 10}});
    regional.rdns_tag = "regionnet";
    specs.push_back({36866, "Regional-ISP", AsKind::Isp, 6, "", regional});

    // Satellite access: tiny path MTUs and legacy stacks.
    AsArchetype satellite = access_archetype();
    satellite.http.iw_mix = segs({{1, 18}, {2, 58}, {4, 16}, {10, 8}});
    satellite.tls.iw_mix = segs({{1, 12}, {2, 30}, {4, 48}, {10, 10}});
    satellite.rdns_tag = "satbeam";
    specs.push_back({22351, "SatNet", AsKind::Access, 8, "access", satellite});
  }

  {  // --- Modern-stack CDNs (longitudinal follow-up population) ---
    // Two edges born after the 2017 measurement: their whole populations
    // already run the large-IW tiers, so the per-provider breakdown has
    // providers whose medians sit at 16/32/50 from epoch T0.
    AsArchetype limelight = content_archetype();
    limelight.http.iw_mix = segs({{10, 30}, {16, 40}, {32, 25}, {50, 5}});
    limelight.tls.iw_mix = segs({{10, 34}, {16, 40}, {32, 22}, {50, 4}});
    add_bytes_entry(limelight.http.iw_mix, 16 * 1024, 4.0);  // byte-tiered plans
    limelight.http.success_direct = 0.52;
    limelight.http.success_redirect = 0.22;
    limelight.http.success_echo = 0.04;
    limelight.http.few_data = 0.18;
    limelight.http.no_data = 0.02;
    limelight.http.abort = 0.02;
    limelight.host_density = 0.50;
    limelight.rdns_tag = "llnw-edge";
    limelight.cdn_tier_weights = {35, 45, 20};
    limelight.cdn_paced_share = 0.50;
    limelight.cdn_byte_tier_share = 0.20;
    limelight.cdn_vhost_share = 0.40;
    specs.push_back({22822, "Limelight", AsKind::Cdn, 7, "", limelight});

    AsArchetype gcore = content_archetype();
    gcore.http.iw_mix = segs({{10, 42}, {16, 30}, {32, 20}, {50, 8}});
    gcore.tls.iw_mix = segs({{10, 46}, {16, 30}, {32, 18}, {50, 6}});
    add_bytes_entry(gcore.tls.iw_mix, 24 * 1024, 3.0);
    gcore.http.success_direct = 0.50;
    gcore.http.success_redirect = 0.24;
    gcore.http.success_echo = 0.04;
    gcore.http.few_data = 0.18;
    gcore.http.no_data = 0.02;
    gcore.http.abort = 0.02;
    gcore.host_density = 0.45;
    gcore.rdns_tag = "gcore-edge";
    gcore.cdn_tier_weights = {30, 40, 30};
    gcore.cdn_paced_share = 0.60;
    gcore.cdn_byte_tier_share = 0.15;
    gcore.cdn_vhost_share = 0.35;
    specs.push_back({199524, "G-Core", AsKind::Cdn, 7, "", gcore});
  }

  // Allocate contiguous power-of-two blocks from 10.0.0.0, largest first so
  // alignment is preserved.
  std::stable_sort(specs.begin(), specs.end(),
                   [](const AsSpec& a, const AsSpec& b) {
                     return a.size_delta < b.size_delta;
                   });

  AsRegistry registry;
  std::uint32_t cursor = net::IPv4Address{10, 0, 0, 0}.value();
  for (const auto& spec : specs) {
    const int prefix_len = 32 - (scale_log2 - spec.size_delta);
    IWSCAN_ASSERT(prefix_len >= 8 && prefix_len <= 28,
                  "AS spec size_delta pushed its prefix outside routable bounds");
    const std::uint64_t block = std::uint64_t{1} << (scale_log2 - spec.size_delta);

    AsInfo info;
    info.asn = spec.asn;
    info.name = spec.name;
    info.kind = spec.kind;
    info.service_tag = spec.service_tag;
    info.archetype = spec.archetype;
    if (info.archetype.http.few_bound_weights.empty()) {
      info.archetype.http.few_bound_weights = default_few_bound_weights();
    }
    info.popular_archetype = popular_archetype_for(info.archetype);
    if (info.popular_archetype.http.few_bound_weights.empty()) {
      info.popular_archetype.http.few_bound_weights = default_few_bound_weights();
    }
    info.prefixes.push_back(net::Cidr{net::IPv4Address{cursor}, prefix_len});

    // Popular (Alexa-style) sub-block: only content networks host popular
    // sites; the first 1/16th of the block, clamped to [/22, /26] so the
    // popular scan has substance at small scales.
    if (spec.kind == AsKind::Cloud || spec.kind == AsKind::Cdn ||
        spec.kind == AsKind::Hoster) {
      const int popular_len = std::clamp(prefix_len + 4, 22, 26);
      info.popular_prefix = net::Cidr{net::IPv4Address{cursor}, popular_len};
    }

    registry.ases_.push_back(std::move(info));
    cursor += static_cast<std::uint32_t>(block);
  }

  registry.index_ranges();
  return registry;
}

void AsRegistry::index_ranges() {
  ranges_.clear();
  for (std::size_t i = 0; i < ases_.size(); ++i) {
    for (const auto& prefix : ases_[i].prefixes) {
      const std::uint32_t start = prefix.first().value();
      const std::uint32_t end =
          start + static_cast<std::uint32_t>(prefix.size() - 1);
      ranges_.push_back(Range{start, end, i});
    }
  }
  std::sort(ranges_.begin(), ranges_.end(),
            [](const Range& a, const Range& b) { return a.start < b.start; });
}

const AsInfo* AsRegistry::find(net::IPv4Address addr) const noexcept {
  const std::uint32_t value = addr.value();
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), value,
      [](std::uint32_t v, const Range& r) { return v < r.start; });
  if (it == ranges_.begin()) return nullptr;
  --it;
  if (value > it->end) return nullptr;
  return &ases_[it->as_index];
}

// iwlint: allow(unreached) -- tests pin the AS table and place targets by AS name
const AsInfo* AsRegistry::by_name(std::string_view name) const noexcept {
  for (const auto& as : ases_) {
    if (as.name == name) return &as;
  }
  return nullptr;
}

std::vector<net::Cidr> AsRegistry::scan_space() const {
  std::vector<net::Cidr> space;
  for (const auto& as : ases_) {
    space.insert(space.end(), as.prefixes.begin(), as.prefixes.end());
  }
  return space;
}

std::vector<net::Cidr> AsRegistry::popular_space() const {
  std::vector<net::Cidr> space;
  for (const auto& as : ases_) {
    if (as.popular_prefix) space.push_back(*as.popular_prefix);
  }
  return space;
}

// iwlint: allow(unreached) -- sharded scans must cover the scan space exactly once
std::uint64_t AsRegistry::scan_space_size() const noexcept {
  std::uint64_t total = 0;
  for (const auto& as : ases_) {
    for (const auto& prefix : as.prefixes) total += prefix.size();
  }
  return total;
}

}  // namespace iwscan::model
