#include "inetmodel/internet.hpp"

#include "httpd/http_server.hpp"
#include "tls/tls_server.hpp"
#include "util/rng.hpp"

namespace iwscan::model {
namespace {

/// Table-1 "Error" hosts: the connection is accepted, then reset as soon
/// as the request arrives (middleboxes, IDS appliances, broken daemons).
class AbortApp final : public tcp::Application {
 public:
  void on_data(tcp::TcpConnection& conn, std::span<const std::uint8_t>) override {
    conn.abort();
  }
};

std::string_view server_header_for(const GroundTruth& gt, util::Rng& rng) {
  // The Akamai "GHost" server string is what the paper's Table 3 service
  // classifier keys on.
  if (gt.as->service_tag == "akamai") return "GHost";
  if (gt.as->service_tag == "cloudflare") return "cloudflare";
  const double r = rng.uniform01();
  if (r < 0.40) return "Apache";
  if (r < 0.70) return "nginx";
  if (r < 0.85) return "Microsoft-IIS/8.5";
  if (r < 0.95) return "lighttpd";
  return "httpd";
}

}  // namespace

InternetModel::InternetModel(sim::Network& network, ModelConfig config)
    : network_(network),
      config_(config),
      registry_(AsRegistry::standard(config.scale_log2)) {}

InternetModel::~InternetModel() {
  network_.loop().cancel(sweep_event_);
  for (const auto& [ip, entry] : hosts_) {
    network_.detach(ip);
    network_.clear_path(ip);
  }
}

void InternetModel::install() {
  network_.set_resolver([this](net::IPv4Address ip) { return resolve(ip); });
  sweep_event_ = network_.loop().schedule(kSweepInterval, [this] { sweep(); });
}

sim::Endpoint* InternetModel::resolve(net::IPv4Address ip) {
  const GroundTruth gt = truth(ip);
  if (!gt.present) return nullptr;  // dark space: probes just time out

  std::unique_ptr<sim::Endpoint> host =
      gt.adversary ? make_adversarial_host(
                         network_, ip, *gt.adversary,
                         util::mix64(config_.seed ^ 0xad4eULL, ip.value()))
                   : build_host(ip, gt);
  sim::Endpoint* raw = host.get();

  sim::PathConfig path = network_.default_path();
  path.latency = sim::usec(gt.latency_us);
  path.jitter = kPathJitter;
  path.loss_rate = config_.loss_rate;
  path.reorder_rate = config_.reorder_rate;
  path.duplicate_rate = config_.duplicate_rate;
  path.path_mtu = gt.path_mtu;
  network_.set_path(ip, path);

  network_.attach(ip, raw);
  hosts_.emplace(ip, std::move(host));
  ++instantiated_;
  return raw;
}

std::unique_ptr<tcp::TcpHost> InternetModel::build_host(net::IPv4Address ip,
                                                        const GroundTruth& gt) {
  tcp::StackConfig base;
  base.os = gt.os;
  base.own_mss_limit = static_cast<std::uint16_t>(
      gt.path_mtu >= 1500 ? 1460 : gt.path_mtu - 40);
  auto host = std::make_unique<tcp::TcpHost>(network_, ip, base,
                                             util::mix64(config_.seed, ip.value()));

  // The factories capture only {this, ip}, which std::function stores
  // inline; each accepted SYN derives its daemon from truth(ip).
  if (gt.http) {
    host->listen(
        80, [this, ip](net::IPv4Address, std::uint16_t) { return http_app(ip); },
        gt.http_iw);
  }
  if (gt.tls) {
    host->listen(
        443, [this, ip](net::IPv4Address, std::uint16_t) { return tls_app(ip); },
        gt.tls_iw);
  }
  return host;
}

std::unique_ptr<tcp::Application> InternetModel::http_app(net::IPv4Address ip) const {
  GroundTruth gt = truth(ip);
  if (gt.http_category == HttpCategory::Abort) return std::make_unique<AbortApp>();
  return std::make_unique<http::HttpServerApp>(web_config(ip, std::move(gt)));
}

std::unique_ptr<tcp::Application> InternetModel::tls_app(net::IPv4Address ip) const {
  GroundTruth gt = truth(ip);
  if (gt.tls_category == TlsCategory::Abort) return std::make_unique<AbortApp>();
  return std::make_unique<tls::TlsServerApp>(tls_config(ip, std::move(gt)));
}

http::WebConfig InternetModel::web_config(net::IPv4Address ip, GroundTruth gt) const {
  util::Rng rng(util::mix64(config_.seed ^ 0xb111dULL, ip.value()));
  http::WebConfig web;
  web.server_header = server_header_for(gt, rng);
  web.vhost_iw = gt.http_vhost_iw;
  switch (gt.http_category) {
    case HttpCategory::SuccessDirect:
      web.root = http::RootBehavior::Page;
      web.page_size = gt.http_page_bytes;
      break;
    case HttpCategory::SuccessRedirect:
      web.root = http::RootBehavior::RedirectToName;
      web.redirected_page_size = gt.redirect_page_bytes;
      break;
    case HttpCategory::SuccessEcho:
      web.root = http::RootBehavior::NotFoundEcho;
      break;
    case HttpCategory::FewData: {
      const std::uint32_t eff = gt.os == tcp::OsProfile::Windows ? 536 : 64;
      const std::size_t span = gt.few_bound * eff - eff / 2;
      const std::size_t overhead = http::response_head_size(
          {http::StatusCode::Ok, web.server_header, true, {}}, span);
      web.root = span > overhead + 8 ? http::RootBehavior::Page
                                     : http::RootBehavior::RawBanner;
      web.page_size = gt.http_page_bytes;
      break;
    }
    case HttpCategory::NoData:
      web.root = http::RootBehavior::Silent;
      break;
    case HttpCategory::Abort:
      break;  // served by AbortApp, not the httpd
  }
  if (gt.http_vhost_iw || gt.http_category == HttpCategory::SuccessRedirect) {
    web.canonical_name = std::move(gt.canonical_name);
  }
  return web;
}

tls::TlsConfig InternetModel::tls_config(net::IPv4Address ip, GroundTruth gt) const {
  tls::TlsConfig cfg;
  cfg.chain_bytes = gt.chain_bytes;
  cfg.server_name = std::move(gt.canonical_name);
  cfg.seed = util::mix64(config_.seed, ip.value() ^ 3);
  cfg.ocsp_staple = gt.ocsp_staple;
  cfg.sni_iw = gt.tls_vhost_iw;
  switch (gt.tls_category) {
    case TlsCategory::Normal:
      cfg.sni_policy = tls::SniPolicy::Ignore;
      break;
    case TlsCategory::SniAlert:
      cfg.sni_policy = tls::SniPolicy::AlertAndClose;
      break;
    case TlsCategory::SniSilent:
      cfg.sni_policy = tls::SniPolicy::SilentClose;
      break;
    case TlsCategory::ExoticCipher:
      cfg.supported_ciphers = tls::cipher_set(tls::CipherProfile::Exotic);
      break;
    case TlsCategory::Abort:
      break;  // served by AbortApp, not the TLS daemon
  }
  return cfg;
}

void InternetModel::sweep() {
  sweep_event_ = network_.loop().schedule(kSweepInterval, [this] { sweep(); });
  for (auto it = hosts_.begin(); it != hosts_.end();) {
    if (it->second->quiescent()) {
      network_.detach(it->first);
      network_.clear_path(it->first);
      it = hosts_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace iwscan::model
