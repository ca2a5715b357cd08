// HTTP origin-server behaviour models.
//
// Each simulated web host gets a WebConfig capturing the behaviours the
// paper's HTTP probing method interacts with (§3.2):
//   * direct 200 pages of varying size (enough data vs. "few data"),
//   * virtual-hosting 301 redirects whose Location reveals a valid URI,
//   * 404 pages that echo the (deliberately bloated) request URI — and the
//     Akamai-style variant that stopped echoing mid-study,
//   * Connection: close honoring, which lets the scanner observe a FIN when
//     a response ends before the IW is exhausted.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "httpd/http_message.hpp"
#include "tcpstack/connection.hpp"
#include "tcpstack/host.hpp"

namespace iwscan::http {

enum class RootBehavior {
  Page,            // "/" serves a page directly
  RedirectToName,  // "/" with an IP Host header → 301 to the canonical name
  NotFoundEcho,    // unknown URIs → 404 echoing the request URI
  RawBanner,       // non-HTTP service: page_size raw bytes, then close
  Silent,          // accepts requests, never answers (Table 2 "NoData")
  VirtualHosted,   // CDN edge: real page only for a known Host header,
                   // short non-echoing 404 otherwise (§4.3 Akamai model)
};

struct WebConfig {
  RootBehavior root = RootBehavior::Page;
  std::size_t page_size = 4096;        // body bytes of the canonical page
  std::string canonical_name;          // e.g. "www.example-a1b2.net"
  std::string_view server_header = "Apache";  // a string literal
  // When redirecting: body size of the page reached via the redirect.
  std::size_t redirected_page_size = 8192;
  // Per-vhost IW split (CDN edges): requests whose Host header names the
  // canonical vhost are answered with this IwConfig instead of the
  // listener's default — applied before the first response byte, so
  // IP-as-Host probing measures a different window than named probing.
  std::optional<tcp::IwConfig> vhost_iw;
};

/// Per-connection HTTP application. Create via factory() for TcpHost.
class HttpServerApp final : public tcp::Application {
 public:
  explicit HttpServerApp(WebConfig config) : config_(std::move(config)) {}

  void on_data(tcp::TcpConnection& conn, std::span<const std::uint8_t> data) override;

  /// TcpHost-compatible factory: every connection it creates gets its own
  /// copy of `config`.
  [[nodiscard]] static tcp::TcpHost::AppFactory factory(WebConfig config);

 private:
  void respond(tcp::TcpConnection& conn, const RequestView& request);

  WebConfig config_;
  RequestReader reader_;
  bool responded_ = false;
};

}  // namespace iwscan::http
