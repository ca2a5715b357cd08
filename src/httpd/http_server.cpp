#include "httpd/http_server.hpp"

#include <algorithm>
#include <memory>

#include "netbase/ipv4.hpp"
#include "tcpstack/host.hpp"
#include "util/bytes.hpp"
#include "util/strings.hpp"

namespace iwscan::http {
namespace {

/// Filler bytes an echoing 404 page carries around the echoed URI.
constexpr std::size_t kNotFoundPadding = 160;

constexpr std::string_view kMovedBody =
    "<html><head><title>301 Moved Permanently</title></head>"
    "<body><h1>Moved Permanently</h1></body></html>";
constexpr std::string_view kShortNotFoundBody =
    "<html><body><h1>404 Not Found</h1></body></html>";
constexpr std::string_view kEchoHead =
    "<html><head><title>404 Not Found</title></head><body>"
    "<h1>Not Found</h1><p>The requested URL ";
constexpr std::string_view kEchoTail = " was not found on this server.</p>";

constexpr std::string_view kPageHead = "<html><head><title>";
constexpr std::string_view kPageBodyOpen = "</title></head><body>";
constexpr std::string_view kPageFiller = "<p>lorem ipsum dolor sit amet consectetur</p>";
constexpr std::string_view kPageTail = "</body></html>";

/// A page of `size` bytes titled `tag`, unless the fixed markup alone is
/// longer: the markup, lorem-ipsum paragraphs while a whole one fits, and
/// 'x' up to the size.
net::Bytes page(const ResponseHead& head, std::size_t size, std::string_view tag) {
  const std::size_t markup =
      kPageHead.size() + tag.size() + kPageBodyOpen.size() + kPageTail.size();
  ResponseWriter out(head, std::max(size, markup));
  out.text(kPageHead);
  out.text(tag);
  out.text(kPageBodyOpen);
  std::size_t written = markup;
  while (written + kPageFiller.size() < size) {
    out.text(kPageFiller);
    written += kPageFiller.size();
  }
  if (written < size) out.fill(size - written, 'x');
  out.text(kPageTail);
  return std::move(out).finish();
}

/// A response whose body is the constant `body`.
net::Bytes fixed(const ResponseHead& head, std::string_view body) {
  ResponseWriter out(head, body.size());
  out.text(body);
  return std::move(out).finish();
}

/// The 404 page that echoes the requested URI (§3.2's long-URI lever).
net::Bytes echo_not_found(const ResponseHead& head, std::string_view target) {
  ResponseWriter out(head, kEchoHead.size() + target.size() + kEchoTail.size() +
                               kNotFoundPadding + kPageTail.size());
  out.text(kEchoHead);
  out.text(target);
  out.text(kEchoTail);
  out.fill(kNotFoundPadding, '.');
  out.text(kPageTail);
  return std::move(out).finish();
}

/// A non-HTTP service's greeting, cut or '*'-filled to `size` bytes.
net::Bytes raw_banner(std::size_t size) {
  constexpr std::string_view kBanner = "220 device ready\r\n";
  net::Bytes banner(size, '*');
  const auto greeting = util::as_bytes(kBanner.substr(0, std::min(size, kBanner.size())));
  std::copy(greeting.begin(), greeting.end(), banner.begin());
  return banner;
}

}  // namespace

void HttpServerApp::on_data(tcp::TcpConnection& conn,
                            std::span<const std::uint8_t> data) {
  // One response per connection; peers send Connection: close.
  if (responded_ || config_.root == RootBehavior::Silent) return;
  if (config_.root == RootBehavior::RawBanner) {
    responded_ = true;
    conn.send(raw_banner(config_.page_size));
    conn.close();
    return;
  }

  switch (reader_.feed(util::as_text(data))) {
    case RequestStatus::NeedMore:
      return;
    case RequestStatus::Invalid:
      conn.abort();
      return;
    case RequestStatus::Complete:
      break;
  }
  responded_ = true;
  respond(conn, reader_.request());
}

void HttpServerApp::respond(tcp::TcpConnection& conn, const RequestView& request) {
  const WebConfig& web = config_;
  const bool named_vhost = request.host && util::iequals(*request.host, web.canonical_name);
  // Per-vhost IW: a request naming the canonical vhost is served from the
  // vhost's (larger) first-flight config. Must precede the first response
  // byte — set_initial_window is a no-op once the flight has started.
  if (web.vhost_iw && !web.canonical_name.empty() && named_vhost) {
    conn.set_initial_window(*web.vhost_iw);
  }

  ResponseHead head{StatusCode::Ok, web.server_header, request.wants_close,
                    web.canonical_name};
  switch (web.root) {
    case RootBehavior::Page:
      conn.send(page(head, web.page_size, "page"));
      break;

    case RootBehavior::RedirectToName: {
      const bool host_is_name = request.host && !request.host->empty() &&
                                !net::IPv4Address::parse(*request.host).has_value();
      if (request.target == "/" && !host_is_name) {
        head.status = StatusCode::MovedPermanently;
        conn.send(fixed(head, kMovedBody));
      } else {
        // Named virtual host (or deep link): the real page.
        conn.send(page(head, web.redirected_page_size, "vhost"));
      }
      break;
    }

    case RootBehavior::NotFoundEcho:
      head.status = StatusCode::NotFound;
      conn.send(echo_not_found(head, request.target));
      break;

    case RootBehavior::VirtualHosted:
      // Only a valid (customer) Host name selects a real service; IP-based
      // probing sees a short error — the reason the paper's generalized
      // methodology cannot assess virtualized services without prior
      // knowledge (§4.3/§5).
      if (named_vhost) {
        conn.send(page(head, web.redirected_page_size, "vhost"));
      } else {
        head.status = StatusCode::NotFound;
        conn.send(fixed(head, kShortNotFoundBody));
      }
      break;

    case RootBehavior::RawBanner:
    case RootBehavior::Silent:
      return;  // answered before parsing
  }
  if (request.wants_close || head.status == StatusCode::MovedPermanently) conn.close();
}

tcp::TcpHost::AppFactory HttpServerApp::factory(WebConfig config) {
  return [config = std::move(config)](net::IPv4Address, std::uint16_t) {
    return std::make_unique<HttpServerApp>(config);
  };
}

}  // namespace iwscan::http
