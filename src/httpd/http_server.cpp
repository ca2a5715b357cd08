#include "httpd/http_server.hpp"

#include <algorithm>

#include "netbase/ipv4.hpp"
#include "tcpstack/host.hpp"
#include "util/bytes.hpp"
#include "util/strings.hpp"

namespace iwscan::http {
namespace {

/// Filler bytes an echoing 404 page carries around the echoed URI.
constexpr std::size_t kNotFoundPadding = 160;

}  // namespace

void HttpServerApp::on_data(tcp::TcpConnection& conn,
                            std::span<const std::uint8_t> data) {
  if (config_->root == RootBehavior::Silent) return;
  if (config_->root == RootBehavior::RawBanner) {
    if (responded_) return;
    responded_ = true;
    std::string banner = "220 device ready\r\n";
    if (banner.size() < config_->page_size) {
      banner.append(config_->page_size - banner.size(), '*');
    } else {
      banner.resize(config_->page_size);
    }
    conn.send(banner);
    conn.close();
    return;
  }

  switch (parser_.feed(util::as_text(data))) {
    case RequestParser::Status::NeedMore:
      return;
    case RequestParser::Status::Invalid:
      conn.abort();
      return;
    case RequestParser::Status::Complete:
      break;
  }
  if (responded_) return;  // one response per connection; peers send Connection: close
  responded_ = true;
  respond(conn, parser_.request());
}

void HttpServerApp::respond(tcp::TcpConnection& conn, const HttpRequest& request) {
  // Per-vhost IW: a request naming the canonical vhost is served from the
  // vhost's (larger) first-flight config. Must precede the first response
  // byte — set_initial_window is a no-op once the flight has started.
  if (config_->vhost_iw && !config_->canonical_name.empty()) {
    const auto host = request.header("Host");
    if (host && util::iequals(*host, config_->canonical_name)) {
      conn.set_initial_window(*config_->vhost_iw);
    }
  }
  const HttpResponse response = build_response(request);
  conn.send(response.serialize());
  if (request.wants_close() || response.status == 301) conn.close();
}

HttpResponse HttpServerApp::build_response(const HttpRequest& request) const {
  HttpResponse response;
  // Server, Content-Type, and at most Connection and Location.
  response.headers.reserve(4);
  response.headers.push_back({"Server", config_->server_header});
  response.headers.push_back({"Content-Type", "text/html"});
  if (request.wants_close()) response.headers.push_back({"Connection", "close"});

  const auto host = request.header("Host");
  const bool host_is_name = host && !net::IPv4Address::parse(*host).has_value() &&
                            !host->empty();
  const bool is_root = request.target == "/";

  switch (config_->root) {
    case RootBehavior::Page:
      response.status = 200;
      response.reason = "OK";
      response.body = page_body(config_->page_size, "page");
      return response;

    case RootBehavior::RedirectToName:
      if (is_root && !host_is_name) {
        response.status = 301;
        response.reason = "Moved Permanently";
        response.headers.push_back(
            {"Location", "http://" + config_->canonical_name + "/"});
        response.body = "<html><head><title>301 Moved Permanently</title></head>"
                        "<body><h1>Moved Permanently</h1></body></html>";
        return response;
      }
      // Named virtual host (or deep link): the real page.
      response.status = 200;
      response.reason = "OK";
      response.body = page_body(config_->redirected_page_size, "vhost");
      return response;

    case RootBehavior::NotFoundEcho: {
      response.status = 404;
      response.reason = "Not Found";
      std::string body = "<html><head><title>404 Not Found</title></head><body>"
                         "<h1>Not Found</h1><p>The requested URL ";
      body += request.target;
      body += " was not found on this server.</p>";
      body.append(kNotFoundPadding, '.');
      body += "</body></html>";
      response.body = std::move(body);
      return response;
    }

    case RootBehavior::VirtualHosted:
      // Only a valid (customer) Host name selects a real service; IP-based
      // probing sees a short error — the reason the paper's generalized
      // methodology cannot assess virtualized services without prior
      // knowledge (§4.3/§5).
      if (host && util::iequals(*host, config_->canonical_name)) {
        response.status = 200;
        response.reason = "OK";
        response.body = page_body(config_->redirected_page_size, "vhost");
      } else {
        response.status = 404;
        response.reason = "Not Found";
        response.body = "<html><body><h1>404 Not Found</h1></body></html>";
      }
      return response;

    case RootBehavior::RawBanner:
    case RootBehavior::Silent:
      break;  // handled before parsing; unreachable here
  }
  response.status = 500;
  response.reason = "Internal Server Error";
  return response;
}

std::string HttpServerApp::page_body(std::size_t size, std::string_view tag) {
  static constexpr std::string_view kHead = "<html><head><title>";
  static constexpr std::string_view kBodyOpen = "</title></head><body>";
  static constexpr std::string_view kFiller =
      "<p>lorem ipsum dolor sit amet consectetur</p>";
  static constexpr std::string_view kTail = "</body></html>";
  std::string body;
  // The page is `size` bytes unless the fixed markup alone is longer.
  const std::size_t markup = kHead.size() + tag.size() + kBodyOpen.size() + kTail.size();
  body.reserve(std::max(size, markup));
  body += kHead;
  body += tag;
  body += kBodyOpen;
  while (body.size() + kFiller.size() + kTail.size() < size) body += kFiller;
  if (body.size() + kTail.size() < size) {
    body.append(size - body.size() - kTail.size(), 'x');
  }
  body += kTail;
  return body;
}

tcp::TcpHost::AppFactory HttpServerApp::factory(WebConfig config) {
  return [shared = std::make_shared<const WebConfig>(std::move(config))](
             net::IPv4Address, std::uint16_t) {
    return std::make_unique<HttpServerApp>(shared);
  };
}

}  // namespace iwscan::http
