#include "core/probe_strategy.hpp"

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "httpd/http_message.hpp"
#include "util/bytes.hpp"
#include "util/strings.hpp"

namespace iwscan::core {
namespace {

/// Names the scan and where operators can read about it.
constexpr std::string_view kUserAgent = "iwscan/1.0 (+https://iw.example.net/research)";
/// Long-URI length (§3.2): many servers echo the unknown URI in their 404
/// body, so a long one inflates the error page past the IW. The request
/// carrying it is ~1,466 B with DF set, which exceeds rather than fills
/// smaller path MTUs: on one path in five of the Internet model (MTU 1400,
/// 1376 or 576) it is dropped with ICMP Fragmentation Needed, which the
/// estimator ignores. An echoing host whose IW the short 404 cannot fill
/// then ends FewData instead of Success — a known accuracy defect (ROADMAP).
constexpr std::size_t kLongUriLength = 1300;
/// The curated-URL probe requests the named host's root page.
constexpr std::string_view kCuratedPath = "/";

/// One request's bytes from its pieces, in a single allocation.
net::Bytes concat_bytes(std::initializer_list<std::string_view> pieces) {
  std::size_t size = 0;
  for (const std::string_view piece : pieces) size += piece.size();
  net::Bytes out;
  out.reserve(size);
  for (const std::string_view piece : pieces) {
    const auto bytes = util::as_bytes(piece);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

class HttpStrategy final : public ProbeStrategy {
 public:
  HttpStrategy(net::IPv4Address target, int max_connections, int max_redirect_hops)
      : max_connections_(max_connections),
        max_redirect_hops_(max_redirect_hops),
        origin_(target.to_string()),
        host_(origin_),
        path_("/") {}

  net::Bytes request() override {
    ++connections_;
    // Connection: close makes the server FIN once the response is done —
    // the signal that the IW was *not* filled (§3.2).
    return concat_bytes({"GET ", path_, " HTTP/1.1\r\nHost: ", host_,
                         "\r\nUser-Agent: ", kUserAgent,
                         "\r\nAccept: */*\r\nConnection: close\r\n\r\n"});
  }

  bool wants_followup(const ConnObservation& observation) override {
    if (connections_ >= max_connections_) return false;
    if (observation.outcome == ConnOutcome::Success) return false;
    if (observation.outcome != ConnOutcome::FewData) return false;
    if (observation.prefix.empty()) return false;

    const auto head = http::parse_response_head(util::as_text(observation.prefix));
    if (!head) return false;

    if (head->status == 301 || head->status == 302 || head->status == 307 ||
        head->status == 308) {
      const auto location = head->header("Location");
      if (location) {
        const auto parts = http::parse_location(*location);
        if (parts) {
          const std::string next_host = parts->host.empty() ? host_ : parts->host;
          const std::string next_path = parts->path.empty() ? "/" : parts->path;
          if (visited(next_host + next_path)) {
            // The chain revisits a URL it already served: an infinite
            // redirect loop. Stop here — following it again can only burn
            // the connection budget.
            anomaly_ = ProbeAnomaly::RedirectLoop;
            return false;
          }
          if (redirect_hops_ >= max_redirect_hops_) {
            if (redirect_hops_ >= 2) {
              // A chain still redirecting after several hops is
              // indistinguishable from a loop at our budget.
              anomaly_ = ProbeAnomaly::RedirectLoop;
            }
            return false;
          }
          // A valid URI (and possibly a common name for the Host header)
          // extracted from the error response (§3.2).
          ++redirect_hops_;
          host_ = next_host;
          path_ = next_path;
          redirects_.push_back(host_ + path_);
          return true;
        }
      }
    }

    if (!tried_long_uri_) {
      // Bloat the error page: many servers echo the unknown URI in their
      // 404 body, so a long URI inflates the response (§3.2). The URI
      // states the nature of the scan, as the paper's does.
      tried_long_uri_ = true;
      std::string uri = "/this-is-a-tcp-initial-window-measurement-see-"
                        "iw.example.net-for-details-";
      uri.append(kLongUriLength - uri.size(), 'x');
      path_ = std::move(uri);
      return true;
    }
    return false;
  }

  ProbeAnomaly anomaly() const override { return anomaly_; }

 private:
  /// Whether this attempt already requested `url` (host + path): the
  /// target's root, where every attempt starts, or a redirect's target.
  [[nodiscard]] bool visited(std::string_view url) const {
    const bool origin_root = url.size() == origin_.size() + 1 &&
                             url.starts_with(origin_) && url.ends_with('/');
    return origin_root || std::find(redirects_.begin(), redirects_.end(), url) !=
                              redirects_.end();
  }

  int max_connections_;
  int max_redirect_hops_;
  std::string origin_;  // the target's address, the first Host
  std::string host_;
  std::string path_;
  int connections_ = 0;
  int redirect_hops_ = 0;
  std::vector<std::string> redirects_;  // host + path of each redirect followed
  ProbeAnomaly anomaly_ = ProbeAnomaly::None;
  bool tried_long_uri_ = false;
};

class UrlListStrategy final : public ProbeStrategy {
 public:
  explicit UrlListStrategy(std::string host_header) : host_(std::move(host_header)) {}

  net::Bytes request() override {
    return concat_bytes({"GET ", kCuratedPath, " HTTP/1.1\r\nHost: ", host_,
                         "\r\nUser-Agent: iwscan/1.0 (curated-url mode)\r\n"
                         "Accept: */*\r\nConnection: close\r\n\r\n"});
  }

  bool wants_followup(const ConnObservation&) override {
    // The URL is already known-good; there is nothing to escalate to.
    return false;
  }

 private:
  std::string host_;
};

}  // namespace

std::unique_ptr<ProbeStrategy> make_http_strategy(net::IPv4Address target,
                                                  int max_connections,
                                                  int max_redirect_hops) {
  return std::make_unique<HttpStrategy>(target, max_connections, max_redirect_hops);
}

std::unique_ptr<ProbeStrategy> make_url_list_strategy(std::string host_header) {
  return std::make_unique<UrlListStrategy>(std::move(host_header));
}

}  // namespace iwscan::core
