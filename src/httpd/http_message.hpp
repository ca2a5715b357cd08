// HTTP/1.1 messages as the scan uses them: the simulated daemons frame GET
// requests in place and write their responses in one pass; the prober
// parses response heads and Location headers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "netbase/wire.hpp"

namespace iwscan::http {

/// What a simulated server reads of a request, as views into the bytes it
/// was parsed from.
struct RequestView {
  std::string_view target;
  std::optional<std::string_view> host;  // the first Host header's value
  bool wants_close = false;              // the first Connection header says close
};

enum class RequestStatus : std::uint8_t { NeedMore, Complete, Invalid };

/// Frames one request (through the blank line; GET carries no body) from a
/// connection's bytes. A request that arrives whole in one feed is parsed
/// where it lies; only one split over feeds is gathered in a buffer. Both
/// Complete and Invalid latch: later feeds return the same status.
class RequestReader {
 public:
  RequestStatus feed(std::string_view data);

  /// Valid once feed() returned Complete, for as long as the bytes of the
  /// feed that completed the request.
  [[nodiscard]] const RequestView& request() const noexcept { return request_; }

 private:
  RequestStatus parse(std::string_view text);

  std::string pending_;  // a request split over feeds, until its blank line
  RequestView request_;
  RequestStatus status_ = RequestStatus::NeedMore;
};

/// The status lines the simulated daemons answer with.
enum class StatusCode : std::uint16_t { Ok = 200, MovedPermanently = 301, NotFound = 404 };

/// A response head as the daemons write it: the status line, then Server,
/// Content-Type, Connection (when closing) and Location (301 only, to the
/// named host's root), then Content-Length and the blank line.
struct ResponseHead {
  StatusCode status = StatusCode::Ok;
  std::string_view server;
  bool close = false;
  std::string_view location_host;
};

/// Bytes the head takes on the wire in front of a body of `body_bytes`.
[[nodiscard]] std::size_t response_head_size(const ResponseHead& head,
                                             std::size_t body_bytes) noexcept;

/// Writes one response — head, then body — in one pass into a buffer of its
/// exact size. The body writes must total the declared body size.
class ResponseWriter {
 public:
  ResponseWriter(const ResponseHead& head, std::size_t body_bytes);

  void text(std::string_view bytes);
  void fill(std::size_t n, char byte);

  /// The whole response.
  [[nodiscard]] net::Bytes finish() &&;

 private:
  net::Bytes out_;
  std::size_t size_;
};

/// A response's status line and headers (body follows per Content-Length),
/// as the scanner reads probe answers: views into the bytes it was parsed
/// from, valid while they are.
struct ParsedResponseHead {
  int status = 0;
  std::string_view reason;
  std::string_view header_block;  // the header lines, validated by the parse
  std::size_t header_bytes = 0;   // offset where the body starts

  /// The first header named `name` (compared case-insensitively), trimmed.
  [[nodiscard]] std::optional<std::string_view> header(std::string_view name) const;
};

[[nodiscard]] std::optional<ParsedResponseHead> parse_response_head(std::string_view data);

/// Extract the path (and implicit host) from an absolute or relative URI in
/// a Location header. Returns {host, path}; host is empty for relative URIs.
/// Both go into the follow-up request's line and Host header, so a URI
/// holding a space, a control byte or DEL (after trimming its ends) is
/// rejected.
struct LocationParts {
  std::string host;
  std::string path;
};
[[nodiscard]] std::optional<LocationParts> parse_location(std::string_view uri);

}  // namespace iwscan::http
