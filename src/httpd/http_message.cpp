#include "httpd/http_message.hpp"

#include <algorithm>
#include <charconv>

#include "util/strings.hpp"

namespace iwscan::http {
namespace {

std::optional<std::string_view> find_header(const std::vector<Header>& headers,
                                            std::string_view name) {
  for (const auto& header : headers) {
    if (util::iequals(header.name, name)) return header.value;
  }
  return std::nullopt;
}

/// Parse the "Name: value" lines of a header block (the text between the
/// start line and the blank line). Blank lines are skipped.
bool parse_header_block(std::string_view block, std::vector<Header>& out) {
  const auto lines = std::count(block.begin(), block.end(), '\n') + 1;
  out.reserve(out.size() + static_cast<std::size_t>(lines));
  while (true) {
    const std::size_t newline = block.find('\n');
    std::string_view line = block.substr(0, newline);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) {
      const std::size_t colon = line.find(':');
      if (colon == std::string_view::npos) return false;
      out.push_back(Header{std::string(util::trim(line.substr(0, colon))),
                           std::string(util::trim(line.substr(colon + 1)))});
    }
    if (newline == std::string_view::npos) return true;
    block.remove_prefix(newline + 1);
  }
}

}  // namespace

std::optional<std::string_view> HttpRequest::header(std::string_view name) const {
  return find_header(headers, name);
}

bool HttpRequest::wants_close() const {
  const auto connection = header("Connection");
  return connection && util::icontains(*connection, "close");
}

std::optional<std::string_view> HttpResponse::header(std::string_view name) const {
  return find_header(headers, name);
}

std::string HttpResponse::serialize() const {
  std::string out;
  out.reserve(128 + body.size());
  out += version;
  out += ' ';
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\n";
  for (const auto& header : headers) {
    out += header.name;
    out += ": ";
    out += header.value;
    out += "\r\n";
  }
  out += "Content-Length: ";
  out += std::to_string(body.size());
  out += "\r\n\r\n";
  out += body;
  return out;
}

RequestParser::Status RequestParser::feed(std::string_view data) {
  if (complete_) return Status::Complete;
  if (invalid_) return Status::Invalid;
  // A request that arrives whole (the common case: one segment) is parsed
  // where it lies; only a split one is gathered in buffer_.
  std::string_view text = data;
  if (!buffer_.empty() || data.find("\r\n\r\n") == std::string_view::npos) {
    buffer_.append(data);
    text = buffer_;
  }
  if (text.size() > kMaxHeaderBytes) return fail();

  const std::size_t end = text.find("\r\n\r\n");
  if (end == std::string_view::npos) return Status::NeedMore;

  const std::string_view head = text.substr(0, end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  // Exactly three space-separated parts; method and target non-empty.
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = sp1 == std::string_view::npos
                              ? std::string_view::npos
                              : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos || sp1 == 0 ||
      sp2 == sp1 + 1) {
    return fail();
  }
  request_.method = std::string(request_line.substr(0, sp1));
  request_.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  request_.version = std::string(request_line.substr(sp2 + 1));
  if (!request_.version.starts_with("HTTP/")) return fail();

  request_.headers.clear();
  if (line_end != std::string_view::npos &&
      !parse_header_block(head.substr(line_end + 2), request_.headers)) {
    return fail();
  }
  complete_ = true;
  return Status::Complete;
}

RequestParser::Status RequestParser::fail() {
  // Latch: once a request is rejected, later bytes on the same connection
  // must not resurrect it as a parse of a half-garbled buffer.
  invalid_ = true;
  return Status::Invalid;
}

void RequestParser::reset() {
  buffer_.clear();
  request_ = HttpRequest{};
  complete_ = false;
  invalid_ = false;
}

std::optional<ParsedResponseHead> parse_response_head(std::string_view data) {
  const std::size_t end = data.find("\r\n\r\n");
  if (end == std::string_view::npos) return std::nullopt;
  const std::string_view head = data.substr(0, end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view status_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  // "HTTP/1.1 301 Moved Permanently"
  if (!status_line.starts_with("HTTP/")) return std::nullopt;
  const std::size_t sp1 = status_line.find(' ');
  if (sp1 == std::string_view::npos) return std::nullopt;
  const std::size_t sp2 = status_line.find(' ', sp1 + 1);
  const std::string_view code_text =
      status_line.substr(sp1 + 1, sp2 == std::string_view::npos
                                      ? std::string_view::npos
                                      : sp2 - sp1 - 1);
  // RFC 9112: the status code is exactly three digits. from_chars alone
  // would accept "-5", "12345" or a zero-padded "0200" here.
  if (code_text.size() != 3) return std::nullopt;
  int status = 0;
  const auto [ptr, ec] =
      std::from_chars(code_text.data(), code_text.data() + code_text.size(), status);
  if (ec != std::errc{} || ptr != code_text.data() + code_text.size()) {
    return std::nullopt;
  }
  if (status < 100) return std::nullopt;

  ParsedResponseHead parsed;
  parsed.status = status;
  if (sp2 != std::string_view::npos) {
    parsed.reason = std::string(status_line.substr(sp2 + 1));
  }
  parsed.header_bytes = end + 4;
  if (line_end != std::string_view::npos &&
      !parse_header_block(head.substr(line_end + 2), parsed.headers)) {
    return std::nullopt;
  }
  return parsed;
}

std::optional<std::string_view> ParsedResponseHead::header(std::string_view name) const {
  return find_header(headers, name);
}

std::optional<std::uint64_t> ParsedResponseHead::content_length() const {
  const auto value = header("Content-Length");
  if (!value) return std::nullopt;
  return util::parse_u64(util::trim(*value));
}

std::optional<LocationParts> parse_location(std::string_view uri) {
  uri = util::trim(uri);
  if (uri.empty()) return std::nullopt;

  LocationParts parts;
  if (util::istarts_with(uri, "http://")) {
    uri.remove_prefix(7);
  } else if (util::istarts_with(uri, "https://")) {
    uri.remove_prefix(8);
  } else if (uri.front() == '/') {
    parts.path = std::string(uri);
    return parts;
  } else {
    return std::nullopt;
  }

  const std::size_t slash = uri.find('/');
  std::string_view authority = uri;
  if (slash == std::string_view::npos) {
    // Move-assign rather than operator=(const char*): GCC 12's -Wrestrict
    // false-positives on the char* assignment path (GCC PR105329).
    parts.path = std::string("/");
  } else {
    authority = uri.substr(0, slash);
    parts.path = std::string(uri.substr(slash));
  }
  if (authority.empty()) return std::nullopt;
  // Strip an explicit port from the authority.
  if (const std::size_t colon = authority.find(':'); colon != std::string_view::npos) {
    authority = authority.substr(0, colon);
  }
  parts.host = std::string(authority);
  return parts;
}

}  // namespace iwscan::http
