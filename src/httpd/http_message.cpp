#include "httpd/http_message.hpp"

#include <charconv>

#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace iwscan::http {
namespace {

/// A request head longer than this (a hostile or broken peer) is rejected.
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;

/// Calls on_header(name, value), both trimmed, for each "Name: value" line
/// of a header block (the text between the start line and the blank line).
/// Blank lines are skipped; a line without a colon ends the walk with false.
template <typename OnHeader>
bool walk_header_block(std::string_view block, OnHeader&& on_header) {
  while (true) {
    const std::size_t newline = block.find('\n');
    std::string_view line = block.substr(0, newline);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) {
      const std::size_t colon = line.find(':');
      if (colon == std::string_view::npos) return false;
      on_header(util::trim(line.substr(0, colon)), util::trim(line.substr(colon + 1)));
    }
    if (newline == std::string_view::npos) return true;
    block.remove_prefix(newline + 1);
  }
}

std::string_view status_line(StatusCode status) noexcept {
  switch (status) {
    case StatusCode::Ok: return "200 OK";
    case StatusCode::MovedPermanently: return "301 Moved Permanently";
    case StatusCode::NotFound: return "404 Not Found";
  }
  IWSCAN_UNREACHABLE("unknown status code");
}

/// Hands the head's pieces, in wire order, to `emit`: the one place the
/// response format is spelled out, shared by the size and the writer.
template <typename Emit>
void emit_head(const ResponseHead& head, std::size_t body_bytes, Emit&& emit) {
  char digits[20];
  const char* digits_end = std::to_chars(digits, digits + sizeof digits, body_bytes).ptr;
  emit("HTTP/1.1 ");
  emit(status_line(head.status));
  emit("\r\nServer: ");
  emit(head.server);
  emit("\r\nContent-Type: text/html\r\n");
  if (head.close) emit("Connection: close\r\n");
  if (head.status == StatusCode::MovedPermanently) {
    emit("Location: http://");
    emit(head.location_host);
    emit("/\r\n");
  }
  emit("Content-Length: ");
  emit(std::string_view(digits, static_cast<std::size_t>(digits_end - digits)));
  emit("\r\n\r\n");
}

}  // namespace

RequestStatus RequestReader::feed(std::string_view data) {
  if (status_ != RequestStatus::NeedMore) return status_;
  // A request that arrives whole (the common case: one segment) is parsed
  // where it lies; only a split one is gathered in pending_.
  std::string_view text = data;
  if (!pending_.empty() || data.find("\r\n\r\n") == std::string_view::npos) {
    pending_.append(data);
    text = pending_;
  }
  status_ = parse(text);
  return status_;
}

RequestStatus RequestReader::parse(std::string_view text) {
  if (text.size() > kMaxHeaderBytes) return RequestStatus::Invalid;
  const std::size_t end = text.find("\r\n\r\n");
  if (end == std::string_view::npos) return RequestStatus::NeedMore;

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
      sp2 == sp1 + 1 || !request_line.substr(sp2 + 1).starts_with("HTTP/")) {
    return RequestStatus::Invalid;
  }

  RequestView request;
  request.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  bool connection_seen = false;
  const auto on_header = [&](std::string_view name, std::string_view value) {
    if (!request.host && util::iequals(name, "Host")) request.host = value;
    if (!connection_seen && util::iequals(name, "Connection")) {
      connection_seen = true;
      request.wants_close = util::icontains(value, "close");
    }
  };
  if (line_end != std::string_view::npos &&
      !walk_header_block(head.substr(line_end + 2), on_header)) {
    return RequestStatus::Invalid;
  }
  request_ = request;
  return RequestStatus::Complete;
}

std::size_t response_head_size(const ResponseHead& head,
                               std::size_t body_bytes) noexcept {
  std::size_t size = 0;
  emit_head(head, body_bytes, [&size](std::string_view piece) { size += piece.size(); });
  return size;
}

ResponseWriter::ResponseWriter(const ResponseHead& head, std::size_t body_bytes)
    : size_(response_head_size(head, body_bytes) + body_bytes) {
  out_.reserve(size_);
  emit_head(head, body_bytes, [this](std::string_view piece) { text(piece); });
}

void ResponseWriter::text(std::string_view bytes) {
  const auto raw = util::as_bytes(bytes);
  out_.insert(out_.end(), raw.begin(), raw.end());
}

void ResponseWriter::fill(std::size_t n, char byte) {
  out_.insert(out_.end(), n, static_cast<std::uint8_t>(byte));
}

net::Bytes ResponseWriter::finish() && {
  IWSCAN_ASSERT(out_.size() == size_, "response body differs from its declared size");
  return std::move(out_);
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
  if (sp2 != std::string_view::npos) parsed.reason = status_line.substr(sp2 + 1);
  parsed.header_bytes = end + 4;
  if (line_end != std::string_view::npos) {
    parsed.header_block = head.substr(line_end + 2);
    if (!walk_header_block(parsed.header_block, [](std::string_view, std::string_view) {})) {
      return std::nullopt;
    }
  }
  return parsed;
}

std::optional<std::string_view> ParsedResponseHead::header(std::string_view name) const {
  std::optional<std::string_view> found;
  walk_header_block(header_block, [&](std::string_view key, std::string_view value) {
    if (!found && util::iequals(key, name)) found = value;
  });
  return found;
}

std::optional<LocationParts> parse_location(std::string_view uri) {
  uri = util::trim(uri);
  if (uri.empty()) return std::nullopt;
  for (const char c : uri) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte <= 0x20 || byte == 0x7f) return std::nullopt;
  }

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
