// Structured fuzz driver for the HTTP codec (httpd/http_message).
//
// Covers both directions the scanner uses: parse_response_head on probe
// answers (status line, headers, Content-Length, Location → redirect
// following; every header lookup a view into the input, equal to a plain
// first-match line scan) and the in-place RequestReader the simulated
// servers run on attacker-supplied request bytes.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <span>
#include <string_view>

#include "fuzz_harness.hpp"
#include "httpd/http_message.hpp"
#include "util/bytes.hpp"
#include "util/strings.hpp"

namespace {

using iwscan::fuzz::Input;

void require(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "http property violated: %s\n", what);
    std::abort();
  }
}

/// True iff `view` lies inside `text` (an empty view lies anywhere).
bool lies_inside(std::string_view view, std::string_view text) {
  return view.empty() ||
         (std::less_equal<>{}(text.data(), view.data()) &&
          std::less_equal<>{}(view.data() + view.size(), text.data() + text.size()));
}

/// The first header named `name` of a parsed response head, by a plain scan
/// of the lines between the status line and the blank line: the oracle
/// ParsedResponseHead::header must agree with.
std::optional<std::string_view> first_header(std::string_view text, std::string_view name) {
  namespace util = iwscan::util;
  const std::size_t end = text.find("\r\n\r\n");
  const std::size_t status_end = text.find("\r\n");
  if (status_end == end) return std::nullopt;  // no header lines
  std::string_view block = text.substr(status_end + 2, end - status_end - 2);
  while (!block.empty()) {
    const std::size_t newline = block.find('\n');
    std::string_view line = block.substr(0, newline);
    block = newline == std::string_view::npos ? std::string_view{}
                                              : block.substr(newline + 1);
    if (line.ends_with('\r')) line.remove_suffix(1);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos && util::iequals(util::trim(line.substr(0, colon)), name)) {
      return util::trim(line.substr(colon + 1));
    }
  }
  return std::nullopt;
}

void fuzz_one(std::span<const std::uint8_t> data) {
  const std::string_view text = iwscan::util::as_text(data);

  // ---- Response path (scanner side) ----
  if (const auto head = iwscan::http::parse_response_head(text)) {
    require(head->header_bytes <= text.size(),
            "header_bytes points past the input");
    require(head->status >= 100 && head->status <= 999,
            "status outside the three-digit range accepted");
    require(lies_inside(head->reason, text) && lies_inside(head->header_block, text),
            "reason or header block is not a view into the input");
    for (const std::string_view name :
         {"Location", "server", "CONTENT-LENGTH", "Content-Type", ""}) {
      const auto value = head->header(name);
      const auto expected = first_header(text, name);
      require(!value || lies_inside(*value, text), "header value is not a view into the input");
      require(value.has_value() == expected.has_value() &&
                  (!value || (value->data() == expected->data() &&
                              value->size() == expected->size())),
              "header lookup differs from the first-match line scan");
    }
    if (const auto location = head->header("Location")) {
      if (const auto parts = iwscan::http::parse_location(*location)) {
        require(parts->host.empty() || parts->host.find('/') == std::string::npos,
                "parsed Location host contains a path separator");
        require(!parts->path.empty(), "parsed Location path is empty");
      }
    }
  }

  // ---- Request path (simulated server side) ----
  namespace http = iwscan::http;
  http::RequestReader whole;
  const http::RequestStatus status = whole.feed(text);
  const auto same_request = [&whole](const http::RequestView& other) {
    return other.target == whole.request().target &&
           other.host == whole.request().host &&
           other.wants_close == whole.request().wants_close;
  };
  // Every two-way split must give what the whole input gives.
  for (std::size_t cut = 1; cut < text.size(); ++cut) {
    http::RequestReader split;
    http::RequestStatus split_status = split.feed(text.substr(0, cut));
    if (split_status == http::RequestStatus::NeedMore) {
      split_status = split.feed(text.substr(cut));
    }
    require(split_status == status, "split vs whole-buffer status disagree");
    require(status != http::RequestStatus::Complete || same_request(split.request()),
            "split vs whole-buffer request disagree");
  }
  // Hostile chunk sizes, the same.
  static constexpr std::size_t kChunks[] = {1, 5, 113};
  http::RequestReader chunked;
  http::RequestStatus chunked_status = http::RequestStatus::NeedMore;
  for (std::size_t pos = 0, i = 0;
       pos < text.size() && chunked_status == http::RequestStatus::NeedMore; ++i) {
    const std::size_t n = std::min(kChunks[i % 3], text.size() - pos);
    chunked_status = chunked.feed(text.substr(pos, n));
    pos += n;
  }
  require(chunked_status == status, "chunked vs whole-buffer status disagree");
  require(status != http::RequestStatus::Complete || same_request(chunked.request()),
          "chunked vs whole-buffer request disagree");
  // Latched: anything fed afterwards must keep the status and the request.
  if (status == http::RequestStatus::Invalid) {
    require(whole.feed("GET / HTTP/1.1\r\n\r\n") == http::RequestStatus::Invalid,
            "Invalid state did not latch");
  } else if (status == http::RequestStatus::Complete) {
    const std::string_view target = whole.request().target;
    require(whole.feed("NOT-HTTP\r\n\r\n") == http::RequestStatus::Complete &&
                whole.request().target == target,
            "Complete state did not latch");
  }

  // parse_location accepts arbitrary text directly.
  (void)http::parse_location(text);
}

std::vector<Input> fuzz_corpus() {
  namespace http = iwscan::http;
  std::vector<Input> corpus;
  const auto push = [&corpus](std::string_view text) {
    corpus.emplace_back(text.begin(), text.end());
  };

  // The simulated daemons' own responses, as the one writer makes them.
  const auto respond = [&push](const http::ResponseHead& head, std::string_view body) {
    http::ResponseWriter out(head, body.size());
    out.text(body);
    const iwscan::net::Bytes bytes = std::move(out).finish();
    push(iwscan::util::as_text(bytes));
  };
  respond({http::StatusCode::Ok, "Apache/2.4", false, {}},
          "<html><body>hello</body></html>");
  respond({http::StatusCode::MovedPermanently, "Apache", true, "www.example.com:8080"},
          "<html><body><h1>Moved Permanently</h1></body></html>");
  respond({http::StatusCode::NotFound, "GHost", true, {}},
          "<html><body><p>The requested URL /xxxx was not found</p></body></html>");

  push("GET / HTTP/1.1\r\nHost: example.com\r\nConnection: close\r\n\r\n");
  push("GET /this-is-a-long-uri-xxxxxxxxxxxxxxxx HTTP/1.0\r\n\r\n");
  push("HTTP/1.1 404 Not Found\r\nContent-Length: 99999999999999999999\r\n\r\n");
  push("HTTP/1.1 200 OK\r\nServer: x\r\n");  // missing CRLFCRLF
  push("220 device ready\r\n");              // raw banner, not HTTP at all
  return corpus;
}

}  // namespace

IWSCAN_FUZZ_DRIVER(fuzz_one, fuzz_corpus)
