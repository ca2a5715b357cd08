// Structured fuzz driver for 301 Location parsing (http::parse_location) —
// the single input an adversarial redirecting host fully controls. The HTTP
// prober (core/host_prober) checks the (host, path) this parser returns
// against the URLs its probe already visited and writes them into its next
// request line and Host header, so the invariants below are what keep a
// hostile Location header from derailing redirect following (see the
// RedirectLoop profile in inetmodel/adversarial.hpp) or injecting into the
// next request.
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>

#include "fuzz_harness.hpp"
#include "httpd/http_message.hpp"
#include "util/bytes.hpp"

namespace {

using iwscan::fuzz::Input;

void require(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "location property violated: %s\n", what);
    std::abort();
  }
}

void fuzz_one(std::span<const std::uint8_t> data) {
  namespace http = iwscan::http;
  const std::string_view text = iwscan::util::as_text(data);

  const auto parts = http::parse_location(text);
  {
    // Deterministic: same bytes, same verdict.
    const auto again = http::parse_location(text);
    require(parts.has_value() == again.has_value(),
            "parse verdict differs between identical calls");
  }
  if (!parts) return;

  // The redirect follower compares host and path against the URLs it
  // visited and writes them into its next request; both must be
  // well-formed.
  require(!parts->path.empty(), "parsed path is empty");
  require(parts->path.front() == '/', "parsed path does not start with '/'");
  require(parts->host.find('/') == std::string::npos,
          "parsed host contains a path separator");
  require(parts->host.find(':') == std::string::npos,
          "parsed host still carries a port");
  // RFC 3986: the host ends before any query or fragment and holds no
  // userinfo, and the fragment never reaches the request line.
  require(parts->host.find_first_of("?#@") == std::string::npos,
          "parsed host holds a query, fragment or userinfo");
  require(parts->path.find('#') == std::string::npos, "parsed path holds a fragment");
  // Nothing that could split the request line or the Host header: no
  // space, control byte or DEL.
  const auto clean = [](const std::string& text) {
    for (const char c : text) {
      const auto byte = static_cast<unsigned char>(c);
      if (byte <= 0x20 || byte == 0x7f) return false;
    }
    return true;
  };
  require(clean(parts->host), "parsed host holds a space, control byte or DEL");
  require(clean(parts->path), "parsed path holds a space, control byte or DEL");

  // Normalization is idempotent: re-serializing the parts and re-parsing
  // yields the same parts — a hostile Location cannot smuggle a different
  // target past the visited-set by round-tripping.
  if (!parts->host.empty()) {
    const std::string rebuilt = "http://" + parts->host + parts->path;
    const auto reparsed = http::parse_location(rebuilt);
    require(reparsed.has_value(), "normalized absolute Location fails to parse");
    require(reparsed->host == parts->host && reparsed->path == parts->path,
            "absolute Location round-trip is not idempotent");
  } else {
    const auto reparsed = http::parse_location(parts->path);
    require(reparsed.has_value(), "normalized relative Location fails to parse");
    require(reparsed->host.empty() && reparsed->path == parts->path,
            "relative Location round-trip is not idempotent");
  }
}

std::vector<Input> fuzz_corpus() {
  std::vector<Input> corpus;
  const auto push = [&corpus](std::string_view text) {
    corpus.emplace_back(text.begin(), text.end());
  };

  // The shapes real (and adversarially looping) servers emit.
  push("http://www.example.com/");
  push("https://www.example.com:8443/path?q=1#frag");
  push("http://example.com");  // authority only, no path
  push("/loop-a");
  push("/loop-b");
  push("  /padded/path  ");
  push("HTTP://UPPER.example/MiXeD");
  push("//protocol-relative.example/x");
  push("http:///no-authority");
  push("http://:8080/port-only");
  push("http://example.com?x=1");
  push("http://user:pw@example.com:81/a?b=@c#f");
  push("/../../../etc/passwd");
  push("relative-no-slash");
  push("");
  push("http://host/very" + std::string(2000, 'x'));
  push("http://ho\tst/\r\n");
  push("\xff\xfe http://bytes.example/\x80");
  return corpus;
}

}  // namespace

IWSCAN_FUZZ_DRIVER(fuzz_one, fuzz_corpus)
