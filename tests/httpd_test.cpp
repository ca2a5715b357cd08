// HTTP message parsing and origin-server behaviour (§3.2's counterparty).
#include <gtest/gtest.h>

#include "httpd/http_message.hpp"
#include "httpd/http_server.hpp"
#include "netsim/network.hpp"
#include "tcpstack/host.hpp"
#include "tcpstack/seq.hpp"

namespace iwscan::http {
namespace {

// ------------------------------------------------------ RequestReader ----

TEST(RequestReader, ParsesSimpleGet) {
  RequestReader reader;
  const std::string wire =
      "GET /index.html HTTP/1.1\r\nHost: example.com\r\n"
      "Connection: close\r\n\r\n";
  ASSERT_EQ(reader.feed(wire), RequestStatus::Complete);
  const RequestView& request = reader.request();
  EXPECT_EQ(request.target, "/index.html");
  EXPECT_EQ(request.host, "example.com");
  EXPECT_TRUE(request.wants_close);
  // A request that arrives whole is parsed where it lies.
  EXPECT_EQ(request.target.data(), wire.data() + 4);
}

TEST(RequestReader, HeadersAreMatchedCaseInsensitivelyFirstWins) {
  RequestReader reader;
  ASSERT_EQ(reader.feed("GET / HTTP/1.1\r\nhOST:  a.example \r\nHost: b.example\r\n"
                        "CONNECTION: keep-alive\r\nConnection: close\r\n\r\n"),
            RequestStatus::Complete);
  EXPECT_EQ(reader.request().host, "a.example");
  EXPECT_FALSE(reader.request().wants_close);

  RequestReader bare;
  ASSERT_EQ(bare.feed("GET / HTTP/1.0\r\n\r\n"), RequestStatus::Complete);
  EXPECT_FALSE(bare.request().host.has_value());
  EXPECT_FALSE(bare.request().wants_close);
}

TEST(RequestReader, IncrementalFeeding) {
  RequestReader reader;
  EXPECT_EQ(reader.feed("GET / HT"), RequestStatus::NeedMore);
  EXPECT_EQ(reader.feed("TP/1.1\r\nHost: h"), RequestStatus::NeedMore);
  EXPECT_EQ(reader.feed("\r\n\r\n"), RequestStatus::Complete);
  EXPECT_EQ(reader.request().host, "h");
}

TEST(RequestReader, InvalidRequests) {
  for (const std::string_view wire :
       {"GARBAGE\r\n\r\n", "GET /\r\n\r\n", "GET / FTP/1.0\r\n\r\n",
        "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"}) {
    RequestReader reader;
    EXPECT_EQ(reader.feed(wire), RequestStatus::Invalid) << wire;
  }
  // The request line is three space-separated parts; method and target are
  // non-empty.
  for (const std::string_view line :
       {"GET  HTTP/1.1", " / HTTP/1.1", "GET / HTTP/1.1 extra", "GET /HTTP/1.1"}) {
    RequestReader reader;
    EXPECT_EQ(reader.feed(std::string(line) + "\r\n\r\n"), RequestStatus::Invalid)
        << line;
  }
}

TEST(RequestReader, WholeAndSplitFeedsAgree) {
  // A request arriving in one piece is parsed in place; one split across
  // feeds is gathered first. Both must yield the same request.
  const std::string wire =
      "GET /a?b=c HTTP/1.0\r\nHost: example.com\r\n\r\nConnection: close\r\n"
      "\r\n";
  RequestReader whole;
  ASSERT_EQ(whole.feed(wire), RequestStatus::Complete);
  EXPECT_EQ(whole.request().target, "/a?b=c");
  EXPECT_FALSE(whole.request().wants_close);  // stops at the first blank line
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    RequestReader split;
    auto status = split.feed(std::string_view(wire).substr(0, cut));
    if (status == RequestStatus::NeedMore) {
      status = split.feed(std::string_view(wire).substr(cut));
    }
    ASSERT_EQ(status, RequestStatus::Complete) << cut;
    EXPECT_EQ(split.request().target, whole.request().target) << cut;
    EXPECT_EQ(split.request().host, whole.request().host) << cut;
    EXPECT_EQ(split.request().wants_close, whole.request().wants_close) << cut;
  }
}

TEST(RequestReader, HeaderFloodIsRejected) {
  RequestReader reader;
  std::string flood = "GET / HTTP/1.1\r\n";
  while (flood.size() < 70'000) flood += "X-Pad: aaaaaaaaaaaaaaaaaaaaaaa\r\n";
  EXPECT_EQ(reader.feed(flood), RequestStatus::Invalid);
}

TEST(RequestReader, CompleteAndInvalidLatch) {
  RequestReader invalid;
  EXPECT_EQ(invalid.feed("NOT-HTTP\r\n\r\n"), RequestStatus::Invalid);
  // A valid request on the same connection must not resurrect the reader.
  EXPECT_EQ(invalid.feed("GET / HTTP/1.1\r\n\r\n"), RequestStatus::Invalid);

  RequestReader complete;
  ASSERT_EQ(complete.feed("GET /a HTTP/1.1\r\n\r\n"), RequestStatus::Complete);
  EXPECT_EQ(complete.feed("GARBAGE\r\n\r\n"), RequestStatus::Complete);
  EXPECT_EQ(complete.request().target, "/a");
}

// ----------------------------------------------------- ResponseWriter ----

std::string written(const ResponseHead& head, std::string_view body) {
  ResponseWriter out(head, body.size());
  out.text(body);
  const net::Bytes bytes = std::move(out).finish();
  return std::string(bytes.begin(), bytes.end());
}

TEST(ResponseWriter, WritesHeadersInOrderAndContentLength) {
  const std::string wire = written({StatusCode::NotFound, "testd", false, {}}, "12345");
  EXPECT_EQ(wire,
            "HTTP/1.1 404 Not Found\r\nServer: testd\r\nContent-Type: text/html\r\n"
            "Content-Length: 5\r\n\r\n12345");
  EXPECT_EQ(written({StatusCode::MovedPermanently, "Apache", true, "www.example.net"},
                    "moved"),
            "HTTP/1.1 301 Moved Permanently\r\nServer: Apache\r\n"
            "Content-Type: text/html\r\nConnection: close\r\n"
            "Location: http://www.example.net/\r\nContent-Length: 5\r\n\r\nmoved");
}

TEST(ResponseWriter, HeadSizeMatchesWrittenHead) {
  // The head-size function is what ground truth sizes few-data pages with;
  // it must count exactly the head the writer puts in front of each body.
  for (const std::string_view server : {"GHost", "Apache", "Microsoft-IIS/8.5"}) {
    for (const StatusCode status :
         {StatusCode::Ok, StatusCode::MovedPermanently, StatusCode::NotFound}) {
      for (const std::size_t body : {0u, 9u, 10u, 99u, 100u, 1460u, 12345u}) {
        for (const bool close : {false, true}) {
          const ResponseHead head{status, server, close, "www.canonical.test"};
          ResponseWriter out(head, body);
          out.fill(body, 'x');
          const net::Bytes bytes = std::move(out).finish();
          const std::string wire(bytes.begin(), bytes.end());
          const auto parsed = parse_response_head(wire);
          ASSERT_TRUE(parsed);
          EXPECT_EQ(parsed->status, static_cast<int>(status));
          EXPECT_EQ(parsed->header_bytes, wire.size() - body);
          EXPECT_EQ(parsed->header("Content-Length"), std::to_string(body));
          EXPECT_EQ(response_head_size(head, body), wire.size() - body)
              << server << " " << static_cast<int>(status) << " " << body << " "
              << close;
        }
      }
    }
  }
}

TEST(ParseResponseHead, RoundTrip) {
  const std::string wire = written(
      {StatusCode::MovedPermanently, "Apache", false, "www.example.net"}, "moved");
  const auto head = parse_response_head(wire);
  ASSERT_TRUE(head);
  EXPECT_EQ(head->status, 301);
  EXPECT_EQ(head->reason, "Moved Permanently");
  EXPECT_EQ(head->header("location"), "http://www.example.net/");
  EXPECT_EQ(wire.substr(head->header_bytes), "moved");
}

TEST(ParseResponseHead, RejectsPartialAndGarbage) {
  EXPECT_FALSE(parse_response_head("HTTP/1.1 200 OK\r\nServer: x\r\n"));
  EXPECT_FALSE(parse_response_head("SSH-2.0-OpenSSH\r\n\r\n"));
  EXPECT_FALSE(parse_response_head("HTTP/1.1 abc OK\r\n\r\n"));
  EXPECT_FALSE(parse_response_head(""));
}

TEST(ParseResponseHead, RejectsOutOfRangeStatus) {
  // from_chars alone would happily parse these; the status must be the
  // three-digit code RFC 9112 requires.
  EXPECT_FALSE(parse_response_head("HTTP/1.1 -5 Bad\r\n\r\n"));
  EXPECT_FALSE(parse_response_head("HTTP/1.1 99 Low\r\n\r\n"));
  EXPECT_FALSE(parse_response_head("HTTP/1.1 12345 High\r\n\r\n"));
  EXPECT_TRUE(parse_response_head("HTTP/1.1 100 Continue\r\n\r\n"));
  EXPECT_TRUE(parse_response_head("HTTP/1.1 999 Max\r\n\r\n"));
}

TEST(ParseResponseHead, StatusCodeIsExactlyThreeDigits) {
  // Only a three-digit token is a status code. A zero-padded "00301" would
  // parse in range and become a redirect the prober follows.
  EXPECT_FALSE(parse_response_head("HTTP/1.1 0200 OK\r\n\r\n"));
  EXPECT_FALSE(parse_response_head(
      "HTTP/1.1 00301 Moved\r\nLocation: http://a.example/\r\n\r\n"));
  EXPECT_FALSE(parse_response_head("HTTP/1.1 20 OK\r\n\r\n"));
  EXPECT_FALSE(parse_response_head("HTTP/1.1 2000 OK\r\n\r\n"));
  EXPECT_FALSE(parse_response_head("HTTP/1.1 +20 OK\r\n\r\n"));
  const auto head = parse_response_head("HTTP/1.1 301 Moved\r\n\r\n");
  ASSERT_TRUE(head);
  EXPECT_EQ(head->status, 301);
}

TEST(ParseLocation, Variants) {
  auto parts = parse_location("http://www.example.net/path/x");
  ASSERT_TRUE(parts);
  EXPECT_EQ(parts->host, "www.example.net");
  EXPECT_EQ(parts->path, "/path/x");

  parts = parse_location("https://example.net");
  ASSERT_TRUE(parts);
  EXPECT_EQ(parts->host, "example.net");
  EXPECT_EQ(parts->path, "/");

  parts = parse_location("http://example.net:8080/a");
  ASSERT_TRUE(parts);
  EXPECT_EQ(parts->host, "example.net");
  EXPECT_EQ(parts->path, "/a");

  parts = parse_location("/relative/only");
  ASSERT_TRUE(parts);
  EXPECT_TRUE(parts->host.empty());
  EXPECT_EQ(parts->path, "/relative/only");

  // RFC 3986: the authority also ends at '?' or '#', userinfo is not part
  // of the host, and the fragment never reaches the request line.
  parts = parse_location("http://example.com?x=1");
  ASSERT_TRUE(parts);
  EXPECT_EQ(parts->host, "example.com");
  EXPECT_EQ(parts->path, "/?x=1");

  parts = parse_location("http://example.com#top");
  ASSERT_TRUE(parts);
  EXPECT_EQ(parts->host, "example.com");
  EXPECT_EQ(parts->path, "/");

  parts = parse_location("http://user@example.com/");
  ASSERT_TRUE(parts);
  EXPECT_EQ(parts->host, "example.com");
  EXPECT_EQ(parts->path, "/");

  parts = parse_location("http://user:pw@example.com:81/a?b=@c");
  ASSERT_TRUE(parts);
  EXPECT_EQ(parts->host, "example.com");
  EXPECT_EQ(parts->path, "/a?b=@c");

  parts = parse_location("https://www.example.com:8443/path?q=1#frag");
  ASSERT_TRUE(parts);
  EXPECT_EQ(parts->host, "www.example.com");
  EXPECT_EQ(parts->path, "/path?q=1");

  parts = parse_location("/relative#frag");
  ASSERT_TRUE(parts);
  EXPECT_TRUE(parts->host.empty());
  EXPECT_EQ(parts->path, "/relative");

  EXPECT_FALSE(parse_location(""));
  EXPECT_FALSE(parse_location("ftp-garbage"));
  EXPECT_FALSE(parse_location("http:///nohost"));
  EXPECT_FALSE(parse_location("http://?x=1"));
  EXPECT_FALSE(parse_location("http://user@/x"));
}

TEST(ParseLocation, RejectsWhitespaceAndControlBytes) {
  // Host and path are written into the follow-up request as they are; a
  // space would split its request line and a CR or LF its Host header.
  EXPECT_FALSE(parse_location("/a b"));
  EXPECT_FALSE(parse_location("http://ho\tst/\r\n"));
  EXPECT_FALSE(parse_location("http://host\r\nX-Injected: 1/"));
  EXPECT_FALSE(parse_location(std::string_view("/nul\0byte", 9)));
  EXPECT_FALSE(parse_location("/del\x7f"));
  // Only the ends are trimmed, and bytes above DEL pass.
  const auto parts = parse_location("  http://example.net/caf\xc3\xa9\r\n");
  ASSERT_TRUE(parts);
  EXPECT_EQ(parts->host, "example.net");
  EXPECT_EQ(parts->path, "/caf\xc3\xa9");
}

// -------------------------------------------- server behaviour harness ---

/// Full-ACK client: completes the handshake, sends one request, ACKs every
/// data segment (unconstrained transfer), and reassembles the response.
class FetchClient final : public sim::Endpoint {
 public:
  FetchClient(sim::Network& network, net::IPv4Address self, net::IPv4Address server)
      : network_(network), self_(self), server_(server) {
    network_.attach(self_, this);
  }
  ~FetchClient() override { network_.detach(self_); }

  /// Sends `request` once the handshake completes: in one segment, or in
  /// two when `split` cuts it (0 < split < size).
  void fetch(const std::string& request, std::size_t split = 0) {
    request_ = request;
    split_ = split;
    send(isn_, 0, net::kSyn, std::optional<std::uint16_t>(1460));
  }

  void handle_packet(net::PacketView bytes) override {
    const auto datagram = net::decode_datagram(bytes);
    if (!datagram) return;
    const auto* segment = std::get_if<net::TcpSegment>(&*datagram);
    if (!segment) return;
    if (segment->tcp.has(net::kRst)) {
      reset = true;
      return;
    }
    if (segment->tcp.has(net::kSyn) && segment->tcp.has(net::kAck)) {
      rcv_nxt_ = segment->tcp.seq + 1;
      const std::size_t cut = split_ == 0 ? request_.size() : split_;
      send(isn_ + 1, rcv_nxt_, net::kAck | net::kPsh, std::nullopt,
           net::to_bytes(std::string_view(request_).substr(0, cut)));
      if (cut < request_.size()) {
        send(isn_ + 1 + static_cast<std::uint32_t>(cut), rcv_nxt_,
             net::kAck | net::kPsh, std::nullopt,
             net::to_bytes(std::string_view(request_).substr(cut)));
      }
      return;
    }
    if (!segment->payload.empty() && segment->tcp.seq == rcv_nxt_) {
      body.insert(body.end(), segment->payload.begin(), segment->payload.end());
      rcv_nxt_ += static_cast<std::uint32_t>(segment->payload.size());
    }
    if (segment->tcp.has(net::kFin) &&
        segment->tcp.seq + segment->payload.size() == rcv_nxt_) {
      rcv_nxt_ += 1;
      fin = true;
    }
    send(isn_ + 1 + static_cast<std::uint32_t>(request_.size()), rcv_nxt_,
         net::kAck, std::nullopt);
  }

  net::Bytes body;
  bool fin = false;
  bool reset = false;

 private:
  void send(std::uint32_t seq, std::uint32_t ack, std::uint8_t flags,
            std::optional<std::uint16_t> mss, net::Bytes payload = {}) {
    net::TcpSegment segment;
    segment.ip.src = self_;
    segment.ip.dst = server_;
    segment.tcp.src_port = 43210;
    segment.tcp.dst_port = 80;
    segment.tcp.seq = seq;
    segment.tcp.ack = ack;
    segment.tcp.flags = flags;
    segment.tcp.window = 65535;
    segment.tcp.mss = mss;
    segment.payload = payload;
    network_.send(net::encode(segment));
  }

  sim::Network& network_;
  net::IPv4Address self_;
  net::IPv4Address server_;
  std::uint32_t isn_ = 9000;
  std::uint32_t rcv_nxt_ = 0;
  std::string request_;
  std::size_t split_ = 0;
};

struct ServerRig {
  sim::EventLoop loop;
  sim::Network network{loop, 3};
  std::unique_ptr<tcp::TcpHost> host;
  std::unique_ptr<FetchClient> client;
  const net::IPv4Address server_ip{10, 0, 0, 1};

  explicit ServerRig(WebConfig web) {
    tcp::StackConfig stack;
    stack.iw = tcp::IwConfig::segments_of(10);
    host = std::make_unique<tcp::TcpHost>(network, server_ip, stack, 1);
    host->listen(80, HttpServerApp::factory(std::move(web)));
    network.attach(server_ip, host.get());
    client = std::make_unique<FetchClient>(network, net::IPv4Address{192, 0, 2, 5},
                                           server_ip);
  }

  std::string get(const std::string& target, const std::string& host_header) {
    client->fetch("GET " + target + " HTTP/1.1\r\nHost: " + host_header +
                  "\r\nConnection: close\r\n\r\n");
    loop.run_until(loop.now() + sim::sec(5));
    return std::string(client->body.begin(), client->body.end());
  }
};

TEST(HttpServer, ServesPageOfConfiguredSize) {
  WebConfig web;
  web.root = RootBehavior::Page;
  web.page_size = 3000;
  ServerRig rig(web);
  const std::string response = rig.get("/", "10.0.0.1");
  const auto head = parse_response_head(response);
  ASSERT_TRUE(head);
  EXPECT_EQ(head->status, 200);
  EXPECT_EQ(response.size() - head->header_bytes, 3000u);
  EXPECT_TRUE(rig.client->fin) << "Connection: close must yield a FIN";
}

TEST(HttpServer, RedirectsIpHostToCanonicalName) {
  WebConfig web;
  web.root = RootBehavior::RedirectToName;
  web.canonical_name = "www.canonical.test";
  ServerRig rig(web);
  const std::string response = rig.get("/", "10.0.0.1");
  const auto head = parse_response_head(response);
  ASSERT_TRUE(head);
  EXPECT_EQ(head->status, 301);
  EXPECT_EQ(head->header("Location"), "http://www.canonical.test/");
}

TEST(HttpServer, NamedHostGetsRealPage) {
  WebConfig web;
  web.root = RootBehavior::RedirectToName;
  web.canonical_name = "www.canonical.test";
  web.redirected_page_size = 5000;
  ServerRig rig(web);
  const std::string response = rig.get("/", "www.canonical.test");
  const auto head = parse_response_head(response);
  ASSERT_TRUE(head);
  EXPECT_EQ(head->status, 200);
  EXPECT_EQ(response.size() - head->header_bytes, 5000u);
}

TEST(HttpServer, NotFoundEchoGrowsWithUri) {
  WebConfig web;
  web.root = RootBehavior::NotFoundEcho;
  ServerRig rig(web);
  const std::string long_uri = "/" + std::string(1200, 'z');
  const std::string response = rig.get(long_uri, "10.0.0.1");
  const auto head = parse_response_head(response);
  ASSERT_TRUE(head);
  EXPECT_EQ(head->status, 404);
  EXPECT_NE(response.find(long_uri), std::string::npos) << "URI must be echoed";
  EXPECT_GT(response.size(), 1200u);
}

TEST(HttpServer, VirtualHostedServesOnlyItsNamedHost) {
  WebConfig web;
  web.root = RootBehavior::VirtualHosted;
  web.canonical_name = "www.edge.test";
  web.redirected_page_size = 5000;
  ServerRig rig(web);
  const std::string long_uri = "/" + std::string(500, 'q');
  const std::string by_ip = rig.get(long_uri, "10.0.0.1");
  const auto ip_head = parse_response_head(by_ip);
  ASSERT_TRUE(ip_head);
  EXPECT_EQ(ip_head->status, 404);
  EXPECT_EQ(by_ip.find(std::string(100, 'q')), std::string::npos) << "no URI echo";
  EXPECT_LT(by_ip.size(), 300u);

  ServerRig named_rig(web);
  const std::string by_name = named_rig.get("/", "www.edge.test");
  const auto name_head = parse_response_head(by_name);
  ASSERT_TRUE(name_head);
  EXPECT_EQ(name_head->status, 200);
  EXPECT_EQ(by_name.size() - name_head->header_bytes, 5000u);
}

TEST(HttpServer, RawBannerIsNotHttp) {
  WebConfig web;
  web.root = RootBehavior::RawBanner;
  web.page_size = 40;
  ServerRig rig(web);
  const std::string response = rig.get("/", "10.0.0.1");
  EXPECT_EQ(response.size(), 40u);
  EXPECT_FALSE(parse_response_head(response).has_value());
  EXPECT_TRUE(rig.client->fin);
}

TEST(HttpServer, SilentServerSendsNothing) {
  WebConfig web;
  web.root = RootBehavior::Silent;
  ServerRig rig(web);
  const std::string response = rig.get("/", "10.0.0.1");
  EXPECT_TRUE(response.empty());
  EXPECT_FALSE(rig.client->fin);
}

TEST(HttpServer, MalformedRequestIsReset) {
  WebConfig web;
  web.root = RootBehavior::Page;
  ServerRig rig(web);
  rig.client->fetch("NONSENSE\r\n\r\n");
  rig.loop.run_until(sim::sec(2));
  EXPECT_TRUE(rig.client->reset);
}

TEST(HttpServer, RequestSplitAcrossSegmentsIsParsed) {
  WebConfig web;
  web.root = RootBehavior::Page;
  web.page_size = 500;
  {
    // Without its blank line the request is incomplete: no answer.
    ServerRig rig(web);
    rig.client->fetch("GET / HTTP/1.1\r\nHost: 10.0.0.1\r\nConnection: close");
    rig.loop.run_until(sim::msec(300));
    EXPECT_TRUE(rig.client->body.empty()) << "no response before the blank line";
  }
  // The blank line in a second segment completes it.
  ServerRig rig(web);
  const std::string request = "GET / HTTP/1.1\r\nHost: 10.0.0.1\r\nConnection: close\r\n\r\n";
  rig.client->fetch(request, request.size() - 3);
  rig.loop.run_until(sim::sec(5));
  const std::string response(rig.client->body.begin(), rig.client->body.end());
  const auto head = parse_response_head(response);
  ASSERT_TRUE(head);
  EXPECT_EQ(response.size() - head->header_bytes, 500u);
  EXPECT_TRUE(rig.client->fin);
}

TEST(HttpServer, ServerHeaderIsConfigurable) {
  WebConfig web;
  web.root = RootBehavior::Page;
  web.server_header = "GHost";
  ServerRig rig(web);
  const std::string response = rig.get("/", "10.0.0.1");
  const auto head = parse_response_head(response);
  ASSERT_TRUE(head);
  EXPECT_EQ(head->header("Server"), "GHost");
}

// ------------------------------------------------- wire-byte identity ----

/// FNV-1a over a response's bytes: the table below pins each response by
/// its length and this digest.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

enum class Ask {
  IpClose,    // Host: the server's IP, Connection: close (the prober's first)
  IpKeep,     // Host: the server's IP, no Connection header
  NameClose,  // Host: the canonical name, Connection: close (curated URL)
  NameKeep,   // Host: the canonical name, no Connection header
  LongUri,    // the prober's 1,300-character URI, IP Host, Connection: close
  Sweep,      // the two-phase sweep's banner grab
};

std::string request_for(Ask ask) {
  const auto get = [](std::string_view target, std::string_view host, bool close) {
    std::string request = "GET ";
    request += target;
    request += " HTTP/1.1\r\nHost: ";
    request += host;
    request += "\r\nUser-Agent: iwscan/1.0 (+https://iw.example.net/research)"
               "\r\nAccept: */*\r\n";
    if (close) request += "Connection: close\r\n";
    request += "\r\n";
    return request;
  };
  switch (ask) {
    case Ask::IpClose: return get("/", "10.0.0.1", true);
    case Ask::IpKeep: return get("/", "10.0.0.1", false);
    case Ask::NameClose: return get("/", "www.canonical.test", true);
    case Ask::NameKeep: return get("/", "www.canonical.test", false);
    case Ask::LongUri: {
      std::string uri = "/this-is-a-tcp-initial-window-measurement-see-"
                        "iw.example.net-for-details-";
      uri.append(1300 - uri.size(), 'x');
      return get(uri, "10.0.0.1", true);
    }
    case Ask::Sweep: return "GET / HTTP/1.0\r\n\r\n";
  }
  return {};
}

WebConfig wire_config(RootBehavior root, std::size_t page_size) {
  WebConfig web;
  web.root = root;
  web.page_size = page_size;
  web.canonical_name = "www.canonical.test";
  web.server_header = "Apache";
  web.redirected_page_size = 5000;
  return web;
}

struct Fetched {
  std::string bytes;
  bool fin = false;
};

Fetched fetch_once(const WebConfig& web, const std::string& request,
                   std::size_t split = 0) {
  ServerRig rig(web);
  rig.client->fetch(request, split);
  rig.loop.run_until(rig.loop.now() + sim::sec(5));
  return {std::string(rig.client->body.begin(), rig.client->body.end()),
          rig.client->fin};
}

struct WireCase {
  RootBehavior root;
  std::size_t page_size;
  Ask ask;
  std::size_t length;
  std::uint64_t digest;
  bool fin;
};

// Captured from the daemon as it was when it still built a generic
// response object and serialized it; the one-pass writer reproduces them.
constexpr WireCase kWireCases[] = {
    {RootBehavior::Page, 3000, Ask::IpClose, 3101, 0xe453acea7b4fdaa8ull, true},
    {RootBehavior::Page, 3000, Ask::IpKeep, 3082, 0xafe73a09667be2b3ull, false},
    {RootBehavior::Page, 3000, Ask::NameClose, 3101, 0xe453acea7b4fdaa8ull, true},
    {RootBehavior::Page, 3000, Ask::NameKeep, 3082, 0xafe73a09667be2b3ull, false},
    {RootBehavior::Page, 3000, Ask::LongUri, 3101, 0xe453acea7b4fdaa8ull, true},
    {RootBehavior::Page, 3000, Ask::Sweep, 3082, 0xafe73a09667be2b3ull, false},
    {RootBehavior::RedirectToName, 3000, Ask::IpClose, 254, 0x36fd2e6756f3679full, true},
    {RootBehavior::RedirectToName, 3000, Ask::IpKeep, 235, 0x299212317cdd7890ull, true},
    {RootBehavior::RedirectToName, 3000, Ask::NameClose, 5101, 0x8f1e27202208c46bull, true},
    {RootBehavior::RedirectToName, 3000, Ask::NameKeep, 5082, 0x992d3fa9db7b2cb8ull, false},
    {RootBehavior::RedirectToName, 3000, Ask::LongUri, 5101, 0x8f1e27202208c46bull, true},
    {RootBehavior::RedirectToName, 3000, Ask::Sweep, 235, 0x299212317cdd7890ull, true},
    {RootBehavior::NotFoundEcho, 3000, Ask::IpClose, 408, 0x77ebe875aedf6d3eull, true},
    {RootBehavior::NotFoundEcho, 3000, Ask::IpKeep, 389, 0x70262f22cfc5d0ebull, false},
    {RootBehavior::NotFoundEcho, 3000, Ask::NameClose, 408, 0x77ebe875aedf6d3eull, true},
    {RootBehavior::NotFoundEcho, 3000, Ask::NameKeep, 389, 0x70262f22cfc5d0ebull, false},
    {RootBehavior::NotFoundEcho, 3000, Ask::LongUri, 1708, 0xda5f6c42b4fda6a9ull, true},
    {RootBehavior::NotFoundEcho, 3000, Ask::Sweep, 389, 0x70262f22cfc5d0ebull, false},
    {RootBehavior::RawBanner, 3000, Ask::IpClose, 3000, 0x4d86cd5ccc2c5cafull, true},
    {RootBehavior::RawBanner, 3000, Ask::IpKeep, 3000, 0x4d86cd5ccc2c5cafull, true},
    {RootBehavior::RawBanner, 3000, Ask::NameClose, 3000, 0x4d86cd5ccc2c5cafull, true},
    {RootBehavior::RawBanner, 3000, Ask::NameKeep, 3000, 0x4d86cd5ccc2c5cafull, true},
    {RootBehavior::RawBanner, 3000, Ask::LongUri, 3000, 0x4d86cd5ccc2c5cafull, true},
    {RootBehavior::RawBanner, 3000, Ask::Sweep, 3000, 0x4d86cd5ccc2c5cafull, true},
    {RootBehavior::Silent, 3000, Ask::IpClose, 0, 0xcbf29ce484222325ull, false},
    {RootBehavior::Silent, 3000, Ask::IpKeep, 0, 0xcbf29ce484222325ull, false},
    {RootBehavior::Silent, 3000, Ask::NameClose, 0, 0xcbf29ce484222325ull, false},
    {RootBehavior::Silent, 3000, Ask::NameKeep, 0, 0xcbf29ce484222325ull, false},
    {RootBehavior::Silent, 3000, Ask::LongUri, 0, 0xcbf29ce484222325ull, false},
    {RootBehavior::Silent, 3000, Ask::Sweep, 0, 0xcbf29ce484222325ull, false},
    {RootBehavior::VirtualHosted, 3000, Ask::IpClose, 154, 0x7888b19df2222a9full, true},
    {RootBehavior::VirtualHosted, 3000, Ask::IpKeep, 135, 0x5c6acec626bc8d76ull, false},
    {RootBehavior::VirtualHosted, 3000, Ask::NameClose, 5101, 0x8f1e27202208c46bull, true},
    {RootBehavior::VirtualHosted, 3000, Ask::NameKeep, 5082, 0x992d3fa9db7b2cb8ull, false},
    {RootBehavior::VirtualHosted, 3000, Ask::LongUri, 154, 0x7888b19df2222a9full, true},
    {RootBehavior::VirtualHosted, 3000, Ask::Sweep, 135, 0x5c6acec626bc8d76ull, false},
    {RootBehavior::Page, 20, Ask::IpClose, 157, 0x97a3cb176b95714aull, true},
    {RootBehavior::RawBanner, 5, Ask::IpClose, 5, 0x1300281d46781b9bull, true},
    {RootBehavior::RawBanner, 18, Ask::IpClose, 18, 0x95fe4248c2a99fefull, true},
};

std::string describe(const WireCase& c) {
  return "root " + std::to_string(static_cast<int>(c.root)) + " page " +
         std::to_string(c.page_size) + " ask " + std::to_string(static_cast<int>(c.ask));
}

TEST(HttpServerWire, ResponsesMatchCapturedBytes) {
  for (const WireCase& c : kWireCases) {
    const Fetched got = fetch_once(wire_config(c.root, c.page_size), request_for(c.ask));
    EXPECT_EQ(got.bytes.size(), c.length) << describe(c);
    EXPECT_EQ(fnv1a(got.bytes), c.digest) << describe(c);
    EXPECT_EQ(got.fin, c.fin) << describe(c);
  }
}

TEST(HttpServerWire, EverySplitPointYieldsTheSameBytes) {
  for (const WireCase& c : kWireCases) {
    const WebConfig web = wire_config(c.root, c.page_size);
    const std::string request = request_for(c.ask);
    const Fetched whole = fetch_once(web, request);
    for (std::size_t cut = 1; cut < request.size(); ++cut) {
      const Fetched split = fetch_once(web, request, cut);
      ASSERT_EQ(split.bytes, whole.bytes) << describe(c) << " cut " << cut;
      ASSERT_EQ(split.fin, whole.fin) << describe(c) << " cut " << cut;
    }
  }
}

}  // namespace
}  // namespace iwscan::http
