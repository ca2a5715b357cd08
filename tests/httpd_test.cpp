// HTTP message parsing and origin-server behaviour (§3.2's counterparty).
#include <gtest/gtest.h>

#include "httpd/http_message.hpp"
#include "httpd/http_server.hpp"
#include "netsim/network.hpp"
#include "tcpstack/host.hpp"
#include "tcpstack/seq.hpp"

namespace iwscan::http {
namespace {

// ------------------------------------------------------ RequestParser ----

TEST(RequestParser, ParsesSimpleGet) {
  RequestParser parser;
  const auto status = parser.feed(
      "GET /index.html HTTP/1.1\r\nHost: example.com\r\n"
      "Connection: close\r\n\r\n");
  ASSERT_EQ(status, RequestParser::Status::Complete);
  const auto& request = parser.request();
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/index.html");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.header("host"), "example.com");
  EXPECT_TRUE(request.wants_close());
}

TEST(RequestParser, IncrementalFeeding) {
  RequestParser parser;
  EXPECT_EQ(parser.feed("GET / HT"), RequestParser::Status::NeedMore);
  EXPECT_EQ(parser.feed("TP/1.1\r\nHost: h"), RequestParser::Status::NeedMore);
  EXPECT_EQ(parser.feed("\r\n\r\n"), RequestParser::Status::Complete);
  EXPECT_EQ(parser.request().header("Host"), "h");
}

TEST(RequestParser, InvalidRequests) {
  {
    RequestParser parser;
    EXPECT_EQ(parser.feed("GARBAGE\r\n\r\n"), RequestParser::Status::Invalid);
  }
  {
    RequestParser parser;
    EXPECT_EQ(parser.feed("GET /\r\n\r\n"), RequestParser::Status::Invalid);
  }
  {
    RequestParser parser;
    EXPECT_EQ(parser.feed("GET / FTP/1.0\r\n\r\n"), RequestParser::Status::Invalid);
  }
  {
    RequestParser parser;
    EXPECT_EQ(parser.feed("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"),
              RequestParser::Status::Invalid);
  }
  // The request line is three space-separated parts; method and target are
  // non-empty.
  for (const std::string_view line :
       {"GET  HTTP/1.1", " / HTTP/1.1", "GET / HTTP/1.1 extra", "GET /HTTP/1.1"}) {
    RequestParser parser;
    EXPECT_EQ(parser.feed(std::string(line) + "\r\n\r\n"),
              RequestParser::Status::Invalid)
        << line;
  }
}

TEST(RequestParser, WholeAndSplitFeedsAgree) {
  // A request arriving in one piece is parsed in place; one split across
  // feeds is gathered first. Both must yield the same request.
  const std::string wire =
      "GET /a?b=c HTTP/1.0\r\nHost: example.com\r\n\r\nUser-Agent: x\r\n"
      "Connection: close\r\n\r\n";
  RequestParser whole;
  ASSERT_EQ(whole.feed(wire), RequestParser::Status::Complete);
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    RequestParser split;
    auto status = split.feed(std::string_view(wire).substr(0, cut));
    if (status == RequestParser::Status::NeedMore) {
      status = split.feed(std::string_view(wire).substr(cut));
    }
    ASSERT_EQ(status, RequestParser::Status::Complete) << cut;
    EXPECT_EQ(split.request().method, whole.request().method) << cut;
    EXPECT_EQ(split.request().target, whole.request().target) << cut;
    EXPECT_EQ(split.request().version, whole.request().version) << cut;
    ASSERT_EQ(split.request().headers.size(), whole.request().headers.size()) << cut;
    for (std::size_t i = 0; i < whole.request().headers.size(); ++i) {
      EXPECT_EQ(split.request().headers[i].name, whole.request().headers[i].name);
      EXPECT_EQ(split.request().headers[i].value, whole.request().headers[i].value);
    }
  }
  EXPECT_EQ(whole.request().headers.size(), 1u);  // stops at the first blank line
}

TEST(RequestParser, HeaderFloodIsRejected) {
  RequestParser parser;
  std::string flood = "GET / HTTP/1.1\r\n";
  while (flood.size() < 70'000) flood += "X-Pad: aaaaaaaaaaaaaaaaaaaaaaa\r\n";
  EXPECT_EQ(parser.feed(flood), RequestParser::Status::Invalid);
}

TEST(RequestParser, ResetAllowsReuse) {
  RequestParser parser;
  ASSERT_EQ(parser.feed("GET /a HTTP/1.1\r\n\r\n"), RequestParser::Status::Complete);
  parser.reset();
  ASSERT_EQ(parser.feed("GET /b HTTP/1.1\r\n\r\n"), RequestParser::Status::Complete);
  EXPECT_EQ(parser.request().target, "/b");
}

// ------------------------------------------------------- HttpResponse ----

TEST(HttpResponse, SerializeComputesContentLength) {
  HttpResponse response;
  response.status = 404;
  response.reason = "Not Found";
  response.headers.push_back({"Server", "testd"});
  response.body = "12345";
  const std::string wire = response.serialize();
  EXPECT_NE(wire.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\n\r\n12345"));
}

TEST(ParseResponseHead, RoundTrip) {
  HttpResponse response;
  response.status = 301;
  response.reason = "Moved Permanently";
  response.headers.push_back({"Location", "http://www.example.net/"});
  response.body = "moved";
  const std::string wire = response.serialize();

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

TEST(ParseResponseHead, ContentLength) {
  const auto head = parse_response_head(
      "HTTP/1.1 200 OK\r\nContent-Length:  1234 \r\n\r\n");
  ASSERT_TRUE(head);
  EXPECT_EQ(head->content_length(), 1234u);

  // Absent header.
  EXPECT_FALSE(
      parse_response_head("HTTP/1.1 200 OK\r\n\r\n")->content_length().has_value());
  // Hostile responders announce absurd lengths: a value that overflows 64
  // bits must come back as nullopt, never as a wrapped small number.
  EXPECT_FALSE(parse_response_head(
                   "HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n")
                   ->content_length()
                   .has_value());
  // Non-numeric.
  EXPECT_FALSE(parse_response_head("HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n")
                   ->content_length()
                   .has_value());
  EXPECT_FALSE(parse_response_head("HTTP/1.1 200 OK\r\nContent-Length: 12kb\r\n\r\n")
                   ->content_length()
                   .has_value());
}

TEST(RequestParser, InvalidStateLatches) {
  RequestParser parser;
  EXPECT_EQ(parser.feed("NOT-HTTP\r\n\r\n"), RequestParser::Status::Invalid);
  // A valid request on the same connection must not resurrect the parser…
  EXPECT_EQ(parser.feed("GET / HTTP/1.1\r\n\r\n"), RequestParser::Status::Invalid);
  // …until the server explicitly resets it.
  parser.reset();
  EXPECT_EQ(parser.feed("GET / HTTP/1.1\r\n\r\n"), RequestParser::Status::Complete);
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

  EXPECT_FALSE(parse_location(""));
  EXPECT_FALSE(parse_location("ftp-garbage"));
  EXPECT_FALSE(parse_location("http:///nohost"));
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

  void fetch(const std::string& request) {
    request_ = request;
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
      send(isn_ + 1, rcv_nxt_, net::kAck | net::kPsh, std::nullopt,
           net::to_bytes(request_));
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
    segment.payload = std::move(payload);
    network_.send(net::encode(segment));
  }

  sim::Network& network_;
  net::IPv4Address self_;
  net::IPv4Address server_;
  std::uint32_t isn_ = 9000;
  std::uint32_t rcv_nxt_ = 0;
  std::string request_;
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
  ServerRig rig(web);
  // fetch() sends the whole request in one segment; emulate splitting by
  // issuing the request without the final CRLF first, then completing it.
  rig.client->fetch("GET / HTTP/1.1\r\nHost: 10.0.0.1\r\nConnection: close");
  rig.loop.run_until(sim::msec(300));
  EXPECT_TRUE(rig.client->body.empty()) << "no response before the blank line";
  // (Completing the split request would need a stateful client; the parser
  // path itself is covered by RequestParser.IncrementalFeeding.)
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

}  // namespace
}  // namespace iwscan::http
