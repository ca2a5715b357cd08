#include "core/host_prober.hpp"

#include <algorithm>
#include <array>

#include "httpd/http_message.hpp"
#include "tls/handshake.hpp"
#include "tls/records.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace iwscan::core {
namespace {

/// Pause between one connection's conclusion and the next connection.
constexpr sim::SimTime kInterConnectionDelay = sim::msec(20);

/// Names the scan and where operators can read about it.
constexpr std::string_view kUserAgent = "iwscan/1.0 (+https://iw.example.net/research)";
constexpr std::string_view kCuratedUserAgent = "iwscan/1.0 (curated-url mode)";
/// Long-URI length (§3.2): many servers echo the unknown URI in their 404
/// body, so a long one inflates the error page past the IW. The URI states
/// the nature of the scan, as the paper's does, and is padded with 'x'. The
/// request carrying it is ~1,466 B with DF set, which exceeds rather than
/// fills smaller path MTUs: on one path in five of the Internet model (MTU
/// 1400, 1376 or 576) it is dropped with ICMP Fragmentation Needed, which
/// the estimator ignores. An echoing host whose IW the short 404 cannot
/// fill then ends FewData instead of Success — a known accuracy defect
/// (ROADMAP).
constexpr std::size_t kLongUriLength = 1300;
constexpr std::string_view kLongUriStem =
    "/this-is-a-tcp-initial-window-measurement-see-iw.example.net-for-details-";

constexpr std::uint8_t kNullCompression[] = {0};

/// A GET of `path` followed by `padding` 'x' bytes, under `host`, written
/// into one buffer of its exact size. Connection: close makes the server
/// FIN once the response is done — the signal that the IW was *not*
/// filled (§3.2).
net::Bytes http_get(std::string_view path, std::size_t padding, std::string_view host,
                    std::string_view user_agent) {
  const std::string_view tail[] = {" HTTP/1.1\r\nHost: ", host, "\r\nUser-Agent: ",
                                   user_agent,
                                   "\r\nAccept: */*\r\nConnection: close\r\n\r\n"};
  std::size_t size = 4 + path.size() + padding;
  for (const std::string_view piece : tail) size += piece.size();
  net::Bytes out;
  out.reserve(size);
  const auto put = [&out](std::string_view piece) {
    const auto bytes = util::as_bytes(piece);
    out.insert(out.end(), bytes.begin(), bytes.end());
  };
  put("GET ");
  put(path);
  out.insert(out.end(), padding, 'x');
  for (const std::string_view piece : tail) put(piece);
  return out;
}

}  // namespace

net::Bytes client_hello(std::uint64_t seed, std::string_view server_name) {
  std::array<std::uint8_t, 32> random{};
  util::Rng rng(util::mix64(seed, 0x7175c11e));
  for (auto& byte : random) byte = static_cast<std::uint8_t>(rng());

  tls::ClientHelloFields hello;
  hello.version = tls::kTls12;
  hello.random = random;
  hello.cipher_suites = tls::probe_cipher_list();
  hello.compression_methods = kNullCompression;
  // No SNI by default: the scan enumerates IPs without forward-DNS
  // knowledge (§4, "missing Server Name Indication" explains part of the
  // few-data TLS hosts). Curated-SNI mode names a known vhost instead —
  // the only way to measure per-vhost IW tiers on multi-tenant edges.
  // OCSP stapling is requested to coax even more first-flight bytes out
  // of the server (§3.3).
  if (!server_name.empty()) hello.server_name = server_name;
  hello.ocsp_stapling = true;
  return tls::encode_client_hello_record(hello, tls::kTls10);
}

HostProber::HostProber(scan::SessionServices& services, net::IPv4Address target,
                       IwProbeModule& module, std::function<void()> finish)
    : services_(services), module_(module), finish_(std::move(finish)), target_(target) {}

HostProber::~HostProber() { services_.loop().cancel(continuation_); }

EvidencePool& HostProber::evidence_pool() { return module_.evidence_; }

void HostProber::emit(const HostScanRecord& record) {
  if (module_.on_record_) module_.on_record_(record);
}

void HostProber::start() { begin_probe(); }

void HostProber::on_datagram(const net::Datagram& datagram) {
  if (finished_ || !estimator_) return;
  estimator_->on_datagram(datagram);
}

net::Bytes HostProber::request() {
  // The target answered: only now does the connection need its request.
  const IwScanConfig& config = module_.config();
  if (config.protocol == ProbeProtocol::Tls) {
    // Curated mode carries over to TLS as a curated SNI: with prior
    // knowledge of the vhost name, the probe measures the named service's
    // IW instead of the IP-as-Host default.
    return client_hello(tls_seed_, config.curated_host);
  }
  if (!config.curated_host.empty()) {
    // §5's curated URL: the named host's root page.
    return http_get("/", 0, config.curated_host, kCuratedUserAgent);
  }
  const std::string origin = target_.to_string();
  const Redirect* redirect = redirects_ ? &redirects_->back() : nullptr;
  const std::string_view host = redirect ? std::string_view(redirect->host) : origin;
  if (long_uri_path_) {
    return http_get(kLongUriStem, kLongUriLength - kLongUriStem.size(), host, kUserAgent);
  }
  return http_get(redirect ? std::string_view(redirect->path) : "/", 0, host, kUserAgent);
}

bool HostProber::visited(std::string_view host, std::string_view path) const {
  // Every probe starts at the target's root.
  if (path == "/" && host == target_.to_string()) return true;
  return redirects_ && std::any_of(redirects_->begin(), redirects_->end(),
                                   [&](const Redirect& redirect) {
                                     return redirect.host == host && redirect.path == path;
                                   });
}

bool HostProber::follow_up(const ConnObservation& observation) {
  // Only the generic HTTP probe escalates: a curated URL is already
  // known-good, and §3.3 has no TLS retry (the certificate chain either
  // fills the IW or it does not). A connection that was never answered
  // concluded with no prefix, so it is never followed up either.
  const IwScanConfig& config = module_.config();
  if (config.protocol == ProbeProtocol::Tls || !config.curated_host.empty()) return false;
  if (1 + redirect_hops_ + (tried_long_uri_ ? 1 : 0) >= config.max_connections) return false;
  if (observation.outcome != ConnOutcome::FewData || observation.prefix.empty()) return false;

  const auto head = http::parse_response_head(util::as_text(observation.prefix));
  if (!head) return false;

  if (head->status == 301 || head->status == 302 || head->status == 307 ||
      head->status == 308) {
    const auto location = head->header("Location");
    auto parts = location ? http::parse_location(*location) : std::nullopt;
    if (parts) {
      std::string next_host = parts->host;
      if (next_host.empty()) {
        next_host = redirects_ ? redirects_->back().host : target_.to_string();
      }
      if (visited(next_host, parts->path)) {
        // The chain revisits a URL it already served: an infinite redirect
        // loop. Stop here — following it again can only burn the
        // connection budget.
        if (anomaly_ == ProbeAnomaly::None) anomaly_ = ProbeAnomaly::RedirectLoop;
        return false;
      }
      if (redirect_hops_ >= config.max_redirect_hops) {
        // A chain still redirecting after several hops is
        // indistinguishable from a loop at our budget.
        if (redirect_hops_ >= 2 && anomaly_ == ProbeAnomaly::None) {
          anomaly_ = ProbeAnomaly::RedirectLoop;
        }
        return false;
      }
      // A valid URI (and possibly a common name for the Host header)
      // extracted from the error response (§3.2).
      if (!redirects_) redirects_ = std::make_unique<std::vector<Redirect>>();
      redirects_->push_back({std::move(next_host), std::move(parts->path)});
      ++redirect_hops_;
      long_uri_path_ = false;
      return true;
    }
  }

  if (!tried_long_uri_) {
    // Bloat the error page: many servers echo the unknown URI in their 404
    // body, so a long URI inflates the response (§3.2).
    tried_long_uri_ = true;
    long_uri_path_ = true;
    return true;
  }
  return false;
}

void HostProber::begin_probe() {
  redirects_.reset();
  redirect_hops_ = 0;
  tried_long_uri_ = false;
  long_uri_path_ = false;
  if (module_.config().protocol == ProbeProtocol::Tls) {
    tls_seed_ = services_.session_seed(target_);
  }
  current_probe_ = ProbeResult{};
  current_probe_has_conn_ = false;
  begin_connection();
}

void HostProber::begin_connection() {
  // The previous connection concluded before the continuation that got us
  // here was scheduled, so its estimator is off the stack and can go.
  const IwScanConfig& config = module_.config();
  const std::uint16_t mss = pass_ == 0 ? config.mss_primary : config.mss_secondary;
  estimator_.emplace(services_, target_, config.port, mss,
                     static_cast<IwEstimator::Owner&>(*this));
  ++connections_used_;
  estimator_->start();
}

void HostProber::connection_done(const ConnObservation& observation) {
  if (finished_) return;

  // A dead port / dead host on the very first contact: the host is not
  // reachable at all and is excluded from the scan denominators (Table 1
  // counts only hosts where "data exchange is possible").
  if (first_connection_ && (observation.outcome == ConnOutcome::Unreachable ||
                            observation.outcome == ConnOutcome::Refused)) {
    HostScanRecord record;
    record.ip = target_;
    record.outcome = HostOutcome::Unreachable;
    record.probes_run = 1;
    record.connections_used = connections_used_;
    finished_ = true;
    emit(record);
    finish_();
    return;
  }
  first_connection_ = false;

  if (anomaly_ == ProbeAnomaly::None) {
    anomaly_ = observation.anomaly;
    if (anomaly_ == ProbeAnomaly::None &&
        module_.config().protocol == ProbeProtocol::Tls &&
        !observation.prefix.empty() && observation.prefix[0] == 0x15) {
      // The reply opened with a TLS alert record instead of a ServerHello:
      // the handshake was refused at the TLS layer (§3.3 SNI-required
      // hosts and hostile mid-handshake aborts alike).
      anomaly_ = ProbeAnomaly::TlsFatalAlert;
    }
  }

  // Merge this connection into the probe result: Success dominates; among
  // non-success connections keep the largest lower bound.
  const auto better = [](ConnOutcome a, ConnOutcome b) {
    const auto rank = [](ConnOutcome o) {
      switch (o) {
        case ConnOutcome::Success: return 5;
        case ConnOutcome::FewData: return 4;
        case ConnOutcome::NoData: return 3;
        case ConnOutcome::Error: return 2;
        case ConnOutcome::Refused: return 1;
        case ConnOutcome::Unreachable: return 0;
      }
      return 0;
    };
    return rank(a) > rank(b);
  };

  const bool take = !current_probe_has_conn_ ||
                    better(observation.outcome, current_probe_.outcome) ||
                    (observation.outcome == current_probe_.outcome &&
                     observation.iw_estimate > current_probe_.iw_estimate);
  if (take) {
    current_probe_.outcome = observation.outcome;
    current_probe_.iw_estimate = observation.iw_estimate;
    current_probe_.span_bytes = observation.span_bytes;
    current_probe_.max_segment = observation.max_segment;
    current_probe_.lower_bound =
        observation.outcome == ConnOutcome::FewData ? observation.iw_estimate : 0;
  }
  current_probe_.fin_seen |= observation.fin_seen;
  current_probe_.reorder_seen |= observation.reorder_seen;
  current_probe_.loss_holes |= observation.loss_holes;
  current_probe_has_conn_ = true;

  const bool followup = follow_up(observation);
  services_.loop().cancel(continuation_);
  continuation_ = services_.loop().schedule(kInterConnectionDelay, [this, followup] {
    continuation_ = sim::kNullEvent;
    if (followup) {
      begin_connection();
    } else {
      finish_probe();
    }
  });
}

void HostProber::finish_probe() {
  const IwScanConfig& config = module_.config();
  if (!probes_) {
    const int passes = config.mss_secondary != 0 ? 2 : 1;
    probes_ = std::make_unique<ProbeResult[]>(
        static_cast<std::size_t>(std::max(config.probes_per_mss, 1) * passes));
  }
  probes_[probes_done_++] = current_probe_;
  if (pass_ == 0) primary_probes_ = probes_done_;

  ++probe_;
  if (probe_ < config.probes_per_mss) {
    begin_probe();
    return;
  }
  // Pass complete; move to the secondary MSS or finish.
  probe_ = 0;
  if (pass_ == 0 && config.mss_secondary != 0) {
    pass_ = 1;
    begin_probe();
    return;
  }
  finish_host();
}

HostProber::PassResult HostProber::aggregate_pass(
    std::span<const ProbeResult> probes) const {
  PassResult pass;
  for (const auto& probe : probes) {
    pass.fin_seen |= probe.fin_seen;
    pass.reorder_seen |= probe.reorder_seen;
    pass.loss_suspected |= probe.loss_holes;
  }

  // Success rule (§4): ≥2 of 3 probes agree and the agreed value is the
  // maximum of all successful probes (tail loss only ever lowers values).
  bool any_success = false;
  std::uint32_t max_estimate = 0;
  for (const auto& probe : probes) {
    if (probe.outcome == ConnOutcome::Success) {
      any_success = true;
      max_estimate = std::max(max_estimate, probe.iw_estimate);
    }
  }
  const auto votes_for_max =
      std::count_if(probes.begin(), probes.end(), [&](const ProbeResult& probe) {
        return probe.outcome == ConnOutcome::Success && probe.iw_estimate == max_estimate;
      });
  const int needed = std::min<int>(2, static_cast<int>(probes.size()));
  if (max_estimate != 0 && votes_for_max >= needed) {
    pass.outcome = HostOutcome::Success;
    pass.iw_segments = max_estimate;
    for (const auto& probe : probes) {
      if (probe.outcome == ConnOutcome::Success && probe.iw_estimate == max_estimate) {
        pass.iw_bytes = probe.span_bytes;
        pass.observed_mss = probe.max_segment;
        break;
      }
    }
    return pass;
  }
  if (any_success) {
    // Successes exist but disagree on the maximum: unstable estimate.
    pass.outcome = HostOutcome::Error;
    return pass;
  }

  bool any_data = false;
  bool any_reply = false;
  for (const auto& probe : probes) {
    if (probe.outcome == ConnOutcome::FewData) {
      any_data = true;
      pass.lower_bound = std::max(pass.lower_bound, probe.lower_bound);
      for (const auto& p2 : probes) {
        pass.observed_mss = std::max(pass.observed_mss, p2.max_segment);
      }
    }
    if (probe.outcome == ConnOutcome::NoData) any_reply = true;
  }
  if (any_data) {
    pass.outcome = HostOutcome::FewData;
  } else if (any_reply) {
    pass.outcome = HostOutcome::FewData;  // lower_bound 0 == Table 2 "NoData"
    pass.lower_bound = 0;
  } else {
    pass.outcome = HostOutcome::Error;
  }
  return pass;
}

void HostProber::finish_host() {
  const auto probes = std::span<const ProbeResult>(probes_.get(), probes_done_);
  const PassResult primary = aggregate_pass(probes.first(primary_probes_));
  HostScanRecord record;
  record.ip = target_;
  record.outcome = primary.outcome;
  record.iw_segments = primary.iw_segments;
  record.iw_bytes = primary.iw_bytes;
  record.observed_mss = primary.observed_mss;
  record.lower_bound = primary.lower_bound;
  record.fin_seen = primary.fin_seen;
  record.reorder_seen = primary.reorder_seen;
  record.loss_suspected = primary.loss_suspected;
  record.anomaly = anomaly_;
  record.probes_run = static_cast<std::uint8_t>(probes.size());
  record.connections_used = connections_used_;

  if (probes.size() > primary_probes_) {
    const PassResult secondary = aggregate_pass(probes.subspan(primary_probes_));
    if (secondary.outcome == HostOutcome::Success) {
      record.iw_segments_b = secondary.iw_segments;
      record.iw_bytes_b = secondary.iw_bytes;
      record.observed_mss_b = secondary.observed_mss;
    }
  }

  finished_ = true;
  emit(record);
  finish_();
}

void HostProber::on_budget_exhausted(scan::BudgetKind kind) {
  if (finished_) return;
  // The engine is cutting us off: emit what we know. A wire-level anomaly
  // already identified (e.g. Slowloris evidence from an earlier probe)
  // names the pathology better than the generic budget bucket.
  HostScanRecord record;
  record.ip = target_;
  record.outcome = HostOutcome::Error;
  record.anomaly =
      anomaly_ != ProbeAnomaly::None ? anomaly_ : ProbeAnomaly::BudgetExceeded;
  record.probes_run = static_cast<std::uint8_t>(probes_done_);
  record.connections_used = connections_used_;
  (void)kind;
  finished_ = true;
  services_.loop().cancel(continuation_);
  continuation_ = sim::kNullEvent;
  emit(record);
  finish_();
}

std::unique_ptr<scan::ProbeSession> IwProbeModule::create_session(
    scan::SessionServices& services, net::IPv4Address target,
    std::function<void()> finish) {
  return std::make_unique<HostProber>(services, target, *this, std::move(finish));
}

HostScanRecord probe_host(scan::DirectServices& services, net::IPv4Address target,
                          const IwScanConfig& config) {
  HostScanRecord record;
  bool done = false;
  // The module holds the record sink the prober refers to; it is declared
  // first, so it outlives the prober.
  IwProbeModule module(config, [&](const HostScanRecord& r) { record = r; });
  HostProber prober(services, target, module, [&] { done = true; });
  services.set_handler([&](const net::Datagram& datagram) { prober.on_datagram(datagram); });
  prober.start();
  while (!done && services.loop().step()) {
  }
  services.set_handler(nullptr);
  return record;
}

}  // namespace iwscan::core
