#include "core/probe_strategy.hpp"

#include "tls/handshake.hpp"
#include "tls/records.hpp"
#include "util/rng.hpp"

namespace iwscan::core {
namespace {

class TlsStrategy final : public ProbeStrategy {
 public:
  TlsStrategy(std::uint64_t seed, std::string server_name)
      : seed_(seed), server_name_(std::move(server_name)) {}

  net::Bytes request() override {
    tls::ClientHello hello;
    hello.version = tls::kTls12;
    util::Rng rng(util::mix64(seed_, 0x7175c11e));
    for (auto& byte : hello.random) byte = static_cast<std::uint8_t>(rng());
    const auto probe_list = tls::probe_cipher_list();
    hello.cipher_suites.assign(probe_list.begin(), probe_list.end());
    // No SNI by default: the scan enumerates IPs without forward-DNS
    // knowledge (§4, "missing Server Name Indication" explains part of the
    // few-data TLS hosts). Curated-SNI mode names a known vhost instead —
    // the only way to measure per-vhost IW tiers on multi-tenant edges.
    // OCSP stapling is requested to coax even more first-flight bytes out
    // of the server (§3.3).
    if (server_name_.empty()) {
      hello.server_name.reset();
    } else {
      hello.server_name = server_name_;
    }
    hello.ocsp_stapling = true;

    const net::Bytes body = hello.encode();
    const net::Bytes message =
        tls::encode_handshake(tls::HandshakeType::ClientHello, body);
    net::Bytes wire;
    tls::encode_fragmented(tls::ContentType::Handshake, tls::kTls10, message, wire);
    return wire;
  }

  bool wants_followup(const ConnObservation&) override {
    // §3.3: no retry logic — the certificate chain either fills the IW or
    // it does not; the length fields are deliberately not inspected.
    return false;
  }

 private:
  std::uint64_t seed_;
  std::string server_name_;
};

}  // namespace

std::unique_ptr<ProbeStrategy> make_tls_strategy(std::uint64_t seed,
                                                 std::string server_name) {
  return std::make_unique<TlsStrategy>(seed, std::move(server_name));
}

}  // namespace iwscan::core
