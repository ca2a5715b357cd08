#include "core/probe_strategy.hpp"

#include <array>

#include "tls/handshake.hpp"
#include "tls/records.hpp"
#include "util/rng.hpp"

namespace iwscan::core {
namespace {

constexpr std::uint8_t kNullCompression[] = {0};

class TlsStrategy final : public ProbeStrategy {
 public:
  TlsStrategy(std::uint64_t seed, std::string server_name)
      : seed_(seed), server_name_(std::move(server_name)) {}

  net::Bytes request() override {
    std::array<std::uint8_t, 32> random{};
    util::Rng rng(util::mix64(seed_, 0x7175c11e));
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
    if (!server_name_.empty()) hello.server_name = server_name_;
    hello.ocsp_stapling = true;
    return tls::encode_client_hello_record(hello, tls::kTls10);
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
