// TLS server application: answers a ClientHello with the first server
// flight (ServerHello + Certificate [+ CertificateStatus] + ServerHelloDone)
// — the data source the TLS-based IW inference rides on (§3.3).
//
// Host policies model the behaviours behind the paper's TLS "few data"
// population (Table 1/2): servers that require SNI and either alert or
// close silently without it, and servers whose cipher sets don't intersect
// the probe list (handshake_failure alert only).
#pragma once

#include <string>
#include <vector>

#include "tls/cert.hpp"
#include "tls/records.hpp"
#include "tls/tls_server_config.hpp"
#include "tcpstack/host.hpp"

namespace iwscan::tls {

/// The first flight a TLS host configured by `config` answers `client`'s
/// ClientHello with — ServerHello, Certificate, CertificateStatus when
/// `staple`, ServerHelloDone — as handshake records, written in one pass
/// into a buffer of its exact wire size.
[[nodiscard]] net::Bytes encode_first_flight(const TlsConfig& config,
                                             net::IPv4Address client,
                                             CipherSuite chosen, bool staple);

class TlsServerApp final : public tcp::Application {
 public:
  explicit TlsServerApp(TlsConfig config) : config_(std::move(config)) {}

  void on_data(tcp::TcpConnection& conn, std::span<const std::uint8_t> data) override;

  [[nodiscard]] static tcp::TcpHost::AppFactory factory(TlsConfig config);

 private:
  void answer(tcp::TcpConnection& conn, const RecordFrame& record);

  TlsConfig config_;
  net::Bytes pending_;  // a ClientHello record split over segments
  bool done_ = false;   // the first record was answered or rejected
};

}  // namespace iwscan::tls
