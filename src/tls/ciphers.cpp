#include "tls/ciphers.hpp"

#include <array>

namespace iwscan::tls {
namespace {

// Browser-union probe list (Safari ∪ Firefox ∪ Chrome, 2017-era TLS 1.2)
// enriched with suites observed in censys.io scans — 40 entries, matching
// the methodology in §3.3 of the paper.
constexpr std::array<CipherSuite, 40> kProbeList = {
    0xC02C,  // TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384
    0xC02B,  // TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256
    0xC030,  // TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384
    0xC02F,  // TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256
    0xCCA9,  // TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256
    0xCCA8,  // TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256
    0xC024,  // TLS_ECDHE_ECDSA_WITH_AES_256_CBC_SHA384
    0xC023,  // TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA256
    0xC028,  // TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA384
    0xC027,  // TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA256
    0xC00A,  // TLS_ECDHE_ECDSA_WITH_AES_256_CBC_SHA
    0xC009,  // TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA
    0xC014,  // TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA
    0xC013,  // TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA
    0x009F,  // TLS_DHE_RSA_WITH_AES_256_GCM_SHA384
    0x009E,  // TLS_DHE_RSA_WITH_AES_128_GCM_SHA256
    0x006B,  // TLS_DHE_RSA_WITH_AES_256_CBC_SHA256
    0x0067,  // TLS_DHE_RSA_WITH_AES_128_CBC_SHA256
    0x0039,  // TLS_DHE_RSA_WITH_AES_256_CBC_SHA
    0x0033,  // TLS_DHE_RSA_WITH_AES_128_CBC_SHA
    0x009D,  // TLS_RSA_WITH_AES_256_GCM_SHA384
    0x009C,  // TLS_RSA_WITH_AES_128_GCM_SHA256
    0x003D,  // TLS_RSA_WITH_AES_256_CBC_SHA256
    0x003C,  // TLS_RSA_WITH_AES_128_CBC_SHA256
    0x0035,  // TLS_RSA_WITH_AES_256_CBC_SHA
    0x002F,  // TLS_RSA_WITH_AES_128_CBC_SHA
    0x000A,  // TLS_RSA_WITH_3DES_EDE_CBC_SHA
    0xC012,  // TLS_ECDHE_RSA_WITH_3DES_EDE_CBC_SHA
    0x0016,  // TLS_DHE_RSA_WITH_3DES_EDE_CBC_SHA
    0xC008,  // TLS_ECDHE_ECDSA_WITH_3DES_EDE_CBC_SHA
    0x0041,  // TLS_RSA_WITH_CAMELLIA_128_CBC_SHA        (censys extra)
    0x0084,  // TLS_RSA_WITH_CAMELLIA_256_CBC_SHA        (censys extra)
    0x0005,  // TLS_RSA_WITH_RC4_128_SHA                 (censys extra)
    0x0004,  // TLS_RSA_WITH_RC4_128_MD5                 (censys extra)
    0xC011,  // TLS_ECDHE_RSA_WITH_RC4_128_SHA           (censys extra)
    0xC007,  // TLS_ECDHE_ECDSA_WITH_RC4_128_SHA         (censys extra)
    0x0032,  // TLS_DHE_DSS_WITH_AES_128_CBC_SHA         (censys extra)
    0x0038,  // TLS_DHE_DSS_WITH_AES_256_CBC_SHA         (censys extra)
    0x0013,  // TLS_DHE_DSS_WITH_3DES_EDE_CBC_SHA        (censys extra)
    0x0066,  // TLS_DHE_DSS_WITH_RC4_128_SHA             (censys extra)
};

}  // namespace

std::span<const CipherSuite> probe_cipher_list() noexcept { return kProbeList; }

std::span<const CipherSuite> cipher_set(CipherProfile profile) noexcept {
  static constexpr CipherSuite kModern[] = {0xC02C, 0xC02B, 0xC030,
                                            0xC02F, 0xCCA9, 0xCCA8};
  static constexpr CipherSuite kStandard[] = {0xC030, 0xC02F, 0xC028, 0xC027, 0xC014,
                                              0xC013, 0x009D, 0x009C, 0x003D, 0x003C,
                                              0x0035, 0x002F, 0x000A};
  static constexpr CipherSuite kLegacy[] = {0x0035, 0x002F, 0x000A, 0x0005,
                                            0x0004, 0xC011, 0x0016};
  // Suites deliberately outside the probe list (e.g. PSK/ARIA families) so
  // negotiation fails — modeling the "no common cipher" hosts that yield
  // only an alert (§4, Table 2 discussion).
  static constexpr CipherSuite kExotic[] = {0x008C, 0x008D, 0xC03C, 0xC03D, 0x00A8};
  switch (profile) {
    case CipherProfile::Modern: return kModern;
    case CipherProfile::Standard: return kStandard;
    case CipherProfile::Legacy: return kLegacy;
    case CipherProfile::Exotic: return kExotic;
  }
  return {};
}

}  // namespace iwscan::tls
