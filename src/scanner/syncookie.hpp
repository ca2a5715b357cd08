// Keyed SYN-cookie codec for the stateless sweep tier (the ZMap model, see
// PAPERS.md): the scanner keeps no per-host session object, so everything
// it needs to interpret a reply — which target this is, which probe type,
// which seed epoch — must ride inside the probe itself. TCP echoes our
// initial sequence number back in its acknowledgement (SYN-ACK and
// closed-port RST carry ack = seq+1), so the 32-bit ISN is the stateless
// scanner's only storage.
//
// Layout of the plaintext word before encryption:
//
//   [ index:24 | probe:2 | epoch:2 | mac:4 ]
//
// The MAC is a truncated SipHash-2-4 over (index, probe, epoch, target
// address) under a per-scan key, so a host can only echo cookies minted
// for its own address — it cannot forge an ack that attributes a reply to
// a different permutation-cycle index. The whole word is then passed
// through a 4-round keyed Feistel network so on-the-wire ISNs look
// uniformly random (real stacks randomize ISNs; a bare counter would also
// make the sweep trivially fingerprintable).
//
// 24 bits of index cap one epoch at 2^24 targets; whole-IPv4 sweeps rotate
// the 2-bit epoch between passes (stale echoes from the previous epoch
// then fail validation instead of aliasing a new target).
#pragma once

#include <array>
#include <cstdint>

#include "netbase/ipv4.hpp"

namespace iwscan::scan {

/// Identity carried inside one stateless probe's sequence number.
struct CookieIdentity {
  std::uint64_t index = 0;  // permutation-cycle index, < kMaxCookieIndex
  std::uint8_t probe = 0;   // probe type, 2 bits
  std::uint8_t epoch = 0;   // seed epoch, 2 bits

  friend bool operator==(const CookieIdentity&, const CookieIdentity&) = default;
};

inline constexpr std::uint64_t kMaxCookieIndex = std::uint64_t{1} << 24;
inline constexpr std::uint8_t kMaxCookieProbe = 1 << 2;
inline constexpr std::uint8_t kMaxCookieEpoch = 1 << 2;

class SynCookieCodec {
 public:
  explicit SynCookieCodec(std::uint64_t seed) noexcept;

  /// Mint the ISN for a probe to `target`. Requires index/probe/epoch in
  /// range (IWSCAN_ASSERT; the sweep validates its domain at start()).
  [[nodiscard]] std::uint32_t pack(const CookieIdentity& identity,
                                   net::IPv4Address target) const noexcept;

  /// Recover the identity from an echoed cookie (the reply's ack minus the
  /// protocol offset, undone by the caller). Returns false — leaving `out`
  /// untouched — when the MAC does not verify, i.e. the ack was forged,
  /// corrupted, or minted for a different source address or scan key.
  [[nodiscard]] bool unpack(std::uint32_t cookie, net::IPv4Address source,
                            CookieIdentity& out) const noexcept;

 private:
  [[nodiscard]] std::uint32_t encrypt(std::uint32_t word) const noexcept;
  [[nodiscard]] std::uint32_t decrypt(std::uint32_t word) const noexcept;
  [[nodiscard]] std::uint8_t mac(std::uint32_t fields,
                                 net::IPv4Address address) const noexcept;

  std::uint64_t mac_k0_;
  std::uint64_t mac_k1_;
  std::array<std::uint32_t, 4> round_keys_;
};

}  // namespace iwscan::scan
