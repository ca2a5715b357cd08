// Hostile-host behaviors (§5 "anomalous stacks"; "Ten Years of ZMap"'s
// tarpits, RST injectors and broken daemons): ~10 deterministic pathologies
// pluggable into the Internet model, so the scan engine's graceful
// degradation can be exercised — and pinned — under traffic that a
// well-behaved TCP stack would never produce.
//
// Two implementation families:
//   * raw scripted endpoints (no TCP stack at all) for wire-level
//     pathologies — tarpits, zero-window stallers, MSS violators,
//     never-retransmitters, RST injectors, FIN-before-data, shrinking
//     retransmitters, slowloris byte-dripper;
//   * applications riding the real tcp::TcpHost stack for app-layer
//     pathologies — infinite 301 redirect loops and TLS fatal alerts.
//
// Determinism contract (the sharded byte-identity invariant): a host's
// behavior depends only on (seed, ip, peer ports) and time since its own
// first packet — never on global state or wall clock — so an adversarial
// population merges byte-identically across any shard count.
#pragma once

#include <memory>
#include <string_view>

#include "netbase/ipv4.hpp"
#include "netsim/network.hpp"

namespace iwscan::model {

enum class AdversarialBehavior : std::uint8_t {
  Tarpit,              // SYN/ACK, then total silence (never ACKs the request)
  ZeroWindow,          // ACKs the request but pins the receive window at 0
  MssViolator,         // sends 1000 B segments against an announced 64 B MSS
  NoRetransmit,        // one burst, never retransmits (defeats RTO detection)
  RstInjector,         // data starts flowing, then an injected RST
  RedirectLoop,        // 301 chain that alternates between two paths forever
  Slowloris,           // one payload byte every 500 ms, no retransmissions
  FinBeforeData,       // ACK+FIN in answer to the request, zero payload
  TlsFatalAlert,       // TLS fatal alert instead of a ServerHello, then FIN
  ShrinkingRetransmit, // partially-overlapping ranges rewriting stream history
};

inline constexpr int kAdversarialBehaviorCount = 10;

[[nodiscard]] constexpr std::string_view to_string(AdversarialBehavior b) noexcept {
  switch (b) {
    case AdversarialBehavior::Tarpit: return "tarpit";
    case AdversarialBehavior::ZeroWindow: return "zero-window";
    case AdversarialBehavior::MssViolator: return "mss-violator";
    case AdversarialBehavior::NoRetransmit: return "no-retransmit";
    case AdversarialBehavior::RstInjector: return "rst-injector";
    case AdversarialBehavior::RedirectLoop: return "redirect-loop";
    case AdversarialBehavior::Slowloris: return "slowloris";
    case AdversarialBehavior::FinBeforeData: return "fin-before-data";
    case AdversarialBehavior::TlsFatalAlert: return "tls-fatal-alert";
    case AdversarialBehavior::ShrinkingRetransmit: return "shrinking-retransmit";
  }
  return "?";
}

/// Build the endpoint implementing `behavior` at `ip`. `seed` keys all of
/// the host's draws (ISNs etc.); the caller attaches/detaches the endpoint.
/// Its quiescent() reports when it holds no connection state.
[[nodiscard]] std::unique_ptr<sim::Endpoint> make_adversarial_host(
    sim::Network& network, net::IPv4Address ip, AdversarialBehavior behavior,
    std::uint64_t seed);

}  // namespace iwscan::model
