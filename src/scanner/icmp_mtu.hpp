// ICMP-based path-MTU discovery probe (RFC 1191), reproducing footnote 1 of
// the paper: an ICMP module estimating typical MSS values ("we found 99%
// (80%) of all hosts support an MSS of 1336 B (1436 B)").
//
// Strategy per host: send a DF echo sized to the candidate MTU; a router on
// an undersized path answers with Fragmentation Needed carrying the next-
// hop MTU, which we then confirm with a second probe at exactly that size.
#pragma once

#include <functional>

#include "scanner/scan_engine.hpp"

namespace iwscan::scan {

struct MtuProbeResult {
  net::IPv4Address ip;
  bool responded = false;
  std::uint32_t path_mtu = 0;  // confirmed path MTU (0 if unresponsive)
  /// Largest TCP MSS this path supports (MTU − 40).
  [[nodiscard]] std::uint32_t supported_mss() const noexcept {
    return path_mtu > 40 ? path_mtu - 40 : 0;
  }
};

class IcmpMtuModule final : public ProbeModule {
 public:
  using ResultFn = std::function<void(const MtuProbeResult&)>;

  explicit IcmpMtuModule(ResultFn on_result) : on_result_(std::move(on_result)) {}

  std::unique_ptr<ProbeSession> create_session(SessionServices& services,
                                               net::IPv4Address target,
                                               std::function<void()> finish) override;

 private:
  ResultFn on_result_;
};

}  // namespace iwscan::scan
