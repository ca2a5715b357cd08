// Stock-ZMap-style single-exchange SYN port scan.
//
// Serves two purposes: the reachability pre-scan the paper's numbers are
// based on ("we can successfully exchange data with ≈48.3 M hosts on port
// 80"), and the single-packet baseline against which §3.4 compares the
// multi-packet IW scan's efficiency (repro's s34 experiment).
#pragma once

#include <functional>
#include <vector>

#include "netsim/event_loop.hpp"
#include "scanner/scan_engine.hpp"

namespace iwscan::scan {

enum class PortState { Open, Closed, Unresponsive };

struct SynScanResult {
  net::IPv4Address ip;
  PortState state = PortState::Unresponsive;
};

class SynScanModule final : public ProbeModule {
 public:
  using ResultFn = std::function<void(const SynScanResult&)>;

  /// How long a target may stay silent before it counts as Unresponsive.
  static constexpr sim::SimTime kTimeout = sim::sec(8);

  SynScanModule(std::uint16_t port, ResultFn on_result)
      : port_(port), on_result_(std::move(on_result)) {}

  std::unique_ptr<ProbeSession> create_session(SessionServices& services,
                                               net::IPv4Address target,
                                               std::function<void()> finish) override;

 private:
  std::uint16_t port_;
  ResultFn on_result_;
};

}  // namespace iwscan::scan
