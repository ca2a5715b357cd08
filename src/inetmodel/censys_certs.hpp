// Certificate-chain length distribution, anchored to the censys.io analysis
// in §3.3 / Fig. 2 of the paper:
//
//   * 36.5 M hosts analyzed, mean chain length 2186 B, min 36 B, max 65 kB;
//   * ≥ 640 B (10 segments × 64 B MSS) for ~86 % of hosts;
//   * ≥ 2176 B (34 segments × 64 B) for ~50 % of hosts.
//
// The paper's raw dataset is proprietary, so we substitute an empirical
// quantile table interpolated between those published anchors (DESIGN.md
// §2); sampling inverts the piecewise-linear CDF.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace iwscan::model {

class CertChainDistribution {
 public:
  static constexpr std::size_t kMinBytes = 36;
  static constexpr std::size_t kMaxBytes = 65'000;

  /// Draw one chain length (bytes).
  [[nodiscard]] static std::size_t sample(util::Rng& rng) noexcept;

  /// CCDF P(length ≥ bytes) of the model distribution (for Fig. 2 checks).
  [[nodiscard]] static double ccdf(double bytes) noexcept;

 private:
  [[nodiscard]] static std::size_t inverse_cdf(double quantile) noexcept;
};

}  // namespace iwscan::model
