#include "inetmodel/censys_certs.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace iwscan::model {
namespace {

// Quantile anchors (cumulative probability → chain bytes). Between anchors
// the CDF is linear in bytes. The anchors encode the published statistics:
// P(≥640)=0.86 → CDF(640)=0.14; P(≥2176)=0.50 → CDF(2176)=0.50; the upper
// tail is thin so that the mean lands near 2186 B.
struct Anchor {
  double cdf;
  double bytes;
};

constexpr std::array<Anchor, 10> kAnchors = {{
    {0.000, 36.0},     // self-signed minimal blobs
    {0.020, 300.0},
    {0.080, 520.0},
    {0.140, 640.0},    // P(≥640) = 0.86
    {0.300, 1400.0},
    {0.500, 2176.0},   // P(≥2176) = 0.50
    {0.800, 2900.0},
    {0.960, 4200.0},
    {0.998, 9000.0},
    {1.000, 65000.0},  // max observed 65 kB
}};

}  // namespace

std::size_t CertChainDistribution::inverse_cdf(double quantile) noexcept {
  quantile = std::clamp(quantile, 0.0, 1.0);
  for (std::size_t i = 1; i < kAnchors.size(); ++i) {
    if (quantile <= kAnchors[i].cdf) {
      const auto& lo = kAnchors[i - 1];
      const auto& hi = kAnchors[i];
      const double t = hi.cdf == lo.cdf ? 0.0 : (quantile - lo.cdf) / (hi.cdf - lo.cdf);
      const double bytes = lo.bytes + t * (hi.bytes - lo.bytes);
      return static_cast<std::size_t>(bytes);
    }
  }
  return kMaxBytes;
}

std::size_t CertChainDistribution::sample(util::Rng& rng) noexcept {
  return inverse_cdf(rng.uniform01());
}

double CertChainDistribution::ccdf(double bytes) noexcept {
  if (bytes <= kAnchors.front().bytes) return 1.0;
  for (std::size_t i = 1; i < kAnchors.size(); ++i) {
    if (bytes <= kAnchors[i].bytes) {
      const auto& lo = kAnchors[i - 1];
      const auto& hi = kAnchors[i];
      const double t =
          hi.bytes == lo.bytes ? 0.0 : (bytes - lo.bytes) / (hi.bytes - lo.bytes);
      return 1.0 - (lo.cdf + t * (hi.cdf - lo.cdf));
    }
  }
  return 0.0;
}

}  // namespace iwscan::model
