#include "netbase/tcp_options.hpp"

namespace iwscan::net {
namespace {

constexpr std::uint8_t kEnd = 0;
constexpr std::uint8_t kNop = 1;
constexpr std::uint8_t kMss = 2;
constexpr std::uint8_t kWindowScale = 3;
constexpr std::uint8_t kSackPermitted = 4;

}  // namespace

void encode_mss_option(std::uint16_t mss, WireWriter& writer) {
  writer.u8(kMss);
  writer.u8(kMssWireSize);
  writer.u16(mss);
}

bool read_tcp_options(std::span<const std::uint8_t> area,
                      std::optional<std::uint16_t>& mss) noexcept {
  mss.reset();
  std::size_t i = 0;
  while (i < area.size()) {
    const std::uint8_t kind = area[i];
    if (kind == kEnd) break;
    if (kind == kNop) {
      ++i;
      continue;
    }
    if (i + 1 >= area.size()) return false;
    const std::uint8_t length = area[i + 1];
    if (length < 2 || i + length > area.size()) return false;
    switch (kind) {
      case kMss:
        if (length != kMssWireSize) return false;
        if (!mss) mss = static_cast<std::uint16_t>((area[i + 2] << 8) | area[i + 3]);
        break;
      case kWindowScale:
        if (length != 3) return false;
        break;
      case kSackPermitted:
        if (length != 2) return false;
        break;
      // iwlint: allow(wire-enum-default) -- option kinds the scan never
      // sends or reads are skipped by their length octet (§3.1)
      default:
        break;
    }
    i += length;
  }
  return true;
}

}  // namespace iwscan::net
