#include "netbase/tcp_options.hpp"

#include <algorithm>

namespace iwscan::net {
namespace {

constexpr std::uint8_t kEnd = 0;
constexpr std::uint8_t kNop = 1;
constexpr std::uint8_t kMss = 2;
constexpr std::uint8_t kWindowScale = 3;
constexpr std::uint8_t kSackPermitted = 4;

// Largest payload an option can carry: the length octet covers kind+length.
constexpr std::size_t kMaxOptionPayload = 253;

std::size_t unknown_payload_size(const UnknownOption& opt) {
  return std::min(opt.data.size(), kMaxOptionPayload);
}

std::size_t option_size(const TcpOption& option) {
  return std::visit(
      [](const auto& opt) -> std::size_t {
        using T = std::decay_t<decltype(opt)>;
        if constexpr (std::is_same_v<T, MssOption>) return 4;
        if constexpr (std::is_same_v<T, WindowScaleOption>) return 3;
        if constexpr (std::is_same_v<T, SackPermittedOption>) return 2;
        if constexpr (std::is_same_v<T, UnknownOption>)
          return 2 + unknown_payload_size(opt);
      },
      option);
}

}  // namespace

std::size_t encoded_tcp_options_size(const std::vector<TcpOption>& options) {
  std::size_t size = 0;
  for (const auto& option : options) size += option_size(option);
  return (size + 3) & ~std::size_t{3};
}

void encode_tcp_options(const std::vector<TcpOption>& options, WireWriter& writer) {
  std::size_t written = 0;
  for (const auto& option : options) {
    std::visit(
        [&](const auto& opt) {
          using T = std::decay_t<decltype(opt)>;
          if constexpr (std::is_same_v<T, MssOption>) {
            writer.u8(kMss);
            writer.u8(4);
            writer.u16(opt.mss);
          } else if constexpr (std::is_same_v<T, WindowScaleOption>) {
            writer.u8(kWindowScale);
            writer.u8(3);
            writer.u8(opt.shift);
          } else if constexpr (std::is_same_v<T, SackPermittedOption>) {
            writer.u8(kSackPermitted);
            writer.u8(2);
          } else if constexpr (std::is_same_v<T, UnknownOption>) {
            // The length octet is 8-bit; clamp instead of letting the cast
            // truncate and desynchronize the length from the payload.
            const std::size_t payload = unknown_payload_size(opt);
            writer.u8(opt.kind);
            writer.u8(static_cast<std::uint8_t>(2 + payload));
            writer.raw(std::span<const std::uint8_t>(opt.data).first(payload));
          }
        },
        option);
    written += option_size(option);
  }
  while (written % 4 != 0) {
    writer.u8(kNop);
    ++written;
  }
}

bool decode_tcp_options_into(std::span<const std::uint8_t> data,
                             std::vector<TcpOption>& options) {
  options.clear();
  std::size_t i = 0;
  while (i < data.size()) {
    const std::uint8_t kind = data[i];
    if (kind == kEnd) break;
    if (kind == kNop) {
      ++i;
      continue;
    }
    if (i + 1 >= data.size()) return false;
    const std::uint8_t length = data[i + 1];
    if (length < 2 || i + length > data.size()) return false;
    const auto payload = data.subspan(i + 2, length - 2);
    switch (kind) {
      case kMss: {
        if (length != 4) return false;
        const auto mss = static_cast<std::uint16_t>((payload[0] << 8) | payload[1]);
        // iwlint: allow(hot-path) -- a segment decodes to at most a few
        // options; counted by the runtime allocs-per-packet budget
        options.push_back(MssOption{mss});
        break;
      }
      case kWindowScale: {
        if (length != 3) return false;
        // iwlint: allow(hot-path) -- a segment decodes to at most a few
        // options; counted by the runtime allocs-per-packet budget
        options.push_back(WindowScaleOption{payload[0]});
        break;
      }
      case kSackPermitted: {
        if (length != 2) return false;
        // iwlint: allow(hot-path) -- a segment decodes to at most a few
        // options; counted by the runtime allocs-per-packet budget
        options.push_back(SackPermittedOption{});
        break;
      }
      // iwlint: allow(wire-enum-default) -- unknown option kinds must
      // round-trip as UnknownOption so foreign stacks stay representable (§3.1)
      default:
        // iwlint: allow(hot-path) -- a segment decodes to at most a few
        // options; counted by the runtime allocs-per-packet budget
        options.push_back(UnknownOption{kind, Bytes(payload.begin(), payload.end())});
        break;
    }
    i += length;
  }
  return true;
}

std::optional<std::vector<TcpOption>> decode_tcp_options(
    std::span<const std::uint8_t> data) {
  std::vector<TcpOption> options;
  if (!decode_tcp_options_into(data, options)) return std::nullopt;
  return options;
}

std::optional<std::uint16_t> find_mss(const std::vector<TcpOption>& options) {
  for (const auto& option : options) {
    if (const auto* mss = std::get_if<MssOption>(&option)) return mss->mss;
  }
  return std::nullopt;
}

std::optional<std::uint8_t> find_window_scale(const std::vector<TcpOption>& options) {
  for (const auto& option : options) {
    if (const auto* ws = std::get_if<WindowScaleOption>(&option)) return ws->shift;
  }
  return std::nullopt;
}

bool has_sack_permitted(const std::vector<TcpOption>& options) {
  for (const auto& option : options) {
    if (std::holds_alternative<SackPermittedOption>(option)) return true;
  }
  return false;
}

}  // namespace iwscan::net
