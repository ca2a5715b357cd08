#include "util/strings.hpp"

#include <cctype>
#include <cstdio>

namespace iwscan::util {

std::vector<std::string_view> split(std::string_view text, char delim) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) noexcept {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v';
  };
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool istarts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() && iequals(text.substr(0, prefix.size()), prefix);
}

bool icontains(std::string_view haystack, std::string_view needle) noexcept {
  if (needle.empty()) return true;
  if (haystack.size() < needle.size()) return false;
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    if (iequals(haystack.substr(i, needle.size()), needle)) return true;
  }
  return false;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

bool parse_shard_spec(std::string_view text, std::uint64_t& shard,
                      std::uint64_t& total) noexcept {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return false;
  const auto i = parse_u64(text.substr(0, slash));
  const auto n = parse_u64(text.substr(slash + 1));
  if (!i.has_value() || !n.has_value() || *n == 0 || *i >= *n) return false;
  shard = *i;
  total = *n;
  return true;
}

std::string format_bytes(std::uint64_t bytes) {
  char buf[64];
  if (bytes < 10'000) {
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(bytes));
  } else if (bytes < 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1f kB", static_cast<double>(bytes) / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f MB", static_cast<double>(bytes) / 1'000'000.0);
  }
  return buf;
}

std::string format_percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

std::string format_count(std::uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace iwscan::util
