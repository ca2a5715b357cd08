// Small string utilities shared across modules (HTTP parsing, table output).
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace iwscan::util {

/// Split on a delimiter character. Empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text, char delim);

/// Strip leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// Case-insensitive ASCII equality.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// Case-insensitive prefix test.
[[nodiscard]] bool istarts_with(std::string_view text, std::string_view prefix) noexcept;

/// True if `needle` occurs in `haystack` (case-insensitive).
[[nodiscard]] bool icontains(std::string_view haystack, std::string_view needle) noexcept;

/// Parse an unsigned decimal integer; nullopt on any non-digit or overflow.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept;

/// Parse a ZMap-style process shard "i/N" (two unsigned decimals, i < N).
/// Fills `shard`/`total` and returns true on success; any other text,
/// N = 0 included, leaves both untouched and returns false.
[[nodiscard]] bool parse_shard_spec(std::string_view text, std::uint64_t& shard,
                                    std::uint64_t& total) noexcept;

/// Render bytes with a unit suffix ("2186 B", "14.3 kB", "1.2 MB").
[[nodiscard]] std::string format_bytes(std::uint64_t bytes);

/// Render a ratio as a percentage with one decimal ("50.8%").
[[nodiscard]] std::string format_percent(double fraction);

/// Render a count with thousands separators ("48,300,000").
[[nodiscard]] std::string format_count(std::uint64_t value);

}  // namespace iwscan::util
