// Aligned text tables + CSV output for the experiment harnesses.
#pragma once

#include <string>
#include <vector>

namespace iwscan::analysis {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  /// Monospace-aligned rendering with a header separator.
  [[nodiscard]] std::string render() const;

  /// RFC-4180-ish CSV (quotes cells containing commas/quotes).
  [[nodiscard]] std::string csv() const;

  /// GitHub-flavored Markdown: one "| cell | " row per line, a "|---|"
  /// separator after the header. Cells are emitted verbatim.
  [[nodiscard]] std::string markdown() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision helper ("12.3").
[[nodiscard]] std::string fmt_double(double value, int decimals = 1);

}  // namespace iwscan::analysis
