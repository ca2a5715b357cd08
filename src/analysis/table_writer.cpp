#include "analysis/table_writer.hpp"

#include <algorithm>
#include <cstdio>

namespace iwscan::analysis {

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  std::string out;
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string{};
      out += cell;
      if (i + 1 < widths.size()) out.append(widths[i] - cell.size() + 2, ' ');
    }
    out += '\n';
  };

  emit_row(headers_);
  std::size_t total = 0;
  for (const std::size_t w : widths) total += w + 2;
  out.append(total > 2 ? total - 2 : total, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

std::string TextTable::csv() const {
  const auto quote = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
    std::string quoted = "\"";
    for (const char c : cell) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    return quoted;
  };
  std::string out;
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) out += ',';
      out += quote(cells[i]);
    }
    out += '\n';
  };
  emit_row(headers_);
  for (const auto& row : rows_) emit_row(row);
  return out;
}

std::string TextTable::markdown() const {
  std::string out;
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    out += "| ";
    for (const std::string& cell : cells) out += cell + " | ";
    out += '\n';
  };
  emit_row(headers_);
  out += '|';
  for (std::size_t i = 0; i < headers_.size(); ++i) out += "---|";
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

std::string fmt_double(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

}  // namespace iwscan::analysis
