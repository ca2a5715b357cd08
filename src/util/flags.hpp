// Tiny command-line flag parser for bench/example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name`. Unknown flags are an error so that typos in experiment
// parameters do not silently run the default configuration.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace iwscan::util {

class Flags {
 public:
  /// Declare flags before parse(). `help` is printed by usage(). parse()
  /// rejects a u64 value outside [min, max].
  void define_u64(std::string name, std::uint64_t default_value, std::string help,
                  std::uint64_t min = 0,
                  std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
  void define_double(std::string name, double default_value, std::string help);
  void define_bool(std::string name, bool default_value, std::string help);
  void define_string(std::string name, std::string default_value, std::string help);

  /// Parse argv. Returns false (and fills error()) on unknown flag or bad
  /// value. `--help` sets help_requested().
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::uint64_t u64(std::string_view name) const;
  [[nodiscard]] double real(std::string_view name) const;
  [[nodiscard]] bool boolean(std::string_view name) const;
  [[nodiscard]] const std::string& str(std::string_view name) const;

  [[nodiscard]] bool help_requested() const noexcept { return help_requested_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] std::string usage(std::string_view program) const;

 private:
  enum class Kind { U64, Double, Bool, String };
  struct Entry {
    Kind kind = Kind::U64;
    std::string help;
    std::uint64_t u64_value = 0;
    std::uint64_t u64_min = 0;
    std::uint64_t u64_max = 0;
    double double_value = 0.0;
    bool bool_value = false;
    std::string string_value;
  };

  [[nodiscard]] const Entry* find(std::string_view name) const;
  bool assign(Entry& entry, std::string_view name, std::string_view value);

  std::map<std::string, Entry, std::less<>> entries_;
  std::string error_;
  bool help_requested_ = false;
};

}  // namespace iwscan::util
