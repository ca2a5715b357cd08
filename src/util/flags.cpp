#include "util/flags.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace iwscan::util {

void Flags::define_u64(std::string name, std::uint64_t default_value, std::string help,
                       std::uint64_t min, std::uint64_t max) {
  Entry entry;
  entry.kind = Kind::U64;
  entry.help = std::move(help);
  entry.u64_value = default_value;
  entry.u64_min = min;
  entry.u64_max = max;
  entries_.emplace(std::move(name), std::move(entry));
}

void Flags::define_double(std::string name, double default_value, std::string help) {
  Entry entry;
  entry.kind = Kind::Double;
  entry.help = std::move(help);
  entry.double_value = default_value;
  entries_.emplace(std::move(name), std::move(entry));
}

void Flags::define_bool(std::string name, bool default_value, std::string help) {
  Entry entry;
  entry.kind = Kind::Bool;
  entry.help = std::move(help);
  entry.bool_value = default_value;
  entries_.emplace(std::move(name), std::move(entry));
}

void Flags::define_string(std::string name, std::string default_value, std::string help) {
  Entry entry;
  entry.kind = Kind::String;
  entry.help = std::move(help);
  entry.string_value = std::move(default_value);
  entries_.emplace(std::move(name), std::move(entry));
}

const Flags::Entry* Flags::find(std::string_view name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

bool Flags::assign(Entry& entry, std::string_view name, std::string_view value) {
  switch (entry.kind) {
    case Kind::U64: {
      const auto parsed = parse_u64(value);
      if (!parsed) {
        error_ = "flag --" + std::string(name) + ": expected unsigned integer, got '" +
                 std::string(value) + "'";
        return false;
      }
      if (*parsed < entry.u64_min || *parsed > entry.u64_max) {
        char range[48];
        std::snprintf(range, sizeof(range), "[%llu, %llu]",
                      static_cast<unsigned long long>(entry.u64_min),
                      static_cast<unsigned long long>(entry.u64_max));
        error_ = "flag --" + std::string(name) + ": must be in " + range + ", got " +
                 std::string(value);
        return false;
      }
      entry.u64_value = *parsed;
      return true;
    }
    case Kind::Double: {
      double parsed = 0.0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), parsed);
      if (ec != std::errc{} || ptr != value.data() + value.size()) {
        error_ = "flag --" + std::string(name) + ": expected number, got '" +
                 std::string(value) + "'";
        return false;
      }
      entry.double_value = parsed;
      return true;
    }
    case Kind::Bool: {
      if (iequals(value, "true") || value == "1") {
        entry.bool_value = true;
      } else if (iequals(value, "false") || value == "0") {
        entry.bool_value = false;
      } else {
        error_ = "flag --" + std::string(name) + ": expected true/false, got '" +
                 std::string(value) + "'";
        return false;
      }
      return true;
    }
    case Kind::String:
      entry.string_value = value;
      return true;
  }
  return false;
}

bool Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (!arg.starts_with("--")) {
      error_ = "unexpected positional argument '" + std::string(arg) + "'";
      return false;
    }
    arg.remove_prefix(2);

    std::string_view name = arg;
    std::optional<std::string_view> value;
    if (const std::size_t eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }

    auto it = entries_.find(name);
    // `--no-foo` sugar for boolean flags.
    if (it == entries_.end() && name.starts_with("no-")) {
      const auto base = entries_.find(name.substr(3));
      if (base != entries_.end() && base->second.kind == Kind::Bool && !value) {
        base->second.bool_value = false;
        continue;
      }
    }
    if (it == entries_.end()) {
      error_ = "unknown flag --" + std::string(name);
      return false;
    }

    Entry& entry = it->second;
    if (!value) {
      if (entry.kind == Kind::Bool) {
        entry.bool_value = true;
        continue;
      }
      if (i + 1 >= argc) {
        error_ = "flag --" + std::string(name) + " requires a value";
        return false;
      }
      value = argv[++i];
    }
    if (!assign(entry, name, *value)) return false;
  }
  return true;
}

std::uint64_t Flags::u64(std::string_view name) const {
  const Entry* entry = find(name);
  if (!entry || entry->kind != Kind::U64) {
    throw std::logic_error("undefined u64 flag: " + std::string(name));
  }
  return entry->u64_value;
}

double Flags::real(std::string_view name) const {
  const Entry* entry = find(name);
  if (!entry || entry->kind != Kind::Double) {
    throw std::logic_error("undefined double flag: " + std::string(name));
  }
  return entry->double_value;
}

bool Flags::boolean(std::string_view name) const {
  const Entry* entry = find(name);
  if (!entry || entry->kind != Kind::Bool) {
    throw std::logic_error("undefined bool flag: " + std::string(name));
  }
  return entry->bool_value;
}

const std::string& Flags::str(std::string_view name) const {
  const Entry* entry = find(name);
  if (!entry || entry->kind != Kind::String) {
    throw std::logic_error("undefined string flag: " + std::string(name));
  }
  return entry->string_value;
}

std::string Flags::usage(std::string_view program) const {
  std::ostringstream oss;
  oss << "Usage: " << program << " [flags]\n";
  for (const auto& [name, entry] : entries_) {
    oss << "  --" << name;
    switch (entry.kind) {
      case Kind::U64: oss << "=<u64>       (default " << entry.u64_value << ")"; break;
      case Kind::Double:
        oss << "=<number>    (default " << entry.double_value << ")";
        break;
      case Kind::Bool:
        oss << "[=<bool>]    (default " << (entry.bool_value ? "true" : "false") << ")";
        break;
      case Kind::String:
        oss << "=<string>    (default '" << entry.string_value << "')";
        break;
    }
    oss << "\n      " << entry.help << "\n";
  }
  return oss.str();
}

}  // namespace iwscan::util
