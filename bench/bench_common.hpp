// Shared scaffolding for the bench programs (repro, bench_micro,
// bench_spill): standard flags, world construction, and table printing.
// Every repro experiment regenerates one table or figure of the paper (see
// DESIGN.md §4); the absolute counts are down-scaled to the simulated
// universe, the *shape* is what must match.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>

#include "analysis/scan_runner.hpp"
#include "analysis/table_writer.hpp"
#include "inetmodel/internet.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

namespace iwscan::bench {

/// One simulated Internet. exec::run_scan needs a fresh one for every scan.
struct World {
  sim::EventLoop loop;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<model::InternetModel> internet;
};

inline void define_common_flags(util::Flags& flags) {
  flags.define_u64("scale", 16,
                   "log2 of the simulated address-space size (16 = 65k addresses)",
                   model::ModelConfig::kMinScaleLog2, model::ModelConfig::kMaxScaleLog2);
  flags.define_u64("seed", 42, "population seed (same seed → same Internet)");
  flags.define_u64("scan-seed", 7, "scanner seed (address order, ISNs)");
  flags.define_double("loss", 0.002, "per-packet per-direction loss rate");
  flags.define_double("rate", 150000, "scan rate in probed targets/second");
  flags.define_u64("shards", 1,
                   "parallel scan workers (output is identical for any value)");
  flags.define_bool("csv", false, "emit CSV instead of aligned tables");
}

/// Parse flags; on --help or error prints and exits the process. A --scale
/// outside ModelConfig's range (checked by the parser, before model_config
/// narrows it to an int), a --rate that is not finite and > 0, or a --loss
/// outside [0, 1], is an error.
inline void parse_or_exit(util::Flags& flags, int argc, char** argv) {
  const auto fail = [&](const char* error) {
    std::fprintf(stderr, "%s\n%s", error, flags.usage(argv[0]).c_str());
    std::exit(2);
  };
  if (!flags.parse(argc, argv)) fail(flags.error().c_str());
  if (flags.help_requested()) {
    std::printf("%s", flags.usage(argv[0]).c_str());
    std::exit(0);
  }
  const auto out_of_range = [&](const char* flag, const char* need, double got) {
    char error[96];
    std::snprintf(error, sizeof(error), "--%s must be %s, got %g", flag, need, got);
    fail(error);
  };
  const double rate = flags.real("rate");
  if (!(std::isfinite(rate) && rate > 0)) out_of_range("rate", "finite and > 0", rate);
  const double loss = flags.real("loss");
  if (!(loss >= 0 && loss <= 1)) out_of_range("loss", "in [0, 1]", loss);
}

inline model::ModelConfig model_config(const util::Flags& flags) {
  model::ModelConfig config;
  config.scale_log2 = static_cast<int>(flags.u64("scale"));
  config.seed = flags.u64("seed");
  config.loss_rate = flags.real("loss");
  return config;
}

inline World make_world(const model::ModelConfig& config) {
  World world;
  world.network = std::make_unique<sim::Network>(world.loop, config.seed ^ 1);
  world.internet = std::make_unique<model::InternetModel>(*world.network, config);
  world.internet->install();
  return world;
}

inline World make_world(const util::Flags& flags) {
  return make_world(model_config(flags));
}

inline analysis::ScanOptions scan_options(const util::Flags& flags,
                                          core::ProbeProtocol protocol) {
  analysis::ScanOptions options;
  options.protocol = protocol;
  options.rate_pps = flags.real("rate");
  options.scan_seed = flags.u64("scan-seed");
  options.shards = flags.u64("shards");
  return options;
}

/// An outstanding-session cap high enough that the rate alone paces a
/// whole-space scan (§3.4's scans).
inline constexpr std::size_t kRatePacedOutstanding = 2'000'000;

/// §3.4's whole-IPv4 IW scan is one estimation pass: one probe at the
/// primary MSS, paced by the rate alone. repro's s34 experiment and
/// bench_micro's scan rates share it.
inline analysis::ScanOptions single_pass(analysis::ScanOptions options) {
  options.probe.probes_per_mss = 1;
  options.probe.mss_secondary = 0;
  options.max_outstanding = kRatePacedOutstanding;
  return options;
}

inline void print_table(const analysis::TextTable& table, bool csv) {
  std::fputs((csv ? table.csv() : table.render()).c_str(), stdout);
}

inline void print_header(std::string_view experiment, std::string_view paper_ref) {
  std::printf("== %.*s ==\n(reproduces %.*s of \"Large-Scale Scanning of TCP's "
              "Initial Window\", IMC'17)\n\n",
              static_cast<int>(experiment.size()), experiment.data(),
              static_cast<int>(paper_ref.size()), paper_ref.data());
}

}  // namespace iwscan::bench
