// The "1% is enough" operating mode (§4.1): instead of sweeping the whole
// address space, scan a deterministic 1% sample and compare its IW
// distribution against the full scan. This is the footprint-reducing mode
// the authors run weekly at https://iw.comsys.rwth-aachen.de.
//
//   $ ./build/examples/one_percent_survey [--scale 17] [--fraction 0.01]
#include <cstdio>

#include "analysis/iw_table.hpp"
#include "analysis/scan_runner.hpp"
#include "analysis/table_writer.hpp"
#include "inetmodel/internet.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace iwscan;

  util::Flags flags;
  flags.define_u64("scale", 16, "log2 of the simulated address space",
                   model::ModelConfig::kMinScaleLog2, model::ModelConfig::kMaxScaleLog2);
  flags.define_double("fraction", 0.01, "sample fraction");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(), flags.usage(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage(argv[0]).c_str());
    return 0;
  }
  if (const double fraction = flags.real("fraction"); !(fraction > 0 && fraction <= 1)) {
    std::fprintf(stderr, "--fraction must be in (0, 1], got %g\n%s", fraction,
                 flags.usage(argv[0]).c_str());
    return 2;
  }

  sim::EventLoop loop;
  sim::Network network(loop, 2);
  model::ModelConfig model_config;
  model_config.scale_log2 = static_cast<int>(flags.u64("scale"));
  model::InternetModel internet(network, model_config);
  internet.install();

  analysis::ScanOptions full;
  full.protocol = core::ProbeProtocol::Http;
  const auto full_scan = analysis::run_iw_scan(network, internet, full);

  // Every scan needs a fresh world, built from the same seeds.
  sim::EventLoop sample_loop;
  sim::Network sample_network(sample_loop, 2);
  model::InternetModel sample_internet(sample_network, model_config);
  sample_internet.install();
  analysis::ScanOptions sampled = full;
  sampled.sample_fraction = flags.real("fraction");
  const auto sample_scan =
      analysis::run_iw_scan(sample_network, sample_internet, sampled);

  const auto full_dist = analysis::iw_fractions(full_scan.records);
  const auto sample_dist = analysis::iw_fractions(sample_scan.records);

  std::printf("full scan:   %zu hosts, %llu packets\n", full_scan.records.size(),
              static_cast<unsigned long long>(full_scan.engine.packets_sent));
  std::printf("%.1f%% scan: %zu hosts, %llu packets (%.1fx fewer)\n\n",
              flags.real("fraction") * 100, sample_scan.records.size(),
              static_cast<unsigned long long>(sample_scan.engine.packets_sent),
              static_cast<double>(full_scan.engine.packets_sent) /
                  static_cast<double>(sample_scan.engine.packets_sent));

  analysis::TextTable table({"IW", "full %", "sample %", "delta"});
  for (const auto& [iw, fraction] : full_dist) {
    if (fraction < 0.002) continue;
    const auto it = sample_dist.find(iw);
    const double sampled_fraction = it == sample_dist.end() ? 0.0 : it->second;
    table.add_row({std::to_string(iw), analysis::fmt_double(fraction * 100, 2),
                   analysis::fmt_double(sampled_fraction * 100, 2),
                   analysis::fmt_double((sampled_fraction - fraction) * 100, 2)});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nL1 distance between distributions: %.4f\n",
              analysis::l1_distance(full_dist, sample_dist));
  std::printf("(the paper's claim: a 1%% sample of the real IPv4 space — still\n"
              " ~600k hosts — reproduces the full distribution; at simulation\n"
              " scale the sample is much smaller, so increase --scale to watch\n"
              " the distance shrink)\n");
  return 0;
}
