// Weekly-report mode: run the low-footprint sampled scan pair (HTTP + TLS)
// and emit the self-contained report the paper's authors publish weekly at
// iw.comsys.rwth-aachen.de — here rendered from the simulated Internet.
//
//   $ ./build/examples/weekly_report [--scale 16] [--fraction 0.05] [--markdown]
#include <cstdio>

#include "analysis/report.hpp"
#include "analysis/scan_runner.hpp"
#include "inetmodel/internet.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace iwscan;

  util::Flags flags;
  flags.define_u64("scale", 15, "log2 of the simulated address space",
                   model::ModelConfig::kMinScaleLog2, model::ModelConfig::kMaxScaleLog2);
  flags.define_double("fraction", 0.10, "sample fraction (1.0 = full sweep)");
  flags.define_bool("markdown", false, "emit Markdown instead of plain text");
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
  sim::Network network(loop, 4);
  model::ModelConfig model_config;
  model_config.scale_log2 = static_cast<int>(flags.u64("scale"));
  model::InternetModel internet(network, model_config);
  internet.install();

  analysis::ScanOptions options;
  options.sample_fraction = flags.real("fraction");
  options.protocol = core::ProbeProtocol::Http;
  const auto http = analysis::run_iw_scan(network, internet, options);

  // Every scan needs a fresh world; the first one stays the report's source
  // for registry and rDNS lookups, which are pure functions of the seed.
  sim::EventLoop tls_loop;
  sim::Network tls_network(tls_loop, 4);
  model::InternetModel tls_internet(tls_network, model_config);
  tls_internet.install();
  options.protocol = core::ProbeProtocol::Tls;
  const auto tls = analysis::run_iw_scan(tls_network, tls_internet, options);

  analysis::ScanInputs inputs;
  inputs.http = http.records;
  inputs.tls = tls.records;
  inputs.registry = &internet.registry();
  inputs.rdns = [&internet](net::IPv4Address ip) { return internet.truth(ip).rdns; };
  if (flags.real("fraction") < 1.0) inputs.sample_fraction = flags.real("fraction");

  analysis::ReportOptions report_options;
  report_options.markdown = flags.boolean("markdown");
  report_options.title = "TCP Initial Window scan report (simulated Internet)";
  std::fputs(analysis::render_report(inputs, report_options).c_str(), stdout);
  return 0;
}
