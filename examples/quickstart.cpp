// Quickstart: stand up a simulated Internet, run an HTTP initial-window
// scan over it, and print the measured IW distribution.
//
//   $ ./build/examples/quickstart
//   $ ./build/examples/quickstart --shards=4    # same output, more cores
//   $ ./build/examples/quickstart --two-phase   # stateless sweep first
//
// Multi-process operator mode (ZMap-style): each process scans a disjoint
// stride of the same permutation and spills its records to disk; iwmerge
// reconstructs the single-process report byte-for-byte:
//
//   $ ./build/examples/quickstart --shard=0/2 --spill-dir=run/p0 &
//   $ ./build/examples/quickstart --shard=1/2 --spill-dir=run/p1 &
//   $ wait && ./build/tools/iwmerge/iwmerge --inputs=run/p0,run/p1
//
// This is the 20-line core of the library: a Network carries packets, an
// InternetModel materializes hosts lazily, and run_iw_scan() drives the
// ZMap-style engine with the paper's estimation methodology (Fig. 1).
#include <cstdio>
#include <string>

#include "analysis/iw_table.hpp"
#include "analysis/scan_runner.hpp"
#include "analysis/spill_report.hpp"
#include "inetmodel/internet.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace iwscan;

  util::Flags flags;
  flags.define_u64("shards", 1,
                   "parallel scan workers (output is identical for any value)");
  flags.define_bool("two-phase", false,
                    "stateless ZBanner-style sweep first; only responsive "
                    "hosts reach the stateful IW estimator");
  flags.define_string("shard", "0/1",
                      "this process's stride of the target permutation, as "
                      "i/N (run one process per stride, then iwmerge)");
  flags.define_u64("seed", 7, "scan seed (all processes of one scan must match)");
  flags.define_string("spill-dir", "",
                      "stream records into columnar spill files under this "
                      "directory instead of RAM (required for --shard i/N>1)");
  flags.define_u64("cdn-fraction", 0,
                   "percent of web hosts in CDN-eligible ASes overlaid as "
                   "modern large-IW edges (paced flights, per-vhost tiers)");
  flags.define_u64("epoch", 0,
                   "longitudinal epoch: advances the deterministic IW/CDN-tier "
                   "drift (0 = the paper's snapshot)");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage(argv[0]).c_str());
    return 0;
  }
  std::uint64_t process_shard = 0;
  std::uint64_t process_shards = 1;
  if (!util::parse_shard_spec(flags.str("shard"), process_shard, process_shards)) {
    std::fprintf(stderr, "quickstart: --shard must be i/N with i < N\n");
    return 2;
  }

  // 1. A virtual-time network and a synthetic Internet of ~2^14 addresses.
  sim::EventLoop loop;
  sim::Network network(loop, /*seed=*/1);
  model::ModelConfig model_config;
  model_config.scale_log2 = 14;
  model_config.cdn_fraction = static_cast<double>(flags.u64("cdn-fraction")) / 100.0;
  model_config.epoch = static_cast<int>(flags.u64("epoch"));
  model::InternetModel internet(network, model_config);
  internet.install();

  // 2. Scan every address for HTTP (port 80) IW estimates: 3 probes per
  //    host at MSS 64, then 3 more at MSS 128 (the paper's §4 setup).
  analysis::ScanOptions options;
  options.protocol = core::ProbeProtocol::Http;
  options.rate_pps = 50'000;
  options.scan_seed = flags.u64("seed");
  options.shards = flags.u64("shards");  // >1: exec:: worker threads
  options.process_shard = process_shard;  // this process's permutation stride
  options.process_shards = process_shards;
  options.spill_dir = flags.str("spill-dir");
  // --two-phase: a stateless SYN sweep (no per-host state, identity in the
  // ISN) covers the space first; once it is done, the stateful estimator
  // probes only the responsive sliver. Records are byte-identical to the
  // stateful-everywhere scan restricted to that sliver, and the virtual
  // time printed below is the sweep's plus the estimate's.
  options.two_phase = flags.boolean("two-phase");
  const auto output = analysis::run_iw_scan(network, internet, options);
  if (options.two_phase) {
    std::printf("phase 1 swept %llu addresses: %llu responsive, %llu with "
                "port 80 closed, %llu banners; %llu promoted to phase 2\n",
                static_cast<unsigned long long>(output.sweep.targets_probed),
                static_cast<unsigned long long>(output.sweep.responsive),
                static_cast<unsigned long long>(output.sweep.closed),
                static_cast<unsigned long long>(output.sweep.banners),
                static_cast<unsigned long long>(output.promoted));
  }

  // Spill mode: records went to disk, not RAM. Read them back through the
  // streaming merge for the same report (or hand the directory to iwmerge
  // together with the other processes' directories).
  if (!options.spill_dir.empty()) {
    analysis::SpillSummary merged;
    std::string error;
    if (!analysis::summarize_spill_files(output.spill_files, merged, error)) {
      std::fprintf(stderr, "quickstart: %s\n", error.c_str());
      return 1;
    }
    std::printf("probed %llu hosts (shard %llu/%llu): %llu reachable, success "
                "%.1f%%, few-data %.1f%%, error %.1f%%\n",
                static_cast<unsigned long long>(merged.records),
                static_cast<unsigned long long>(process_shard),
                static_cast<unsigned long long>(process_shards),
                static_cast<unsigned long long>(merged.summary.reachable),
                merged.summary.success_rate() * 100,
                merged.summary.few_data_rate() * 100,
                merged.summary.error_rate() * 100);
    std::printf("spilled %zu file(s) under %s — merge with iwmerge\n",
                output.spill_files.size(), options.spill_dir.c_str());
    return 0;
  }

  // 3. Aggregate into the Table-1 / Fig.-3 views.
  const auto summary = analysis::summarize(output.records);
  std::printf("probed %zu hosts: %llu reachable, success %.1f%%, few-data "
              "%.1f%%, error %.1f%%\n",
              output.records.size(),
              static_cast<unsigned long long>(summary.reachable),
              summary.success_rate() * 100, summary.few_data_rate() * 100,
              summary.error_rate() * 100);

  std::printf("\nIW distribution (successful estimates):\n");
  for (const auto& [iw, fraction] : analysis::iw_fractions(output.records)) {
    if (fraction < 0.001) continue;
    std::printf("  IW %-3u %6.2f%%  %s\n", iw, fraction * 100,
                std::string(static_cast<std::size_t>(fraction * 120), '#').c_str());
  }

  std::printf("\nscan took %.1f virtual seconds, %llu packets\n",
              std::chrono::duration<double>(output.duration).count(),
              static_cast<unsigned long long>(output.engine.packets_sent));
  return 0;
}
