// iwbench: runs one workload for a measuring budget and prints one
// JSON object on its last line for run.py. Built twice (CMakeLists.txt):
// `iwbench` reports the end-to-end metrics of the untraced pipeline,
// `iwbench_traced` (IWBENCH_TRACED) the per-layer metrics of the traced
// replay. Inputs come only from the seeds on the command line.
//
//   iwbench --workload http_stateful --seed 42 --scan-seed 7 --seconds 10
#include <cstdio>
#include <filesystem>
#include <string>

#include "util/flags.hpp"
#include "workloads.hpp"

using namespace iwscan;

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

void print_report(const iwbench::Workload& workload, const iwbench::RunReport& report) {
  std::printf("{\"workload\": \"%s\", \"passes\": %llu, \"attempted\": %llu, "
              "\"failed\": %llu, \"records\": %llu, \"digest\": \"%016llx\", "
              "\"failures\": [",
              workload.name.c_str(), static_cast<unsigned long long>(report.passes),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.records),
              static_cast<unsigned long long>(report.digest));
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", json_escape(report.failures[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const iwbench::Metric& metric = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define_string("workload", "", "workload name (see README.md)");
  flags.define_u64("seed", 42, "world seed: population, paths, impairments");
  flags.define_u64("scan-seed", 7, "scanner seed: address order, ISNs");
  flags.define_double("seconds", 10, "measuring budget; whole passes only");
  flags.define_bool("smoke", false, "2^12-2^14 inputs instead of the full sizes");
  flags.define_string("work-dir", "iwbench_work", "directory for spill files");
  flags.define_string("trace-dir", "",
                      "traced binary: write Chrome trace-event JSON here");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(), flags.usage(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage(argv[0]).c_str());
    return 0;
  }
  const auto workload = iwbench::find_workload(flags.str("workload"), flags.boolean("smoke"));
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown --workload '%s'\n", flags.str("workload").c_str());
    return 2;
  }
  iwbench::RunOptions options;
  options.seed = flags.u64("seed");
  options.scan_seed = flags.u64("scan-seed");
  options.seconds = flags.real("seconds");
  options.work_dir = flags.str("work-dir");
  options.trace_dir = flags.str("trace-dir");

#ifdef IWBENCH_TRACED
  const iwbench::RunReport report = iwbench::run_traced(*workload, options);
#else
  const iwbench::RunReport report = iwbench::run_untraced(*workload, options);
#endif
  print_report(*workload, report);
  std::error_code ec;
  std::filesystem::remove(options.work_dir, ec);  // only if the passes left it empty
  return 0;
}
