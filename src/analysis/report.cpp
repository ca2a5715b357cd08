#include "analysis/report.hpp"

#include <set>
#include <sstream>

#include "analysis/table_writer.hpp"
#include "util/strings.hpp"

namespace iwscan::analysis {
namespace {

void append_summary(std::ostringstream& out, std::string_view tag,
                    std::span<const core::HostScanRecord> records, bool markdown) {
  const auto summary = summarize(records);
  TextTable table({"scan", "probed", "reachable", "success", "few data", "error"});
  table.add_row({std::string(tag), util::format_count(summary.probed),
                 util::format_count(summary.reachable),
                 util::format_percent(summary.success_rate()),
                 util::format_percent(summary.few_data_rate()),
                 util::format_percent(summary.error_rate())});
  out << (markdown ? table.markdown() : table.render()) << '\n';
}

void append_distribution(std::ostringstream& out, std::string_view tag,
                         std::span<const core::HostScanRecord> records,
                         double threshold, bool markdown) {
  const auto fractions = dominant_iws(iw_fractions(records), threshold);
  TextTable table({"IW (segments)", "share of " + std::string(tag) + " hosts"});
  for (const auto& [iw, fraction] : fractions) {
    table.add_row({std::to_string(iw), util::format_percent(fraction)});
  }
  out << (markdown ? table.markdown() : table.render()) << '\n';
}

void append_few_data(std::ostringstream& out, std::string_view tag,
                     std::span<const core::HostScanRecord> records, bool markdown) {
  const auto bounds = few_data_lower_bounds(records);
  if (bounds.empty()) return;
  out << tag << " hosts without enough data (lower bounds):\n";
  TextTable table({"bound", "share of few-data hosts"});
  for (const auto& [bound, fraction] : bounds) {
    if (fraction < 0.002) continue;
    table.add_row({bound == 0 ? "no data" : "IW >= " + std::to_string(bound),
                   util::format_percent(fraction)});
  }
  out << (markdown ? table.markdown() : table.render()) << '\n';
}

void append_anomalies(std::ostringstream& out, std::string_view tag,
                      std::span<const core::HostScanRecord> records,
                      bool markdown) {
  std::map<core::ProbeAnomaly, std::uint64_t> counts;
  for (const auto& record : records) {
    if (record.anomaly != core::ProbeAnomaly::None) ++counts[record.anomaly];
  }
  if (counts.empty()) return;
  std::uint64_t total = 0;
  for (const auto& [anomaly, count] : counts) total += count;
  out << tag << " anomalous stacks (" << util::format_count(total) << " hosts):\n";
  TextTable table({"anomaly", "hosts"});
  for (const auto& [anomaly, count] : counts) {
    table.add_row({std::string(to_string(anomaly)), util::format_count(count)});
  }
  out << (markdown ? table.markdown() : table.render()) << '\n';
}

void append_per_service(std::ostringstream& out, const ScanInputs& inputs,
                        bool markdown) {
  ServiceClassifier classifier(*inputs.registry, inputs.rdns);
  const ServiceClass classes[] = {ServiceClass::Akamai, ServiceClass::Ec2,
                                  ServiceClass::Cloudflare, ServiceClass::Azure,
                                  ServiceClass::AccessNetwork, ServiceClass::Other};

  TextTable table({"service", "protocol", "successes", "IW1", "IW2", "IW4",
                   "IW10", "other"});
  const auto add_rows = [&](std::string_view protocol,
                            std::span<const core::HostScanRecord> records) {
    std::map<ServiceClass, std::map<std::uint32_t, std::uint64_t>> histograms;
    for (const auto& record : records) {
      if (record.outcome != core::HostOutcome::Success) continue;
      ++histograms[classifier.classify(record.ip)][record.iw_segments];
    }
    for (const ServiceClass service : classes) {
      const auto it = histograms.find(service);
      if (it == histograms.end()) continue;
      std::uint64_t total = 0;
      for (const auto& [iw, count] : it->second) total += count;
      const auto share = [&](std::uint32_t iw) {
        const auto hit = it->second.find(iw);
        return hit == it->second.end()
                   ? 0.0
                   : static_cast<double>(hit->second) / static_cast<double>(total);
      };
      const double other = 1.0 - share(1) - share(2) - share(4) - share(10);
      table.add_row({std::string(to_string(service)), std::string(protocol),
                     util::format_count(total), util::format_percent(share(1)),
                     util::format_percent(share(2)), util::format_percent(share(4)),
                     util::format_percent(share(10)),
                     util::format_percent(other < 0 ? 0.0 : other)});
    }
  };
  if (!inputs.http.empty()) add_rows("HTTP", inputs.http);
  if (!inputs.tls.empty()) add_rows("TLS", inputs.tls);
  out << (markdown ? table.markdown() : table.render()) << '\n';
}

}  // namespace

std::string render_report(const ScanInputs& inputs, const ReportOptions& options) {
  std::ostringstream out;
  const char* h1 = options.markdown ? "# " : "== ";
  const char* h1_end = options.markdown ? "" : " ==";
  const char* h2 = options.markdown ? "## " : "-- ";
  const char* h2_end = options.markdown ? "" : " --";

  out << h1 << options.title << h1_end << "\n\n";
  if (inputs.sample_fraction) {
    out << "Scan mode: random " << util::format_percent(*inputs.sample_fraction)
        << " sample of the address space (\"1% is enough\" mode).\n\n";
  }

  out << h2 << "Dataset" << h2_end << "\n\n";
  if (!inputs.http.empty()) append_summary(out, "HTTP", inputs.http, options.markdown);
  if (!inputs.tls.empty()) append_summary(out, "TLS", inputs.tls, options.markdown);

  out << h2 << "Initial window distribution" << h2_end << "\n\n";
  if (!inputs.http.empty()) {
    out << "HTTP:\n";
    append_distribution(out, "HTTP", inputs.http, options.dominant_threshold,
                        options.markdown);
  }
  if (!inputs.tls.empty()) {
    out << "TLS:\n";
    append_distribution(out, "TLS", inputs.tls, options.dominant_threshold,
                        options.markdown);
  }

  if (options.include_few_data) {
    out << h2 << "Hosts with insufficient data" << h2_end << "\n\n";
    if (!inputs.http.empty()) append_few_data(out, "HTTP", inputs.http, options.markdown);
    if (!inputs.tls.empty()) append_few_data(out, "TLS", inputs.tls, options.markdown);
  }

  if (options.include_anomalies) {
    out << h2 << "Anomalous stacks" << h2_end << "\n\n";
    if (!inputs.http.empty()) {
      append_anomalies(out, "HTTP", inputs.http, options.markdown);
    }
    if (!inputs.tls.empty()) append_anomalies(out, "TLS", inputs.tls, options.markdown);
  }

  if (options.include_per_service && inputs.registry != nullptr) {
    out << h2 << "Per-service breakdown" << h2_end << "\n\n";
    append_per_service(out, inputs, options.markdown);
  }

  return out.str();
}

}  // namespace iwscan::analysis
