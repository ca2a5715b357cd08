// repro — regenerates every table and figure of the paper in one program.
//
// Each experiment is one entry in kExperiments. The scans they read are
// shared: Table 1–3, Fig. 3, Fig. 5 and §4.2 all derive from one HTTP and
// one TLS scan of the whole space, as in the paper, and Fig. 4 from one
// pair over the popular-host space. Every scan runs on a freshly built
// world, so the output is byte-identical for any --shards. Wall-clock
// rates are not paper numbers and live in bench_micro.
//
//   $ ./build/bench/repro [--scale 16] [--only table1,fig3] [--shards 4]
#include "bench_common.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "analysis/dbscan.hpp"
#include "analysis/iw_table.hpp"
#include "analysis/service_classify.hpp"
#include "analysis/subsample.hpp"
#include "core/host_prober.hpp"
#include "httpd/http_server.hpp"
#include "inetmodel/censys_certs.hpp"
#include "scanner/direct_services.hpp"
#include "scanner/icmp_mtu.hpp"
#include "scanner/syn_scan.hpp"
#include "tcpstack/host.hpp"
#include "util/rng.hpp"

using namespace iwscan;

namespace {

using core::ProbeProtocol;

// Experiment parameters.
constexpr std::uint64_t kCertSamples = 500'000;  // Fig. 2: chain lengths drawn
constexpr int kBandTrials = 30;                  // Fig. 3: repeated 1% samples
constexpr double kDbscanEpsilon = 0.15;          // Fig. 5: neighbourhood radius
constexpr int kDbscanMinPoints = 3;              // Fig. 5: density threshold
constexpr int kLossTrials = 40;                  // §3.5: probe trials per loss level
constexpr int kTrendEpochs = 10;                 // §5 trend: epochs after epoch 0
constexpr double kTrendFraction = 0.25;          // §5 trend: sample fraction per epoch
constexpr double kIpv4Addresses = 3.7e9;         // §3.4: addresses a full scan probes
constexpr double kRealResponderShare = 0.013;    // §3.4: 48.3 M responders of ~3.7 B

/// The target space of a shared scan: the registry's whole scan space, or
/// its popular ("Alexa 1M") hosts.
enum class Space { Full, Popular };

/// Runs each (space, protocol) scan once, on a freshly built world, and
/// hands its output to every experiment that asks for it.
class Scans {
 public:
  explicit Scans(const util::Flags& flags)
      : flags_(flags), lookup_(bench::make_world(flags)) {}

  const analysis::ScanOutput& get(Space space, ProbeProtocol protocol) {
    const std::pair key{space, protocol};
    auto it = done_.find(key);
    if (it == done_.end()) {
      auto world = bench::make_world(flags_);
      analysis::ScanOptions options = bench::scan_options(flags_, protocol);
      if (space == Space::Popular) {
        options.allow = world.internet->registry().popular_space();
      }
      it = done_.emplace(key, analysis::run_iw_scan(*world.network, *world.internet,
                                                    options))
               .first;
    }
    return it->second;
  }

  /// Ground truth and the AS registry, from a world no scan touches.
  [[nodiscard]] const model::InternetModel& internet() const { return *lookup_.internet; }

 private:
  const util::Flags& flags_;
  std::map<std::pair<Space, ProbeProtocol>, analysis::ScanOutput> done_;
  bench::World lookup_;
};

struct Run {
  const util::Flags& flags;
  Scans& scans;

  void print(const analysis::TextTable& table) const {
    bench::print_table(table, flags.boolean("csv"));
  }
};

/// Runs a single-exchange probe module (fn1's ICMP scan, §3.4's SYN scan)
/// over the whole scan space of a fresh world, on one ScanEngine.
scan::EngineStats run_module(const util::Flags& flags, scan::ProbeModule& module,
                             std::size_t max_outstanding) {
  auto world = bench::make_world(flags);
  scan::GeneratorTargetSource targets(scan::TargetGenerator(
      world.internet->registry().scan_space(), {}, flags.u64("scan-seed")));
  scan::EngineConfig engine_config;
  engine_config.scanner_address = net::IPv4Address{192, 0, 2, 1};
  engine_config.rate_pps = flags.real("rate");
  engine_config.seed = flags.u64("scan-seed");
  engine_config.max_outstanding = max_outstanding;
  scan::ScanEngine engine(*world.network, engine_config, targets, module);
  engine.start();
  while (!engine.done() && world.loop.step()) {
  }
  return engine.stats();
}

// ---- Table 1: reachable hosts and the Success / Few Data / Error split for
// HTTP and TLS, probed with MSS 64; plus §4's dual-service agreement.
void table1(const Run& run) {
  struct Row {
    const char* name;
    ProbeProtocol protocol;
    // Paper-reported reference values.
    double paper_success, paper_few, paper_error;
  };
  const Row rows[] = {
      {"HTTP", ProbeProtocol::Http, 0.508, 0.476, 0.016},
      {"TLS", ProbeProtocol::Tls, 0.856, 0.133, 0.011},
  };

  analysis::TextTable table({"Scan", "Reachable", "Success", "Few Data", "Error",
                             "paper:Success", "paper:FewData", "paper:Error"});
  std::uint64_t total_packets = 0;
  for (const Row& row : rows) {
    const auto& output = run.scans.get(Space::Full, row.protocol);
    const auto summary = analysis::summarize(output.records);
    total_packets += output.engine.packets_sent;
    table.add_row({row.name, util::format_count(summary.reachable),
                   util::format_percent(summary.success_rate()),
                   util::format_percent(summary.few_data_rate()),
                   util::format_percent(summary.error_rate()),
                   util::format_percent(row.paper_success),
                   util::format_percent(row.paper_few),
                   util::format_percent(row.paper_error)});
  }
  run.print(table);

  // §4 "Success rates": distinct IPs, dual-service hosts, and how many of
  // the dual hosts agree in their HTTP and TLS IW estimates.
  const auto& http_records = run.scans.get(Space::Full, ProbeProtocol::Http).records;
  const auto& tls_records = run.scans.get(Space::Full, ProbeProtocol::Tls).records;
  std::map<net::IPv4Address, std::uint32_t> http_success;
  for (const auto& record : http_records) {
    if (record.outcome == core::HostOutcome::Success) {
      http_success.emplace(record.ip, record.iw_segments);
    }
  }
  std::uint64_t both = 0;
  std::uint64_t agree = 0;
  std::set<net::IPv4Address> distinct;
  for (const auto& record : http_records) {
    if (record.outcome != core::HostOutcome::Unreachable) distinct.insert(record.ip);
  }
  for (const auto& record : tls_records) {
    if (record.outcome == core::HostOutcome::Unreachable) continue;
    distinct.insert(record.ip);
    if (record.outcome != core::HostOutcome::Success) continue;
    const auto it = http_success.find(record.ip);
    if (it != http_success.end()) {
      ++both;
      if (it->second == record.iw_segments) ++agree;
    }
  }
  std::printf("\nDistinct reachable IPs: %s   dual-service successes: %s   "
              "agreeing IW estimates: %s (%s)\n",
              util::format_count(distinct.size()).c_str(),
              util::format_count(both).c_str(), util::format_count(agree).c_str(),
              both ? util::format_percent(static_cast<double>(agree) /
                                          static_cast<double>(both))
                         .c_str()
                   : "n/a");
  std::printf("(paper: 60.9M distinct, 7M dual-service, 6.2M agreeing)\n");
  std::printf("Packets sent: %s\n", util::format_count(total_packets).c_str());
}

// ---- Table 2: IW lower bounds of the "Few Data" hosts, per observed MSS.
void table2(const Run& run) {
  // Paper values (% of few-data hosts), per protocol, bounds NoData..IW10.
  const std::map<std::uint32_t, double> paper_http = {
      {0, 4.8}, {1, 16.5}, {2, 7.1}, {3, 7.2}, {4, 2.9},  {5, 3.6},
      {6, 2.0}, {7, 45.0}, {8, 2.7}, {9, 1.1}, {10, 0.9},
  };
  const std::map<std::uint32_t, double> paper_tls = {
      {0, 17.8}, {1, 56.3}, {2, 5.6}, {3, 0.7}, {4, 1.9},  {5, 2.8},
      {6, 2.4},  {7, 2.4},  {8, 3.4}, {9, 0.4}, {10, 0.8},
  };

  for (const auto protocol : {ProbeProtocol::Http, ProbeProtocol::Tls}) {
    const bool is_http = protocol == ProbeProtocol::Http;
    const auto bounds =
        analysis::few_data_lower_bounds(run.scans.get(Space::Full, protocol).records);
    const auto& paper = is_http ? paper_http : paper_tls;

    analysis::TextTable table({"Bound", "Measured", "Paper"});
    for (std::uint32_t bound = 0; bound <= 10; ++bound) {
      const auto it = bounds.find(bound);
      const double measured = it == bounds.end() ? 0.0 : it->second;
      const auto paper_it = paper.find(bound);
      table.add_row({bound == 0 ? "NoData" : ("IW" + std::to_string(bound)),
                     util::format_percent(measured),
                     paper_it == paper.end()
                         ? "-"
                         : util::format_percent(paper_it->second / 100.0)});
    }
    double tail = 0.0;
    for (const auto& [bound, fraction] : bounds) {
      if (bound > 10) tail += fraction;
    }
    table.add_row({">IW10", util::format_percent(tail), "~6.2% (HTTP)"});

    std::printf("--- %s ---\n", is_http ? "HTTP" : "TLS");
    run.print(table);
    std::printf("\n");
  }
}

// ---- Table 3: per-service IW distribution [%], clustered by IP range
// (content services) or reverse DNS (access networks).
void table3(const Run& run) {
  const model::InternetModel& internet = run.scans.internet();
  analysis::ServiceClassifier classifier(
      internet.registry(), [&](net::IPv4Address ip) { return internet.truth(ip).rdns; });

  // Paper values: {service → {IW1, IW2, IW4, IW10}} in percent.
  struct PaperRow {
    analysis::ServiceClass service;
    std::array<double, 4> http;
    std::array<double, 4> tls;
  };
  const PaperRow paper_rows[] = {
      {analysis::ServiceClass::Akamai, {-1, -1, -1, -1}, {0.0, 0.0, 100.0, 0.0}},
      {analysis::ServiceClass::Ec2, {0.0, 1.8, 3.4, 94.7}, {0.2, 1.3, 2.6, 95.8}},
      {analysis::ServiceClass::Cloudflare, {0.0, 0.0, 0.0, 100.0},
       {0.0, 0.0, 0.0, 100.0}},
      {analysis::ServiceClass::Azure, {0.0, 7.8, 54.9, 37.1}, {0.1, 4.1, 73.3, 21.9}},
      {analysis::ServiceClass::AccessNetwork, {3.5, 50.2, 20.8, 21.7},
       {4.5, 17.6, 67.1, 10.4}},
  };
  const std::uint32_t iws[] = {1, 2, 4, 10};

  struct ServiceStats {
    std::map<std::uint32_t, std::uint64_t> iw_counts;
    std::uint64_t successes = 0;

    [[nodiscard]] double share(std::uint32_t iw) const {
      const auto it = iw_counts.find(iw);
      return it == iw_counts.end()
                 ? 0.0
                 : static_cast<double>(it->second) / static_cast<double>(successes);
    }
  };
  for (const auto protocol : {ProbeProtocol::Http, ProbeProtocol::Tls}) {
    const bool is_http = protocol == ProbeProtocol::Http;
    std::map<analysis::ServiceClass, ServiceStats> stats;
    for (const auto& record : run.scans.get(Space::Full, protocol).records) {
      if (record.outcome != core::HostOutcome::Success) continue;
      auto& entry = stats[classifier.classify(record.ip)];
      ++entry.iw_counts[record.iw_segments];
      ++entry.successes;
    }

    std::printf("--- %s ---\n", is_http ? "HTTP" : "TLS");
    analysis::TextTable table({"Service", "IW1", "IW2", "IW4", "IW10",
                               "paper:IW1", "paper:IW2", "paper:IW4", "paper:IW10",
                               "n"});
    for (const PaperRow& row : paper_rows) {
      const auto& paper = is_http ? row.http : row.tls;
      const auto it = stats.find(row.service);
      std::vector<std::string> cells;
      cells.emplace_back(to_string(row.service));
      for (const std::uint32_t iw : iws) {
        cells.push_back(it == stats.end() || it->second.successes == 0
                            ? "-"
                            : analysis::fmt_double(it->second.share(iw) * 100.0));
      }
      for (const double value : paper) {
        cells.push_back(value < 0 ? "-" : analysis::fmt_double(value));
      }
      cells.push_back(it == stats.end() ? "0"
                                        : util::format_count(it->second.successes));
      table.add_row(std::move(cells));
    }
    run.print(table);
    std::printf("\n");
  }
  std::printf("Akamai HTTP shows '-' in the paper: its error pages stopped echoing\n"
              "the URI during the study, so HTTP estimates never succeed there.\n");
}

// ---- Fig. 2: CCDF of certificate chain lengths (censys-anchored model)
// with the TCP payload coverage lines for several IW/MSS combinations.
void fig2(const Run& run) {
  util::Rng rng(run.flags.u64("seed"));
  std::vector<std::size_t> lengths(kCertSamples);
  double mean = 0.0;
  std::size_t min_len = SIZE_MAX;
  std::size_t max_len = 0;
  for (auto& length : lengths) {
    length = model::CertChainDistribution::sample(rng);
    mean += static_cast<double>(length);
    min_len = std::min(min_len, length);
    max_len = std::max(max_len, length);
  }
  mean /= static_cast<double>(kCertSamples);

  std::printf("samples=%s  mean=%s  min=%s  max=%s\n",
              util::format_count(kCertSamples).c_str(),
              util::format_bytes(static_cast<std::uint64_t>(mean)).c_str(),
              util::format_bytes(min_len).c_str(),
              util::format_bytes(max_len).c_str());
  std::printf("(paper/censys: 36.5M hosts, mean 2186 B, min 36 B, max 65 kB)\n\n");

  // Empirical CCDF at 256 B steps up to 8 kB (the figure's x-range).
  std::sort(lengths.begin(), lengths.end());
  const auto ccdf_at = [&](double bytes) {
    const auto it = std::lower_bound(lengths.begin(), lengths.end(),
                                     static_cast<std::size_t>(bytes));
    return static_cast<double>(lengths.end() - it) / static_cast<double>(kCertSamples);
  };

  analysis::TextTable table({"bytes", "CCDF(measured)", "CCDF(model)"});
  for (double bytes = 0; bytes <= 8192; bytes += 256) {
    table.add_row({std::to_string(static_cast<int>(bytes)),
                   analysis::fmt_double(ccdf_at(bytes), 4),
                   analysis::fmt_double(model::CertChainDistribution::ccdf(bytes), 4)});
  }
  run.print(table);

  // Coverage lines: payload needed to fill IW·MSS bytes, for the announced
  // MSS of 64 B and a typical path MSS of 1336 B (per the paper's figure).
  std::printf("\nIW coverage (share of hosts whose chain fills the IW):\n");
  analysis::TextTable coverage({"MSS", "IW", "IW*MSS bytes", "P(chain >= IW*MSS)"});
  const struct {
    int mss;
    std::vector<int> iws;
  } lines[] = {{64, {1, 2, 4, 10}}, {1336, {1, 2, 4}}};
  for (const auto& line : lines) {
    for (const int iw : line.iws) {
      const double needed = static_cast<double>(line.mss) * iw;
      coverage.add_row({std::to_string(line.mss), std::to_string(iw),
                        std::to_string(static_cast<int>(needed)),
                        util::format_percent(ccdf_at(needed))});
    }
  }
  run.print(coverage);
  std::printf("\n(paper: MSS 64 & IW10 → 640 B covered by >86%% of hosts; even a\n"
              " hypothetical IW 34 → 2176 B still reaches 50%%)\n");
}

// ---- Fig. 3: IW distribution over the IPv4 universe for HTTP and TLS (IWs
// held by ≥0.1% of hosts), plus the sampling study: 1/10/30/50/100%
// subsamples and the 30×1% mean / 99%-quantile band ("Scanning 1% is
// enough!", §4.1).
void fig3(const Run& run) {
  const std::uint64_t scan_seed = run.flags.u64("scan-seed");
  std::map<std::string, std::map<std::uint32_t, double>> series;
  std::set<std::uint32_t> iw_axis;

  for (const auto protocol : {ProbeProtocol::Http, ProbeProtocol::Tls}) {
    const auto& records = run.scans.get(Space::Full, protocol).records;
    const std::string tag = protocol == ProbeProtocol::Http ? "HTTP" : "TLS";

    const auto full = analysis::dominant_iws(analysis::iw_fractions(records));
    series[tag + " 100%"] = full;
    for (const auto& [iw, fraction] : full) iw_axis.insert(iw);

    for (const double fraction : {0.5, 0.3, 0.1, 0.01}) {
      const auto sample = analysis::subsample(records, fraction, scan_seed ^ 0xabc);
      const auto fractions =
          analysis::dominant_iws(analysis::iw_fractions(sample), 0.0005);
      char label[32];
      std::snprintf(label, sizeof(label), "%s %g%%", tag.c_str(), fraction * 100);
      series[label] = fractions;
      for (const auto& [iw, f] : fractions) iw_axis.insert(iw);
    }
  }

  // The figure: one row per IW value, one column per series.
  std::vector<std::string> headers{"IW"};
  for (const auto& [label, values] : series) headers.push_back(label);
  analysis::TextTable table(headers);
  for (const std::uint32_t iw : iw_axis) {
    std::vector<std::string> row{std::to_string(iw)};
    for (const auto& [label, values] : series) {
      const auto it = values.find(iw);
      row.push_back(it == values.end() ? "-"
                                       : analysis::fmt_double(it->second * 100.0));
    }
    table.add_row(std::move(row));
  }
  run.print(table);

  // Stability band over repeated 1% samples (shown red in the figure).
  const auto& http_records = run.scans.get(Space::Full, ProbeProtocol::Http).records;
  const auto reference = analysis::iw_fractions(http_records);
  const auto band = analysis::subsample_band(http_records, 0.01, kBandTrials, 0.99,
                                             scan_seed, reference);
  std::printf("\n30x 1%% HTTP subsamples — mean and 99%%-quantile band:\n");
  analysis::TextTable band_table({"IW", "mean%", "q0.5%", "q99.5%", "full-scan%"});
  for (const auto& [iw, mean] : band.mean) {
    if (mean < 0.0005 && (!reference.contains(iw) || reference.at(iw) < 0.0005)) {
      continue;
    }
    const auto ref_it = reference.find(iw);
    band_table.add_row(
        {std::to_string(iw), analysis::fmt_double(mean * 100.0, 2),
         analysis::fmt_double(band.quantile_lo.at(iw) * 100.0, 2),
         analysis::fmt_double(band.quantile_hi.at(iw) * 100.0, 2),
         ref_it == reference.end() ? "-"
                                   : analysis::fmt_double(ref_it->second * 100.0, 2)});
  }
  run.print(band_table);
  std::printf("\nMax L1 distance of any 1%% sample to the full distribution: %s\n",
              analysis::fmt_double(band.max_l1_to_reference, 4).c_str());
  std::printf("(paper: the 1%% distribution is stable — sampling suffices)\n");
}

// ---- Fig. 4: IW distribution of the popular-host ("Alexa 1M") population
// for HTTP and TLS (log-scale counts in the paper; we print counts +
// shares), plus the success rates quoted in §4.1 (80% HTTP / 85% TLS).
void fig4(const Run& run) {
  std::map<std::string, std::map<std::uint32_t, std::uint64_t>> histograms;
  std::set<std::uint32_t> iw_axis;

  for (const auto protocol : {ProbeProtocol::Http, ProbeProtocol::Tls}) {
    const bool is_http = protocol == ProbeProtocol::Http;
    const auto& records = run.scans.get(Space::Popular, protocol).records;
    const auto summary = analysis::summarize(records);
    const auto histogram = analysis::iw_histogram(records);
    std::printf("%s: reachable %s, success rate %s (paper: %s)\n",
                is_http ? "HTTP" : "TLS",
                util::format_count(summary.reachable).c_str(),
                util::format_percent(summary.success_rate()).c_str(),
                is_http ? "80%" : "85%");
    for (const auto& [iw, count] : histogram) iw_axis.insert(iw);
    histograms[is_http ? "HTTP" : "TLS"] = histogram;
  }

  std::printf("\nIW histogram (threshold: >= 3 hosts; the paper uses >= 100 at\n"
              "full Alexa-1M scale):\n");
  analysis::TextTable table({"IW", "HTTP #IPs", "HTTP %", "TLS #IPs", "TLS %"});
  std::map<std::string, std::uint64_t> totals;
  for (const auto& [tag, histogram] : histograms) {
    for (const auto& [iw, count] : histogram) totals[tag] += count;
  }
  const auto cells = [&](const std::string& tag, std::uint32_t iw) {
    const auto it = histograms[tag].find(iw);
    const std::uint64_t count = it == histograms[tag].end() ? 0 : it->second;
    return std::pair{count, totals[tag] ? util::format_percent(
                                              static_cast<double>(count) /
                                              static_cast<double>(totals[tag]))
                                        : std::string("-")};
  };
  for (const std::uint32_t iw : iw_axis) {
    const auto [http_count, http_share] = cells("HTTP", iw);
    const auto [tls_count, tls_share] = cells("TLS", iw);
    if (http_count < 3 && tls_count < 3) continue;
    table.add_row({std::to_string(iw), util::format_count(http_count), http_share,
                   util::format_count(tls_count), tls_share});
  }
  run.print(table);
  std::printf("\n(paper: IW10 dominates popular hosts with >85%% HTTP / 80%% TLS,\n"
              " vs. the much lower IW10 share in the whole IPv4 space — Fig. 3)\n");
}

// ---- Fig. 5: per-AS IW distributions clustered with DBSCAN on the (IW1,
// IW2, IW4, IW10, other) share vector, for HTTP and TLS; plus the per-AS
// breakdown for the representatives named in the paper's figure.
struct AsVector {
  const model::AsInfo* as = nullptr;
  std::uint64_t successes = 0;
  std::vector<double> shares;  // IW1, IW2, IW4, IW10, other
};

std::vector<AsVector> per_as_vectors(const std::vector<core::HostScanRecord>& records,
                                     const model::AsRegistry& registry) {
  std::map<const model::AsInfo*, std::map<std::uint32_t, std::uint64_t>> counts;
  for (const auto& record : records) {
    if (record.outcome != core::HostOutcome::Success) continue;
    const auto* as = registry.find(record.ip);
    if (as) ++counts[as][record.iw_segments];
  }
  std::vector<AsVector> vectors;
  for (const auto& [as, histogram] : counts) {
    AsVector v;
    v.as = as;
    std::uint64_t total = 0;
    for (const auto& [iw, count] : histogram) total += count;
    if (total < 20) continue;  // too few successes to characterize the AS
    v.successes = total;
    const auto share = [&](std::uint32_t iw) {
      const auto it = histogram.find(iw);
      return it == histogram.end()
                 ? 0.0
                 : static_cast<double>(it->second) / static_cast<double>(total);
    };
    v.shares = {share(1), share(2), share(4), share(10)};
    v.shares.push_back(std::max(
        0.0, 1.0 - v.shares[0] - v.shares[1] - v.shares[2] - v.shares[3]));
    vectors.push_back(std::move(v));
  }
  return vectors;
}

void fig5(const Run& run) {
  for (const auto protocol : {ProbeProtocol::Http, ProbeProtocol::Tls}) {
    const auto vectors = per_as_vectors(run.scans.get(Space::Full, protocol).records,
                                        run.scans.internet().registry());

    std::vector<std::vector<double>> points;
    points.reserve(vectors.size());
    for (const auto& v : vectors) points.push_back(v.shares);

    analysis::DbscanParams params;
    params.epsilon = kDbscanEpsilon;
    params.min_points = kDbscanMinPoints;
    const auto labels = analysis::dbscan(points, params);

    std::printf("--- %s: %d clusters over %zu ASes ---\n",
                protocol == ProbeProtocol::Http ? "HTTP" : "TLS",
                analysis::cluster_count(labels), vectors.size());
    analysis::TextTable table({"AS", "ASN", "kind", "IW1", "IW2", "IW4", "IW10",
                               "other", "n", "cluster"});
    for (std::size_t i = 0; i < vectors.size(); ++i) {
      const auto& v = vectors[i];
      std::vector<std::string> row{v.as->name, std::to_string(v.as->asn),
                                   std::string(model::to_string(v.as->kind))};
      for (const double share : v.shares) {
        row.push_back(analysis::fmt_double(share * 100));
      }
      row.push_back(util::format_count(v.successes));
      row.push_back(labels[i] == analysis::kDbscanNoise ? "noise"
                                                        : std::to_string(labels[i]));
      table.add_row(std::move(row));
    }
    run.print(table);

    // Cluster summaries (the figure's left-hand side).
    const int clusters = analysis::cluster_count(labels);
    for (int c = 0; c < clusters; ++c) {
      std::vector<double> centroid(5, 0.0);
      std::uint64_t hosts = 0;
      int members = 0;
      for (std::size_t i = 0; i < vectors.size(); ++i) {
        if (labels[i] != c) continue;
        for (int d = 0; d < 5; ++d) centroid[d] += vectors[i].shares[d];
        hosts += vectors[i].successes;
        ++members;
      }
      for (auto& value : centroid) value /= members;
      std::printf("cluster %d: %d ASes, %s hosts — IW1 %.0f%% IW2 %.0f%% IW4 "
                  "%.0f%% IW10 %.0f%% other %.0f%%\n",
                  c, members, util::format_count(hosts).c_str(),
                  centroid[0] * 100, centroid[1] * 100, centroid[2] * 100,
                  centroid[3] * 100, centroid[4] * 100);
    }
    std::printf("\n");
  }
  std::printf("(paper: 3 HTTP + 3 TLS clusters stand out — near-exclusive IW10\n"
              " content clusters, IW2-heavy ISP/university clusters, and a mixed\n"
              " IW4 cluster incl. an Akamai AS on TLS; GoDaddy's IW48 hosts are\n"
              " <<1%% of all IPs and thus invisible in Fig. 3)\n");
}

// ---- §3.4: scan efficiency, the multi-packet IW scan vs. a stock
// single-exchange SYN port scan. The paper: at a budget of 150k transmitted
// packets/s, a whole-IPv4 HTTP IW scan takes 7.5 h where the stock port
// scan takes 6.8 h. Full TCP conversations cost only ~10% extra, because
// most addresses never answer the SYN and only responders trigger the
// multi-packet exchange. ZMap's rate limit governs transmitted packets, so
// the projection is packet-based: packets per responder measured here,
// times the real Internet's responder density.
void s34(const Run& run) {
  std::uint64_t open = 0;
  std::uint64_t closed = 0;
  std::uint64_t unresponsive = 0;
  scan::SynScanModule module(80, [&](const scan::SynScanResult& result) {
    switch (result.state) {
      case scan::PortState::Open: ++open; break;
      case scan::PortState::Closed: ++closed; break;
      case scan::PortState::Unresponsive: ++unresponsive; break;
    }
  });
  const scan::EngineStats syn =
      run_module(run.flags, module, bench::kRatePacedOutstanding);

  auto world = bench::make_world(run.flags);
  const auto iw = analysis::run_iw_scan(
      *world.network, *world.internet,
      bench::single_pass(bench::scan_options(run.flags, ProbeProtocol::Http)));
  const auto iw_summary = analysis::summarize(iw.records);

  // Simulated packets per responder beyond the universal 1 SYN/address.
  const auto extra_per_responder = [](std::uint64_t packets, std::uint64_t targets,
                                      std::uint64_t responders) {
    return responders == 0 ? 0.0
                           : (static_cast<double>(packets) -
                              static_cast<double>(targets)) /
                                 static_cast<double>(responders);
  };
  const double syn_extra =
      extra_per_responder(syn.packets_sent, syn.targets_started, open + closed);
  const double iw_extra = extra_per_responder(
      iw.engine.packets_sent, iw.engine.targets_started, iw_summary.reachable);
  const auto full_hours = [&](double extra) {
    const double packets = kIpv4Addresses * (1.0 + kRealResponderShare * extra);
    return packets / run.flags.real("rate") / 3600.0;
  };
  const double syn_hours = full_hours(syn_extra);
  const double iw_hours = full_hours(iw_extra);

  analysis::TextTable table({"Scan", "targets", "packets tx", "tx/responder",
                             "whole-IPv4 @rate", "paper"});
  char hours[32];
  std::snprintf(hours, sizeof(hours), "%.1f h", syn_hours);
  table.add_row({"SYN port scan (stock ZMap)", util::format_count(syn.targets_started),
                 util::format_count(syn.packets_sent),
                 analysis::fmt_double(1.0 + syn_extra, 1), hours, "6.8 h"});
  std::snprintf(hours, sizeof(hours), "%.1f h", iw_hours);
  table.add_row({"HTTP IW scan (this work)",
                 util::format_count(iw.engine.targets_started),
                 util::format_count(iw.engine.packets_sent),
                 analysis::fmt_double(1.0 + iw_extra, 1), hours, "7.5 h"});
  run.print(table);

  std::printf("\nIW/SYN duration ratio: %.2fx (paper: 7.5/6.8 = 1.10x)\n",
              iw_hours / syn_hours);
  std::printf("sim responder density: %s (real IPv4: ~1.3%%)\n",
              util::format_percent(static_cast<double>(iw_summary.reachable) /
                                   static_cast<double>(iw.engine.targets_started))
                  .c_str());
  std::printf("SYN scan: %s open, %s closed, %s unresponsive\n",
              util::format_count(open).c_str(), util::format_count(closed).c_str(),
              util::format_count(unresponsive).c_str());
  std::printf("\nThe multi-packet design (per-connection state in the probe\n"
              "module) costs ~%.0f extra packets per *responding* host, which\n"
              "at real-world density is only ~%.0f%% more transmitted packets\n"
              "than the single-packet port scan.\n",
              iw_extra, (iw_hours / syn_hours - 1.0) * 100.0);
}

// ---- §3.5: controlled validation + design ablations:
//   (a) ground truth across OS profiles and IW configs (exactness),
//   (b) a NetEM-style loss sweep (never overestimates; tail loss only
//       lowers estimates; the 3-probe rule vs. single probes — D3),
//   (c) announced-MSS ablation (D1: larger announced MSS → more few-data),
//   (d) ACK-release verification ablation (D2: without it, exact-fit
//       responses would be misclassified as Success).

/// A two-node testbed: the scanner and one HTTP host at 10.0.0.1.
struct HostSetup {
  sim::EventLoop loop;
  sim::Network network;
  net::IPv4Address ip{10, 0, 0, 1};
  tcp::TcpHost host;

  HostSetup(std::uint32_t iw_segments, tcp::OsProfile os, std::size_t page,
            double loss, std::uint64_t seed)
      : network(loop, seed), host(network, ip, stack(iw_segments, os), seed) {
    sim::PathConfig path;
    path.latency = sim::msec(15);
    path.loss_rate = loss;
    network.set_default_path(path);
    http::WebConfig web;
    web.root = http::RootBehavior::Page;
    web.page_size = page;
    host.listen(80, http::HttpServerApp::factory(web));
    network.attach(ip, &host);
  }

  core::HostScanRecord probe(std::uint16_t mss, int probes) {
    core::IwScanConfig config;
    config.protocol = ProbeProtocol::Http;
    config.port = 80;
    config.mss_primary = mss;
    config.mss_secondary = 0;
    config.probes_per_mss = probes;
    scan::DirectServices services(network);
    return core::probe_host(services, ip, config);
  }

  static tcp::StackConfig stack(std::uint32_t iw_segments, tcp::OsProfile os) {
    tcp::StackConfig config;
    config.os = os;
    config.iw = tcp::IwConfig::segments_of(iw_segments);
    return config;
  }
};

void s35(const Run& run) {
  // ---- (a) Ground-truth exactness across OS and IW configurations -------
  std::printf("(a) ground truth, no loss (paper: estimator exact in all cases)\n");
  analysis::TextTable truth_table({"OS", "true IW", "estimated", "outcome"});
  bool all_exact = true;
  for (const auto os : {tcp::OsProfile::Linux, tcp::OsProfile::Windows}) {
    for (const std::uint32_t iw : {1u, 2u, 3u, 4u, 10u, 16u, 32u}) {
      HostSetup setup(iw, os, 64 * 1024, 0.0, 1);
      const auto record = setup.probe(64, 3);
      truth_table.add_row(
          {os == tcp::OsProfile::Linux ? "Linux" : "Windows", std::to_string(iw),
           std::to_string(record.iw_segments),
           std::string(to_string(record.outcome))});
      all_exact &= record.outcome == core::HostOutcome::Success &&
                   record.iw_segments == iw;
    }
  }
  run.print(truth_table);
  std::printf("all exact: %s\n\n", all_exact ? "YES" : "NO");

  // ---- (b) loss sweep, single vs. 3-probe rule (D3) ----------------------
  std::printf("(b) loss sweep (paper: correct absent tail loss; tail loss only\n"
              "    underestimates; multiple probes mitigate)\n");
  analysis::TextTable loss_table({"loss", "mode", "exact", "under", "over",
                                  "no-estimate"});
  for (const double loss : {0.0, 0.01, 0.02, 0.05, 0.10, 0.20}) {
    for (const int probes : {1, 3}) {
      int exact = 0;
      int under = 0;
      int over = 0;
      int none = 0;
      for (int t = 0; t < kLossTrials; ++t) {
        HostSetup setup(10, tcp::OsProfile::Linux, 64 * 1024, loss,
                        1000 + static_cast<std::uint64_t>(t) * 7 +
                            static_cast<std::uint64_t>(loss * 1e4));
        const auto record = setup.probe(64, probes);
        if (record.outcome != core::HostOutcome::Success) {
          ++none;
        } else if (record.iw_segments == 10) {
          ++exact;
        } else if (record.iw_segments < 10) {
          ++under;
        } else {
          ++over;
        }
      }
      char loss_text[16];
      std::snprintf(loss_text, sizeof(loss_text), "%.0f%%", loss * 100);
      loss_table.add_row({loss_text, probes == 1 ? "1 probe" : "3 probes",
                          std::to_string(exact), std::to_string(under),
                          std::to_string(over), std::to_string(none)});
    }
  }
  run.print(loss_table);
  std::printf("invariant: 'over' must be 0 everywhere.\n\n");

  // ---- (c) announced-MSS ablation (D1) -----------------------------------
  std::printf("(c) announced-MSS ablation (D1: small MSS maximizes the chance\n"
              "    a response fills the IW)\n");
  analysis::TextTable mss_table({"announced MSS", "page 2kB", "page 8kB",
                                 "page 24kB"});
  for (const std::uint16_t mss : {64, 128, 536, 1460}) {
    std::vector<std::string> row{std::to_string(mss)};
    for (const std::size_t page : {2'000u, 8'000u, 24'000u}) {
      HostSetup setup(10, tcp::OsProfile::Linux, page, 0.0, 5);
      const auto record = setup.probe(mss, 3);
      row.push_back(std::string(to_string(record.outcome)) +
                    (record.outcome == core::HostOutcome::Success
                         ? " (IW " + std::to_string(record.iw_segments) + ")"
                         : ""));
    }
    mss_table.add_row(std::move(row));
  }
  run.print(mss_table);
  std::printf("\n");

  // ---- (d) ACK-release verification ablation (D2) ------------------------
  std::printf("(d) verification ablation (D2): responses that exactly fit the\n"
              "    IW look complete; without the 2*MSS-window ACK release the\n"
              "    estimator could not tell Success from FewData.\n");
  // Exact-fit host: sends exactly IW bytes then FIN.
  const std::size_t overhead =
      http::response_head_size({http::StatusCode::Ok, "Apache", true, {}}, 640);
  HostSetup exact_fit(10, tcp::OsProfile::Linux, 640 - overhead, 0.0, 9);
  const auto record = exact_fit.probe(64, 3);
  std::printf("exact-fit 640B response on IW10 host → %s (lower bound %u)\n",
              std::string(to_string(record.outcome)).c_str(), record.lower_bound);
  std::printf("with D2 the estimator reports FewData/bound instead of a false\n"
              "Success; a naive byte-count would have claimed IW=10 'success'.\n");
}

// ---- §4.2: IWs defined by a byte limit. The prober's dual pass scans with
// MSS 64 and MSS 128; hosts whose segment count halves when the MSS doubles
// count bytes. The paper: ~1% of hosts adjust the IW to the MSS; ~50% of
// those send 4 kB (64 → 32 segments, Technicolor CPE at Telmex), another
// group fills 1536 B (24 → 12 segments).
void s42(const Run& run) {
  const model::AsRegistry& registry = run.scans.internet().registry();
  std::uint64_t dual_success = 0;
  std::uint64_t byte_limited = 0;
  std::map<std::uint64_t, std::uint64_t> byte_budget_histogram;  // bytes → hosts
  std::map<std::string, std::uint64_t> byte_hosts_per_as;
  std::uint64_t mss_invariant = 0;

  for (const auto& record : run.scans.get(Space::Full, ProbeProtocol::Http).records) {
    if (record.outcome != core::HostOutcome::Success || record.iw_segments_b == 0) {
      continue;
    }
    ++dual_success;
    if (record.iw_segments == record.iw_segments_b) {
      ++mss_invariant;
      continue;
    }
    // Byte-counted: segments halve (± the trailing partial segment) when
    // the MSS doubles, and the byte totals agree.
    const bool halves = record.iw_segments_b * 2 == record.iw_segments ||
                        record.iw_segments_b * 2 == record.iw_segments + 1;
    const bool same_bytes = record.iw_bytes == record.iw_bytes_b;
    if (halves && same_bytes) {
      ++byte_limited;
      ++byte_budget_histogram[record.iw_bytes];
      const auto* as = registry.find(record.ip);
      if (as) ++byte_hosts_per_as[as->name];
    }
  }

  const auto share = [](std::uint64_t part, std::uint64_t whole) {
    return util::format_percent(static_cast<double>(part) / static_cast<double>(whole));
  };
  std::printf("dual-MSS successful hosts: %s\n",
              util::format_count(dual_success).c_str());
  std::printf("MSS-invariant (segment-counted): %s (%s)\n",
              util::format_count(mss_invariant).c_str(),
              share(mss_invariant, dual_success).c_str());
  std::printf("byte-counted IW hosts: %s (%s of dual successes; paper: ~1%%)\n\n",
              util::format_count(byte_limited).c_str(),
              share(byte_limited, dual_success).c_str());

  analysis::TextTable table({"byte budget", "segs @MSS64", "segs @MSS128", "hosts",
                             "share of byte hosts"});
  for (const auto& [bytes, hosts] : byte_budget_histogram) {
    table.add_row({util::format_bytes(bytes), std::to_string(bytes / 64),
                   std::to_string((bytes + 127) / 128), util::format_count(hosts),
                   share(hosts, byte_limited)});
  }
  run.print(table);

  std::printf("\nbyte-IW hosts per AS (paper: mostly Technicolor modems hosted "
              "by Telmex):\n");
  analysis::TextTable as_table({"AS", "byte-IW hosts"});
  for (const auto& [name, hosts] : byte_hosts_per_as) {
    as_table.add_row({name, util::format_count(hosts)});
  }
  run.print(as_table);
  std::printf("\n(paper: 4kB group = 64→32 segments; MTU-fill group = 1536 B:\n"
              " 24→12 segments; GoDaddy's IW48 stays 48 at both MSS values —\n"
              " static, hence NOT counted as byte-limited)\n");
}

// ---- §4.3 + §5 (future work implemented): per-service IW customization on
// virtualized infrastructure. Generic IP-based probing of Akamai-style
// edges yields only "few data" (no valid Host name ⇒ short error pages),
// while probing with a curated URL list reveals the per-customer IW
// configurations (the paper manually found e.g. IW 16 and IW 32).
void s43(const Run& run) {
  sim::EventLoop loop;
  sim::Network network(loop, run.flags.u64("seed"));
  sim::PathConfig path;
  path.latency = sim::msec(25);
  network.set_default_path(path);

  // Akamai-style edge nodes: each hosts a customer behind a virtual host,
  // with a per-customer IW configuration (the paper manually observed
  // IW 16 and IW 32 alongside the default 4).
  struct Customer {
    const char* name;  // curated URL list entry (Host header)
    std::uint32_t iw;
    net::IPv4Address edge;
  };
  const Customer customers[] = {
      {"www.customer-default.example", 4, net::IPv4Address{10, 40, 0, 1}},
      {"www.customer-media.example", 16, net::IPv4Address{10, 40, 0, 2}},
      {"www.customer-commerce.example", 32, net::IPv4Address{10, 40, 0, 3}},
  };

  std::vector<std::unique_ptr<tcp::TcpHost>> edges;
  for (const auto& customer : customers) {
    tcp::StackConfig stack;
    stack.iw = tcp::IwConfig::segments_of(customer.iw);
    auto edge = std::make_unique<tcp::TcpHost>(network, customer.edge, stack, 5);
    http::WebConfig web;
    web.root = http::RootBehavior::VirtualHosted;
    web.canonical_name = customer.name;
    web.redirected_page_size = 64 * 1024;
    web.server_header = "GHost";
    edge->listen(80, http::HttpServerApp::factory(std::move(web)));
    network.attach(customer.edge, edge.get());
    edges.push_back(std::move(edge));
  }

  const auto probe = [&](net::IPv4Address edge, const std::string& curated_host) {
    core::IwScanConfig config;
    config.protocol = ProbeProtocol::Http;
    config.port = 80;
    config.curated_host = curated_host;
    scan::DirectServices services(network);
    return core::probe_host(services, edge, config);
  };
  const auto describe = [](const core::HostScanRecord& record) {
    if (record.success()) return "IW " + std::to_string(record.iw_segments);
    if (record.outcome == core::HostOutcome::FewData) {
      return "few-data (bound >= " + std::to_string(record.lower_bound) + ")";
    }
    return std::string(to_string(record.outcome));
  };
  analysis::TextTable table({"edge IP", "customer (true IW)", "generic scan",
                             "curated-URL scan"});
  for (const auto& customer : customers) {
    const auto generic = probe(customer.edge, "");
    const auto curated = probe(customer.edge, customer.name);
    table.add_row({customer.edge.to_string(),
                   std::string(customer.name) + " (IW " +
                       std::to_string(customer.iw) + ")",
                   describe(generic), describe(curated)});
  }
  run.print(table);

  std::printf("\nGeneric scanning cannot assess virtualized services: without a\n"
              "valid Host name the edge serves a short error page, so only a\n"
              "lower bound is learned. With a curated URL list (the future work\n"
              "proposed in §5, implemented here as HostProber's curated mode) the\n"
              "per-customer IW configurations become measurable — reproducing\n"
              "the paper's manual finding of customized IW 16/32 at Akamai.\n");
}

// ---- Footnote 1: ICMP path-MTU discovery scan (RFC 1191) estimating
// typical supportable MSS values. The paper: "We found 99% (80%) of all
// hosts support an MSS of 1336 B (1436 B)", motivating the TLS IW
// requirements.
void fn1(const Run& run) {
  std::vector<scan::MtuProbeResult> results;
  scan::IcmpMtuModule module([&](const scan::MtuProbeResult& result) {
    if (result.responded) results.push_back(result);
  });
  run_module(run.flags, module, scan::EngineConfig{}.max_outstanding);

  std::map<std::uint32_t, std::uint64_t> mtu_histogram;
  for (const auto& result : results) ++mtu_histogram[result.path_mtu];

  std::printf("responding hosts: %s\n\n", util::format_count(results.size()).c_str());
  analysis::TextTable table({"path MTU", "MSS", "hosts", "share"});
  for (const auto& [mtu, hosts] : mtu_histogram) {
    table.add_row({std::to_string(mtu), std::to_string(mtu - 40),
                   util::format_count(hosts),
                   util::format_percent(static_cast<double>(hosts) /
                                        static_cast<double>(results.size()))});
  }
  run.print(table);

  const auto share_at_least = [&](std::uint32_t mss) {
    const auto count =
        std::count_if(results.begin(), results.end(), [mss](const auto& result) {
          return result.supported_mss() >= mss;
        });
    return static_cast<double>(count) / static_cast<double>(results.size());
  };
  std::printf("\nP(MSS >= 1336) = %s   (paper: 99%%)\n",
              util::format_percent(share_at_least(1336)).c_str());
  std::printf("P(MSS >= 1436) = %s   (paper: 80%%)\n",
              util::format_percent(share_at_least(1436)).c_str());
  std::printf("\n(With a typical MSS of 1336 B, filling IW 10 needs 13.4 kB of\n"
              " certificate data — far above typical chains; announcing MSS 64\n"
              " instead needs only 640 B, which >86%% of chains supply. This is\n"
              " why the small announced MSS is essential — Fig. 2.)\n");
}

// ---- §5 (future work implemented): monitoring IW adoption over time. The
// paper closes by arguing that the IW landscape keeps shifting (IW10 was
// enabled in Linux in 2011 yet adoption was still partial in 2017) and that
// "monitoring and better understanding this trend motivates future
// research", which their weekly 1% scans operationalize. This runs the
// scan across simulated epochs of kernel-upgrade drift and tracks the
// adoption curve the methodology would report.
void trend(const Run& run) {
  analysis::TextTable table({"epoch", "scanned", "IW1%", "IW2%", "IW4%", "IW10%",
                             "other%"});
  double first_iw10 = 0;
  double last_iw10 = 0;

  for (int epoch = 0; epoch <= kTrendEpochs; ++epoch) {
    model::ModelConfig config = bench::model_config(run.flags);
    config.epoch = epoch;
    auto world = bench::make_world(config);
    analysis::ScanOptions options = bench::scan_options(run.flags, ProbeProtocol::Http);
    options.sample_fraction = kTrendFraction;
    const auto output = analysis::run_iw_scan(*world.network, *world.internet, options);

    const auto fractions = analysis::iw_fractions(output.records);
    const auto share = [&](std::uint32_t iw) {
      const auto it = fractions.find(iw);
      return it == fractions.end() ? 0.0 : it->second;
    };
    const double other =
        1.0 - share(1) - share(2) - share(4) - share(10) - share(3);
    table.add_row({std::to_string(epoch),
                   util::format_count(output.records.size()),
                   analysis::fmt_double(share(1) * 100),
                   analysis::fmt_double(share(2) * 100),
                   analysis::fmt_double(share(4) * 100),
                   analysis::fmt_double(share(10) * 100),
                   analysis::fmt_double(other * 100)});
    if (epoch == 0) first_iw10 = share(10);
    last_iw10 = share(10);
  }

  run.print(table);
  std::printf("\nIW10 adoption measured by the scan: %s -> %s over %d epochs\n",
              util::format_percent(first_iw10).c_str(),
              util::format_percent(last_iw10).c_str(), kTrendEpochs);
  std::printf("(legacy IW 1/2/4 shares shrink as deterministic per-host kernel\n"
              " upgrades land; byte-IW CPE and Windows hosts are unaffected —\n"
              " the heterogeneity the paper predicts will persist)\n");
}

struct Experiment {
  std::string_view name;
  std::string_view title;
  std::string_view paper_ref;
  void (*run)(const Run&);
};

constexpr Experiment kExperiments[] = {
    {"table1", "Table 1: scan data set overview", "Table 1", table1},
    {"table2", "Table 2: few-data IW lower bounds", "Table 2", table2},
    {"table3", "Table 3: per-service IW distribution", "Table 3", table3},
    {"fig2", "Fig. 2: certificate chain length CCDF", "Figure 2", fig2},
    {"fig3", "Fig. 3: IW distribution in IPv4 (HTTP & TLS)", "Figure 3", fig3},
    {"fig4", "Fig. 4: Alexa-style popular-host IW distribution", "Figure 4", fig4},
    {"fig5", "Fig. 5: per-AS IW clusters (DBSCAN)", "Figure 5", fig5},
    {"s34", "§3.4: IW scan vs. stock SYN scan efficiency", "Section 3.4", s34},
    {"s35", "§3.5: testbed validation + ablations", "Section 3.5", s35},
    {"s42", "§4.2: IW defined by byte limit (dual-MSS scan)", "Section 4.2", s42},
    {"s43", "§4.3/§5: per-customer IWs behind virtual hosting",
     "Section 4.3 and the §5 future-work proposal", s43},
    {"fn1", "Footnote 1: ICMP path-MTU / MSS discovery", "footnote 1", fn1},
    {"trend", "§5 extension: IW10 adoption trend over time",
     "the §5 trend-monitoring proposal", trend},
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_common_flags(flags);
  std::string names;
  for (const Experiment& experiment : kExperiments) {
    names += (names.empty() ? "" : ",") + std::string(experiment.name);
  }
  flags.define_string("only", "",
                      "comma-separated experiments to run, empty for all: " + names);
  bench::parse_or_exit(flags, argc, argv);

  std::set<std::string_view> only;
  if (!flags.str("only").empty()) {
    for (const std::string_view name : util::split(flags.str("only"), ',')) {
      const bool known = std::any_of(
          std::begin(kExperiments), std::end(kExperiments),
          [name](const Experiment& experiment) { return experiment.name == name; });
      if (!known) {
        std::fprintf(stderr, "unknown experiment '%.*s' in --only (known: %s)\n",
                     static_cast<int>(name.size()), name.data(), names.c_str());
        return 2;
      }
      only.insert(name);
    }
  }

  Scans scans(flags);
  const Run run{flags, scans};
  bool first = true;
  for (const Experiment& experiment : kExperiments) {
    if (!only.empty() && !only.contains(experiment.name)) continue;
    if (!first) std::printf("\n");
    first = false;
    bench::print_header(experiment.title, experiment.paper_ref);
    experiment.run(run);
  }
  return 0;
}
