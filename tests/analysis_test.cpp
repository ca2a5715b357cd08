// Analysis toolchain: aggregation, subsampling, DBSCAN, classification,
// table rendering.
#include <gtest/gtest.h>

#include "analysis/dbscan.hpp"
#include "analysis/iw_table.hpp"
#include "analysis/report.hpp"
#include "analysis/service_classify.hpp"
#include "analysis/subsample.hpp"
#include "analysis/table_writer.hpp"
#include "inetmodel/as_registry.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace iwscan::analysis {
namespace {

core::HostScanRecord make_record(std::uint32_t ip, core::HostOutcome outcome,
                                 std::uint32_t iw = 0, std::uint32_t bound = 0) {
  core::HostScanRecord record;
  record.ip = net::IPv4Address{ip};
  record.outcome = outcome;
  record.iw_segments = iw;
  record.lower_bound = bound;
  return record;
}

// ------------------------------------------------------------ iw_table ---

TEST(Summarize, CountsOutcomes) {
  std::vector<core::HostScanRecord> records = {
      make_record(1, core::HostOutcome::Success, 10),
      make_record(2, core::HostOutcome::Success, 4),
      make_record(3, core::HostOutcome::FewData, 0, 7),
      make_record(4, core::HostOutcome::Error),
      make_record(5, core::HostOutcome::Unreachable),
  };
  const auto summary = summarize(records);
  EXPECT_EQ(summary.probed, 5u);
  EXPECT_EQ(summary.reachable, 4u);
  EXPECT_EQ(summary.success, 2u);
  EXPECT_EQ(summary.few_data, 1u);
  EXPECT_EQ(summary.error, 1u);
  EXPECT_DOUBLE_EQ(summary.success_rate(), 0.5);
  EXPECT_DOUBLE_EQ(summary.few_data_rate(), 0.25);
}

TEST(Summarize, EmptyIsSafe) {
  const auto summary = summarize({});
  EXPECT_EQ(summary.reachable, 0u);
  EXPECT_DOUBLE_EQ(summary.success_rate(), 0.0);
}

TEST(IwHistogram, OnlySuccessesCount) {
  std::vector<core::HostScanRecord> records = {
      make_record(1, core::HostOutcome::Success, 10),
      make_record(2, core::HostOutcome::Success, 10),
      make_record(3, core::HostOutcome::Success, 2),
      make_record(4, core::HostOutcome::FewData, 0, 10),
  };
  const auto histogram = iw_histogram(records);
  EXPECT_EQ(histogram.at(10), 2u);
  EXPECT_EQ(histogram.at(2), 1u);
  EXPECT_EQ(histogram.size(), 2u);

  const auto fractions = iw_fractions(records);
  EXPECT_NEAR(fractions.at(10), 2.0 / 3.0, 1e-12);
}

TEST(DominantIws, FiltersBelowThreshold) {
  std::map<std::uint32_t, double> fractions = {
      {10, 0.90}, {2, 0.095}, {64, 0.0009}, {25, 0.004}};
  const auto dominant = dominant_iws(fractions, 0.001);
  EXPECT_TRUE(dominant.contains(10));
  EXPECT_TRUE(dominant.contains(2));
  EXPECT_TRUE(dominant.contains(25));
  EXPECT_FALSE(dominant.contains(64));
}

TEST(FewDataLowerBounds, NormalizedOverFewDataOnly) {
  std::vector<core::HostScanRecord> records = {
      make_record(1, core::HostOutcome::FewData, 0, 7),
      make_record(2, core::HostOutcome::FewData, 0, 7),
      make_record(3, core::HostOutcome::FewData, 0, 0),  // NoData
      make_record(4, core::HostOutcome::Success, 10),
  };
  const auto bounds = few_data_lower_bounds(records);
  EXPECT_NEAR(bounds.at(7), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(bounds.at(0), 1.0 / 3.0, 1e-12);
}

TEST(L1Distance, HandlesDisjointKeys) {
  std::map<std::uint32_t, double> a = {{1, 0.5}, {2, 0.5}};
  std::map<std::uint32_t, double> b = {{2, 0.5}, {3, 0.5}};
  EXPECT_DOUBLE_EQ(l1_distance(a, b), 1.0);
  EXPECT_DOUBLE_EQ(l1_distance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(l1_distance({}, b), 1.0);
}

// ------------------------------------------------------------ subsample --

std::vector<core::HostScanRecord> synthetic_population(int n) {
  std::vector<core::HostScanRecord> records;
  records.reserve(static_cast<std::size_t>(n));
  util::Rng rng(1234);
  for (int i = 0; i < n; ++i) {
    const double r = rng.uniform01();
    std::uint32_t iw = r < 0.55 ? 10 : (r < 0.75 ? 2 : (r < 0.9 ? 4 : 1));
    records.push_back(
        make_record(static_cast<std::uint32_t>(i + 1), core::HostOutcome::Success, iw));
  }
  return records;
}

TEST(Subsample, FractionAndDeterminism) {
  const auto population = synthetic_population(20'000);
  const auto a = subsample(population, 0.1, 77);
  const auto b = subsample(population, 0.1, 77);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_NEAR(a.size() / 20'000.0, 0.1, 0.01);
  const auto full = subsample(population, 1.0, 77);
  EXPECT_EQ(full.size(), population.size());
}

TEST(Subsample, OnePercentDistributionIsStable) {
  // The §4.1 claim, as a property test: on a 20k-host population every 1%
  // sample's IW distribution is within a small L1 distance of the truth.
  const auto population = synthetic_population(20'000);
  const auto reference = iw_fractions(population);
  const auto band = subsample_band(population, 0.01, 30, 0.99, 5, reference);
  EXPECT_LT(band.max_l1_to_reference, 0.25);
  // The mean across samples is much tighter.
  EXPECT_LT(l1_distance(band.mean, reference), 0.05);
  // Quantile band brackets the mean.
  for (const auto& [iw, mean] : band.mean) {
    EXPECT_LE(band.quantile_lo.at(iw), mean + 1e-9);
    EXPECT_GE(band.quantile_hi.at(iw), mean - 1e-9);
  }
}

TEST(Subsample, LargerSamplesConvergeFaster) {
  const auto population = synthetic_population(20'000);
  const auto reference = iw_fractions(population);
  const auto band1 = subsample_band(population, 0.01, 20, 0.99, 5, reference);
  const auto band30 = subsample_band(population, 0.3, 20, 0.99, 5, reference);
  EXPECT_LT(band30.max_l1_to_reference, band1.max_l1_to_reference);
}

// --------------------------------------------------------------- dbscan --

TEST(Dbscan, SeparatesObviousClusters) {
  std::vector<std::vector<double>> points;
  util::Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    points.push_back({0.0 + rng.uniform01() * 0.05, 0.0 + rng.uniform01() * 0.05});
  }
  for (int i = 0; i < 20; ++i) {
    points.push_back({1.0 + rng.uniform01() * 0.05, 1.0 + rng.uniform01() * 0.05});
  }
  points.push_back({0.5, 0.5});  // isolated noise

  const auto labels = dbscan(points, DbscanParams{0.1, 3});
  EXPECT_EQ(cluster_count(labels), 2);
  EXPECT_EQ(labels[40], kDbscanNoise);
  for (int i = 1; i < 20; ++i) EXPECT_EQ(labels[i], labels[0]);
  for (int i = 21; i < 40; ++i) EXPECT_EQ(labels[static_cast<std::size_t>(i)], labels[20]);
  EXPECT_NE(labels[0], labels[20]);
}

TEST(Dbscan, AllNoiseWhenSparse) {
  std::vector<std::vector<double>> points = {{0, 0}, {5, 5}, {10, 10}};
  const auto labels = dbscan(points, DbscanParams{0.5, 2});
  for (const int label : labels) EXPECT_EQ(label, kDbscanNoise);
  EXPECT_EQ(cluster_count(labels), 0);
}

TEST(Dbscan, SingleDenseBlob) {
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 10; ++i) points.push_back({i * 0.01});
  const auto labels = dbscan(points, DbscanParams{0.05, 3});
  EXPECT_EQ(cluster_count(labels), 1);
  for (const int label : labels) EXPECT_EQ(label, 0);
}

TEST(Dbscan, EmptyInput) {
  const auto labels = dbscan({}, DbscanParams{});
  EXPECT_TRUE(labels.empty());
  EXPECT_EQ(cluster_count(labels), 0);
}

TEST(Dbscan, ChainsThroughDensityConnectivity) {
  // Points in a line, each within epsilon of the next → one cluster.
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 30; ++i) points.push_back({i * 0.08});
  const auto labels = dbscan(points, DbscanParams{0.1, 3});
  EXPECT_EQ(cluster_count(labels), 1);
}

// ----------------------------------------------------- classification ----

TEST(ServiceClassifier, TaggedRangesWin) {
  const auto registry = model::AsRegistry::standard(18);
  ServiceClassifier classifier(registry, nullptr);

  const auto ip_of = [&](const char* name) {
    return registry.by_name(name)->prefixes.front().at(10);
  };
  EXPECT_EQ(classifier.classify(ip_of("Akamai")), ServiceClass::Akamai);
  EXPECT_EQ(classifier.classify(ip_of("Amazon-EC2")), ServiceClass::Ec2);
  EXPECT_EQ(classifier.classify(ip_of("Cloudflare")), ServiceClass::Cloudflare);
  EXPECT_EQ(classifier.classify(ip_of("Microsoft-Azure")), ServiceClass::Azure);
  EXPECT_EQ(classifier.classify(ip_of("GoDaddy")), ServiceClass::Other);
}

TEST(ServiceClassifier, AccessRequiresIpEncodingAndIspHints) {
  const auto registry = model::AsRegistry::standard(18);
  const auto comcast_ip = registry.by_name("Comcast")->prefixes.front().at(999);

  // rDNS that encodes the IP and carries an ISP keyword → access.
  ServiceClassifier access(registry, [&](net::IPv4Address ip) {
    return "customer-" + std::to_string(ip.octet(0)) + "-" +
           std::to_string(ip.octet(1)) + "-" + std::to_string(ip.octet(2)) + "-" +
           std::to_string(ip.octet(3)) + ".dsl.example";
  });
  EXPECT_EQ(access.classify(comcast_ip), ServiceClass::AccessNetwork);

  // IP-encoding alone (server-farm style) is NOT access.
  ServiceClassifier farm(registry, [&](net::IPv4Address ip) {
    return "node-" + std::to_string(ip.octet(0)) + "-" +
           std::to_string(ip.octet(1)) + "-" + std::to_string(ip.octet(2)) + "-" +
           std::to_string(ip.octet(3)) + ".examplefarm.test";
  });
  EXPECT_EQ(farm.classify(comcast_ip), ServiceClass::Other);

  // Keyword without IP encoding is not enough either.
  ServiceClassifier keyword_only(registry, [](net::IPv4Address) {
    return std::string("static.dialin.example");
  });
  EXPECT_EQ(keyword_only.classify(comcast_ip), ServiceClass::Other);

  // No rDNS at all.
  ServiceClassifier no_rdns(registry, [](net::IPv4Address) { return std::string(); });
  EXPECT_EQ(no_rdns.classify(comcast_ip), ServiceClass::Other);
}

TEST(ServiceClassifier, RdnsIpEncodingVariants) {
  const net::IPv4Address ip{81, 14, 7, 200};
  EXPECT_TRUE(ServiceClassifier::rdns_encodes_ip("x-81-14-7-200.dyn.isp", ip));
  EXPECT_TRUE(ServiceClassifier::rdns_encodes_ip("81.14.7.200.pool.isp", ip));
  EXPECT_TRUE(ServiceClassifier::rdns_encodes_ip("200-7-14-81.rev.isp", ip));
  EXPECT_TRUE(ServiceClassifier::rdns_encodes_ip("h81_14_7_200.isp", ip));
  EXPECT_FALSE(ServiceClassifier::rdns_encodes_ip("www.example.net", ip));
  EXPECT_FALSE(ServiceClassifier::rdns_encodes_ip("x-81-14-7.isp", ip));
}

// ------------------------------------------------------------- tables ----

TEST(TextTable, AlignsColumns) {
  TextTable table({"a", "long-header"});
  table.add_row({"xxxxxx", "1"});
  table.add_row({"y", "2"});
  const std::string out = table.render();
  const auto lines = util::split(out, '\n');
  ASSERT_GE(lines.size(), 4u);
  // Same column start for all rows: "long-header" begins where "1"/"2" do.
  const auto pos_header = lines[0].find("long-header");
  EXPECT_EQ(lines[2].find('1'), pos_header);
  EXPECT_EQ(lines[3].find('2'), pos_header);
}

TEST(TextTable, CsvEscapesSpecials) {
  TextTable table({"name", "value"});
  table.add_row({"with,comma", "with\"quote"});
  const std::string csv = table.csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(TextTable, MarkdownKeepsCommasInsideCells) {
  TextTable table({"scan", "probed"});
  table.add_row({"HTTP", "6,650"});
  EXPECT_EQ(table.markdown(), "| scan | probed | \n|---|---|\n| HTTP | 6,650 | \n");
}

TEST(FmtDouble, Precision) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(50.0), "50.0");
}

TEST(RenderReport, ContainsAllSections) {
  const auto registry = model::AsRegistry::standard(16);
  std::vector<core::HostScanRecord> http = {
      make_record(registry.by_name("Cloudflare")->prefixes.front().at(5).value(),
                  core::HostOutcome::Success, 10),
      make_record(registry.by_name("Comcast")->prefixes.front().at(900).value(),
                  core::HostOutcome::Success, 2),
      make_record(registry.by_name("Comcast")->prefixes.front().at(901).value(),
                  core::HostOutcome::FewData, 0, 7),
  };
  std::vector<core::HostScanRecord> tls = {
      make_record(registry.by_name("Akamai")->prefixes.front().at(9).value(),
                  core::HostOutcome::Success, 4),
  };

  ServiceClassifier::RdnsFn rdns = [](net::IPv4Address) { return std::string(); };
  ScanInputs inputs;
  inputs.http = http;
  inputs.tls = tls;
  inputs.registry = &registry;
  inputs.rdns = rdns;
  inputs.sample_fraction = 0.01;

  ReportOptions options;
  options.dominant_threshold = 0.0;
  const std::string report = render_report(inputs, options);
  EXPECT_NE(report.find("Dataset"), std::string::npos);
  EXPECT_NE(report.find("Initial window distribution"), std::string::npos);
  EXPECT_NE(report.find("insufficient data"), std::string::npos);
  EXPECT_NE(report.find("Per-service"), std::string::npos);
  EXPECT_NE(report.find("Cloudflare"), std::string::npos);
  EXPECT_NE(report.find("Akamai"), std::string::npos);
  EXPECT_NE(report.find("1.0% sample"), std::string::npos);
  EXPECT_NE(report.find("IW >= 7"), std::string::npos);
}

TEST(RenderReport, AnomalySectionIsOptInAndCountsHostileHosts) {
  std::vector<core::HostScanRecord> http = {
      make_record(0x0A000001, core::HostOutcome::Success, 10),
      make_record(0x0A000002, core::HostOutcome::FewData, 0, 0),
      make_record(0x0A000003, core::HostOutcome::Error, 0),
  };
  http[1].anomaly = core::ProbeAnomaly::Tarpit;
  http[2].anomaly = core::ProbeAnomaly::Slowloris;
  ScanInputs inputs;
  inputs.http = http;

  ReportOptions options;
  options.include_per_service = false;
  options.dominant_threshold = 0.0;
  const std::string silent = render_report(inputs, options);
  EXPECT_EQ(silent.find("Anomalous stacks"), std::string::npos)
      << "anomaly section must stay off by default";

  options.include_anomalies = true;
  const std::string report = render_report(inputs, options);
  EXPECT_NE(report.find("Anomalous stacks"), std::string::npos);
  EXPECT_NE(report.find("tarpit"), std::string::npos);
  EXPECT_NE(report.find("slowloris"), std::string::npos);
}

TEST(RenderReport, MarkdownModeEmitsTables) {
  std::vector<core::HostScanRecord> http = {
      make_record(1, core::HostOutcome::Success, 10)};
  ScanInputs inputs;
  inputs.http = http;
  ReportOptions options;
  options.markdown = true;
  options.include_per_service = false;
  options.dominant_threshold = 0.0;
  const std::string report = render_report(inputs, options);
  EXPECT_NE(report.find("# TCP Initial Window"), std::string::npos);
  EXPECT_NE(report.find("|---|"), std::string::npos);
  EXPECT_NE(report.find("| HTTP |"), std::string::npos);
}

TEST(RenderReport, MarkdownCountWithThousandsSeparatorIsOneCell) {
  std::vector<core::HostScanRecord> http;
  for (std::uint32_t i = 0; i < 6650; ++i) {
    http.push_back(make_record(0x0A000000 + i, core::HostOutcome::Success, 10));
  }
  ScanInputs inputs;
  inputs.http = http;
  ReportOptions options;
  options.markdown = true;
  options.include_per_service = false;
  options.dominant_threshold = 0.0;
  const std::string report = render_report(inputs, options);
  EXPECT_NE(report.find("| HTTP | 6,650 | 6,650 | "), std::string::npos) << report;
  EXPECT_EQ(report.find('"'), std::string::npos) << report;
}

}  // namespace
}  // namespace iwscan::analysis
