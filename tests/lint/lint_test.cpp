// Fixture tests for iwlint: every rule must flag its bad snippet, pass its
// good twin, and go quiet when disabled — so gutting a rule in the analyzer
// fails here even though the tree lint would simply stop reporting.
#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "callgraph.hpp"
#include "iwlint.hpp"
#include "tokens.hpp"

namespace {

using iwscan::lint::Finding;
using iwscan::lint::Options;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(IWSCAN_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<Finding> lint_fixture(const std::string& name,
                                  const std::string& pretend_path,
                                  const Options& options = {}) {
  return iwscan::lint::lint_source(pretend_path, read_fixture(name), options);
}

std::map<std::string, int> count_by_rule(const std::vector<Finding>& findings) {
  std::map<std::string, int> counts;
  for (const auto& finding : findings) ++counts[finding.rule];
  return counts;
}

struct RuleFixture {
  std::string rule;
  std::string bad_fixture;
  std::string bad_path;  // pretend repo-relative path for the bad snippet
  int bad_findings;
  std::string good_fixture;
  std::string good_path;
};

const std::vector<RuleFixture>& rule_fixtures() {
  static const std::vector<RuleFixture> fixtures = {
      {"layering", "bad_layering.cpp", "src/netbase/bad_layering.cpp", 2,
       "good_layering.cpp", "src/tcpstack/good_layering.cpp"},
      {"byte-bridge", "bad_byte_bridge.cpp", "src/core/bad_byte_bridge.cpp", 2,
       "good_byte_bridge.cpp", "src/core/good_byte_bridge.cpp"},
      {"banned-call", "bad_banned_call.cpp", "src/netbase/bad_banned_call.cpp", 3,
       "good_banned_call.cpp", "src/netbase/good_banned_call.cpp"},
      {"wire-enum-default", "bad_wire_enum_default.cpp",
       "src/tls/bad_wire_enum_default.cpp", 1, "good_wire_enum_default.cpp",
       "src/tls/good_wire_enum_default.cpp"},
      {"wire-enum-default", "bad_wire_enum_default_http.cpp",
       "src/httpd/bad_wire_enum_default_http.cpp", 1,
       "good_wire_enum_default_http.cpp", "src/httpd/good_wire_enum_default_http.cpp"},
      {"header-hygiene", "bad_header_hygiene.hpp",
       "src/netbase/bad_header_hygiene.hpp", 3, "good_header_hygiene.hpp",
       "src/netbase/good_header_hygiene.hpp"},
      {"determinism", "bad_determinism.cpp", "src/scanner/bad_determinism.cpp", 3,
       "good_determinism.cpp", "src/scanner/good_determinism.cpp"},
      {"wire-taint", "bad_wire_taint.cpp", "src/netbase/bad_wire_taint.cpp", 5,
       "good_wire_taint.cpp", "src/netbase/good_wire_taint.cpp"},
      {"concurrency-confinement", "bad_concurrency.cpp",
       "src/scanner/bad_concurrency.cpp", 4, "good_concurrency.cpp",
       "src/exec/good_concurrency.cpp"},
  };
  return fixtures;
}

TEST(IwlintRules, BadFixturesFlagExactlyTheirRule) {
  for (const auto& fixture : rule_fixtures()) {
    const auto findings = lint_fixture(fixture.bad_fixture, fixture.bad_path);
    const auto counts = count_by_rule(findings);
    ASSERT_EQ(counts.size(), 1u) << fixture.rule << ": unexpected extra rules";
    EXPECT_EQ(counts.begin()->first, fixture.rule);
    EXPECT_EQ(counts.begin()->second, fixture.bad_findings) << fixture.rule;
    for (const auto& finding : findings) {
      EXPECT_EQ(finding.file, fixture.bad_path);
      EXPECT_GT(finding.line, 0) << fixture.rule;
      EXPECT_FALSE(finding.message.empty()) << fixture.rule;
    }
  }
}

TEST(IwlintRules, GoodFixturesAreClean) {
  for (const auto& fixture : rule_fixtures()) {
    const auto findings = lint_fixture(fixture.good_fixture, fixture.good_path);
    EXPECT_TRUE(findings.empty())
        << fixture.rule << ": "
        << (findings.empty() ? "" : iwscan::lint::format_text(findings.front()));
  }
}

// The acceptance property: disabling a rule silences its bad fixture, so a
// rule that silently stopped firing cannot hide behind a green tree lint.
TEST(IwlintRules, EachRuleIsLoadBearing) {
  for (const auto& fixture : rule_fixtures()) {
    Options disabled;
    disabled.disabled_rules.push_back(fixture.rule);
    EXPECT_FALSE(lint_fixture(fixture.bad_fixture, fixture.bad_path).empty())
        << fixture.rule;
    EXPECT_TRUE(
        lint_fixture(fixture.bad_fixture, fixture.bad_path, disabled).empty())
        << fixture.rule;
  }
}

TEST(IwlintSuppression, JustificationIsMandatory) {
  const auto findings =
      lint_fixture("bad_suppression.cpp", "src/core/bad_suppression.cpp");
  const auto counts = count_by_rule(findings);
  // The unjustified allow() is flagged AND fails to suppress the underlying
  // byte-bridge finding.
  EXPECT_EQ(counts.at("suppression"), 1);
  EXPECT_EQ(counts.at("byte-bridge"), 1);
}

TEST(IwlintSuppression, JustifiedSuppressionSilencesTrailingAndWholeLine) {
  const auto findings =
      lint_fixture("good_suppression.cpp", "src/core/good_suppression.cpp");
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : iwscan::lint::format_text(findings.front()));
}

TEST(IwlintSuppression, UnknownRuleNameIsFlagged) {
  const auto findings = iwscan::lint::lint_source(
      "src/core/x.cpp",
      "// iwlint: allow(no-such-rule) -- justified but meaningless\n"
      "constexpr int x = 0;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "suppression");
}

TEST(IwlintDeterminism, NetsimAndRngImplementationAreAllowlisted) {
  const auto content = read_fixture("bad_determinism.cpp");
  EXPECT_FALSE(
      iwscan::lint::lint_source("src/scanner/bad_determinism.cpp", content).empty());
  EXPECT_TRUE(
      iwscan::lint::lint_source("src/netsim/bad_determinism.cpp", content).empty());
  EXPECT_TRUE(iwscan::lint::lint_source("src/util/rng.cpp", content).empty());
}

TEST(IwlintLayering, TestsBenchExamplesSeeEverything) {
  const std::string content = "#include \"analysis/report.hpp\"\nint x;\n";
  EXPECT_TRUE(iwscan::lint::lint_source("tests/foo_test.cpp", content).empty());
  EXPECT_TRUE(iwscan::lint::lint_source("bench/bench_foo.cpp", content).empty());
  EXPECT_TRUE(iwscan::lint::lint_source("examples/foo.cpp", content).empty());
  // ...but netbase must not reach up into analysis.
  EXPECT_FALSE(iwscan::lint::lint_source("src/netbase/foo.cpp", content).empty());
}

TEST(IwlintOutput, TextAndJsonFormats) {
  const Finding finding{"src/a.cpp", 7, "layering", "msg with \"quotes\""};
  EXPECT_EQ(iwscan::lint::format_text(finding),
            "src/a.cpp:7: layering: msg with \"quotes\"");
  const std::string json = iwscan::lint::format_json({finding});
  EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
  EXPECT_NE(json.find("msg with \\\"quotes\\\""), std::string::npos);
  EXPECT_EQ(iwscan::lint::format_json({}), "[]\n");
}

// ---------------------------------------------------------------------------
// Cross-TU call-graph rules (hot-path, determinism-taint). These need the
// whole-program entry point: lint_source deliberately skips both.

using iwscan::lint::SourceFile;

std::vector<Finding> lint_program(const std::vector<SourceFile>& files,
                                  const Options& options = {}) {
  return iwscan::lint::lint_files(files, options);
}

int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  int n = 0;
  for (const auto& finding : findings) n += finding.rule == rule ? 1 : 0;
  return n;
}

TEST(IwlintHotPath, DirectFactAtRootIsFlagged) {
  const auto findings = lint_program({{"src/netsim/pump.cpp",
                                       "namespace iwscan::sim {\n"
                                       "IWSCAN_HOT void pump(std::vector<int>& v) {\n"
                                       "  v.push_back(1);\n"
                                       "}\n"
                                       "}  // namespace iwscan::sim\n"}});
  ASSERT_EQ(findings.size(), 1u)
      << (findings.empty() ? "" : iwscan::lint::format_text(findings.front()));
  EXPECT_EQ(findings[0].rule, "hot-path");
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("push_back"), std::string::npos);
}

TEST(IwlintHotPath, CrossFileChainNamesTheRoot) {
  const auto findings = lint_program(
      {{"src/netsim/pump.cpp",
        "namespace iwscan::sim {\n"
        "IWSCAN_HOT void pump() { helper_fill(); }\n"
        "}  // namespace iwscan::sim\n"},
       {"src/netbase/helper.cpp",
        "namespace iwscan::net {\n"
        "void helper_fill() { const std::string s = std::to_string(7); }\n"
        "}  // namespace iwscan::net\n"}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hot-path");
  EXPECT_EQ(findings[0].file, "src/netbase/helper.cpp");
  // The chain in the message leads back to the annotated root.
  EXPECT_NE(findings[0].message.find("pump"), std::string::npos);
}

TEST(IwlintHotPath, RecursionConvergesAndStillFlags) {
  const auto findings = lint_program({{"src/netsim/walk.cpp",
                                       "namespace iwscan::sim {\n"
                                       "IWSCAN_HOT void walk(int n) {\n"
                                       "  if (n > 0) walk(n - 1);\n"
                                       "  std::cout << n;\n"
                                       "}\n"
                                       "}  // namespace iwscan::sim\n"}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hot-path");
  EXPECT_NE(findings[0].message.find("cout"), std::string::npos);
}

TEST(IwlintHotPath, MutualRecursionConverges) {
  const auto findings = lint_program({{"src/netsim/pingpong.cpp",
                                       "namespace iwscan::sim {\n"
                                       "void ping(int n);\n"
                                       "void pong(int n) {\n"
                                       "  if (n > 0) ping(n - 1);\n"
                                       "  throw n;\n"
                                       "}\n"
                                       "void ping(int n) {\n"
                                       "  if (n > 0) pong(n - 1);\n"
                                       "}\n"
                                       "IWSCAN_HOT void drive() { ping(3); }\n"
                                       "}  // namespace iwscan::sim\n"}});
  ASSERT_EQ(count_rule(findings, "hot-path"), 1);
  EXPECT_NE(findings[0].message.find("throw"), std::string::npos);
}

TEST(IwlintHotPath, LambdaBodyFoldsIntoEnclosingFunction) {
  const auto findings = lint_program({{"src/netsim/lam.cpp",
                                       "namespace iwscan::sim {\n"
                                       "IWSCAN_HOT void pump(std::vector<int>& v) {\n"
                                       "  auto fill = [&v] { v.push_back(7); };\n"
                                       "  fill();\n"
                                       "}\n"
                                       "}  // namespace iwscan::sim\n"}});
  ASSERT_EQ(count_rule(findings, "hot-path"), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(IwlintHotPath, TemplateHelperIsTraversed) {
  const auto findings = lint_program({{"src/netsim/tmpl.cpp",
                                       "namespace iwscan::sim {\n"
                                       "template <typename T>\n"
                                       "void fill(T& t) { t.resize(8); }\n"
                                       "IWSCAN_HOT void pump(std::vector<int>& v) {\n"
                                       "  fill(v);\n"
                                       "}\n"
                                       "}  // namespace iwscan::sim\n"}});
  ASSERT_EQ(count_rule(findings, "hot-path"), 1);
  EXPECT_NE(findings[0].message.find("resize"), std::string::npos);
}

TEST(IwlintHotPath, OverloadSetsResolveOverApproximately) {
  // Name-based resolution cannot pick the overload; the allocating member
  // of the set must be flagged even though the call site passes an int.
  const auto findings = lint_program({{"src/netsim/ovl.cpp",
                                       "namespace iwscan::sim {\n"
                                       "void encode(int) {}\n"
                                       "void encode(std::vector<int>& v) {\n"
                                       "  v.reserve(4);\n"
                                       "}\n"
                                       "IWSCAN_HOT void pump(int x) { encode(x); }\n"
                                       "}  // namespace iwscan::sim\n"}});
  ASSERT_EQ(count_rule(findings, "hot-path"), 1);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(IwlintHotPath, VirtualDispatchReachesEveryOverride) {
  const auto findings = lint_program(
      {{"src/netsim/sink.cpp",
        "namespace iwscan::sim {\n"
        "struct Sink {\n"
        "  virtual void emit(int value) = 0;\n"
        "};\n"
        "struct VecSink : Sink {\n"
        "  void emit(int value) override;\n"
        "  std::vector<int> out_;\n"
        "};\n"
        "void VecSink::emit(int value) { out_.push_back(value); }\n"
        "IWSCAN_HOT void pump(Sink& sink) { sink.emit(1); }\n"
        "}  // namespace iwscan::sim\n"}});
  ASSERT_EQ(count_rule(findings, "hot-path"), 1);
  EXPECT_EQ(findings[0].line, 9);
}

TEST(IwlintHotPath, BoundaryStopsTraversal) {
  // IWSCAN_HOT_BOUNDARY marks the audited hand-off: the allocating override
  // behind it is out of scope for the fabric's root.
  const auto findings = lint_program(
      {{"src/netsim/boundary.cpp",
        "namespace iwscan::sim {\n"
        "struct Endpoint {\n"
        "  IWSCAN_HOT_BOUNDARY virtual void handle_it(int value) = 0;\n"
        "};\n"
        "struct Slow : Endpoint {\n"
        "  void handle_it(int value) override;\n"
        "};\n"
        "void Slow::handle_it(int value) {\n"
        "  const std::string s = std::to_string(value);\n"
        "}\n"
        "IWSCAN_HOT void pump(Endpoint& endpoint) { endpoint.handle_it(1); }\n"
        "}  // namespace iwscan::sim\n"}});
  EXPECT_EQ(count_rule(findings, "hot-path"), 0)
      << iwscan::lint::format_text(findings.front());
}

TEST(IwlintHotPath, JustifiedSuppressionSilencesProgramFinding) {
  const auto findings = lint_program(
      {{"src/netsim/pump.cpp",
        "namespace iwscan::sim {\n"
        "IWSCAN_HOT void pump(std::vector<int>& v) {\n"
        "  // iwlint: allow(hot-path) -- fixture: growth is intentional here\n"
        "  v.push_back(1);\n"
        "}\n"
        "}  // namespace iwscan::sim\n"}});
  EXPECT_TRUE(findings.empty())
      << iwscan::lint::format_text(findings.front());
}

TEST(IwlintHotPath, PerTuEntryPointNeverRunsProgramRules) {
  // lint_source's contract: per-TU rules only, even on annotated sources.
  const auto findings = iwscan::lint::lint_source(
      "src/netsim/pump.cpp",
      "IWSCAN_HOT void pump(std::vector<int>& v) { v.push_back(1); }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(IwlintTaint, ClockBehindNetsimAllowlistIsStillTainted) {
  // The per-TU determinism rule allowlists src/netsim/, so this program is
  // per-TU clean — only the cross-TU taint pass can see that a scan root
  // reaches the clock read.
  const std::vector<SourceFile> program = {
      {"src/netsim/clockutil.cpp",
       "namespace iwscan::sim {\n"
       "long now_ns() {\n"
       "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
       "}\n"
       "}  // namespace iwscan::sim\n"},
      {"src/scanner/runner.cpp",
       "namespace iwscan::scan {\n"
       "int run_iw_scan() { return static_cast<int>(now_ns()); }\n"
       "}  // namespace iwscan::scan\n"}};
  const auto findings = lint_program(program);
  ASSERT_EQ(findings.size(), 1u)
      << (findings.empty() ? "" : iwscan::lint::format_text(findings.front()));
  EXPECT_EQ(findings[0].rule, "determinism-taint");
  EXPECT_EQ(findings[0].file, "src/netsim/clockutil.cpp");
  EXPECT_NE(findings[0].message.find("run_iw_scan"), std::string::npos);
}

TEST(IwlintTaint, ClockReachableOnlyFromExecEntryIsTainted) {
  // Library users may call the executor directly, skipping run_iw_scan, so
  // exec::run_scan is a scan root in its own right.
  const std::vector<SourceFile> program = {
      {"src/netsim/clockutil.cpp",
       "namespace iwscan::sim {\n"
       "long now_ns() {\n"
       "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
       "}\n"
       "}  // namespace iwscan::sim\n"},
      {"src/exec/executor.cpp",
       "namespace iwscan::exec {\n"
       "long run_scan() { return now_ns(); }\n"
       "}  // namespace iwscan::exec\n"}};
  const auto findings = lint_program(program);
  ASSERT_EQ(findings.size(), 1u)
      << (findings.empty() ? "" : iwscan::lint::format_text(findings.front()));
  EXPECT_EQ(findings[0].rule, "determinism-taint");
  EXPECT_EQ(findings[0].file, "src/netsim/clockutil.cpp");
  EXPECT_NE(findings[0].message.find("run_scan"), std::string::npos);
}

TEST(IwlintTaint, QuarantinedSinksAreOpaque) {
  // The same clock read inside src/util/stopwatch.cpp is the sanctioned
  // home for wall-clock access; reaching it taints nothing.
  const auto findings = lint_program(
      {{"src/util/stopwatch.cpp",
        "namespace iwscan::util {\n"
        "long now_ns() {\n"
        "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
        "}\n"
        "}  // namespace iwscan::util\n"},
       {"src/scanner/runner.cpp",
        "namespace iwscan::scan {\n"
        "int run_iw_scan() { return static_cast<int>(now_ns()); }\n"
        "}  // namespace iwscan::scan\n"}});
  EXPECT_TRUE(findings.empty())
      << iwscan::lint::format_text(findings.front());
}

TEST(IwlintProgram, BothCallGraphRulesAreLoadBearing) {
  const std::vector<SourceFile> hot_bad = {
      {"src/netsim/pump.cpp",
       "namespace iwscan::sim {\n"
       "IWSCAN_HOT void pump(std::vector<int>& v) { v.push_back(1); }\n"
       "}  // namespace iwscan::sim\n"}};
  const std::vector<SourceFile> taint_bad = {
      {"src/netsim/clockutil.cpp",
       "namespace iwscan::sim {\n"
       "long now_ns() {\n"
       "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
       "}\n"
       "}  // namespace iwscan::sim\n"},
      {"src/scanner/runner.cpp",
       "namespace iwscan::scan {\n"
       "int run_iw_scan() { return static_cast<int>(now_ns()); }\n"
       "}  // namespace iwscan::scan\n"}};
  EXPECT_EQ(count_rule(lint_program(hot_bad), "hot-path"), 1);
  EXPECT_EQ(count_rule(lint_program(taint_bad), "determinism-taint"), 1);
  Options no_hot;
  no_hot.disabled_rules.push_back("hot-path");
  EXPECT_TRUE(lint_program(hot_bad, no_hot).empty());
  Options no_taint;
  no_taint.disabled_rules.push_back("determinism-taint");
  EXPECT_TRUE(lint_program(taint_bad, no_taint).empty());
}

TEST(IwlintProgram, StatsReportGraphSize) {
  iwscan::lint::ProgramStats stats;
  const std::vector<SourceFile> program = {
      {"src/netsim/pump.cpp",
       "namespace iwscan::sim {\n"
       "void helper() {}\n"
       "IWSCAN_HOT void pump() { helper(); }\n"
       "int run_iw_scan() { return 0; }\n"
       "}  // namespace iwscan::sim\n"}};
  const auto findings = iwscan::lint::lint_files(program, {}, &stats);
  EXPECT_TRUE(findings.empty());
  EXPECT_EQ(stats.files, 1u);
  EXPECT_EQ(stats.functions, 3u);
  EXPECT_EQ(stats.hot_roots, 1u);
  EXPECT_EQ(stats.taint_roots, 1u);
  EXPECT_GE(stats.call_edges, 1u);
}

// ---------------------------------------------------------------------------
// unreached: src/ functions that no bench/, examples/ or tools/ main reaches.

/// `files` plus a main in examples/ and tools/; each test brings its own
/// bench/ file (or leaves it out to show the rule's whole-program gate).
std::vector<SourceFile> with_drivers(std::vector<SourceFile> files) {
  files.push_back({"examples/demo.cpp", "int main() { return 0; }\n"});
  files.push_back({"tools/probe/main.cpp", "int main() { return 0; }\n"});
  return files;
}

const SourceFile kLib = {"src/netsim/lib.cpp",
                         "namespace iwscan::sim {\n"
                         "int inner() { return 1; }\n"
                         "int used() { return inner(); }\n"
                         "int test_only() { return 2; }\n"
                         "int dead() { return 3; }\n"
                         "}  // namespace iwscan::sim\n"};
const SourceFile kBenchMain = {"bench/run.cpp",
                               "int helper() { return iwscan::sim::used(); }\n"
                               "int main() { return helper(); }\n"};
const SourceFile kLibTest = {
    "tests/lib_test.cpp",
    "TEST(Lib, TestOnly) { EXPECT_EQ(iwscan::sim::test_only(), 2); }\n"};

TEST(IwlintUnreached, FlagsWhatNoMainReachesAndSaysWhetherTestsDo) {
  const auto findings = lint_program(with_drivers({kLib, kBenchMain, kLibTest}));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(count_rule(findings, "unreached"), 2);
  // inner and used are reached through the bench helper; the rest is not.
  EXPECT_EQ(findings[0].file, "src/netsim/lib.cpp");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("'sim::test_only'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("only tests reach it"), std::string::npos);
  EXPECT_EQ(findings[1].line, 5);
  EXPECT_NE(findings[1].message.find("'sim::dead'"), std::string::npos);
  EXPECT_NE(findings[1].message.find("nothing reaches it"), std::string::npos);

  Options no_unreached;
  no_unreached.disabled_rules.push_back("unreached");
  EXPECT_TRUE(lint_program(with_drivers({kLib, kBenchMain, kLibTest}), no_unreached)
                  .empty());
}

TEST(IwlintUnreached, AnyUseOfTheNameIsAReference) {
  // Passed as a value, named in a namespace-scope table, used in a macro
  // body or an operator body, or building a constexpr table: all reached.
  // Constructors and destructors are called implicitly and are exempt.
  const std::vector<SourceFile> program = with_drivers(
      {{"src/netsim/refs.hpp",
        "#pragma once\n"
        "namespace iwscan::sim {\n"
        "void check_fail(int code);\n"
        "#define SIM_CHECK(c) ::iwscan::sim::check_fail(c)\n"
        "}  // namespace iwscan::sim\n"},
       {"src/netsim/refs.cpp",
        "namespace iwscan::sim {\n"
        "void check_fail(int code) { static_cast<void>(code); }\n"
        "int run_table() { return 1; }\n"
        "int run_value() { return 2; }\n"
        "int apply(int (*fn)()) { SIM_CHECK(0); return fn(); }\n"
        "int via_value() { return apply(run_value); }\n"
        "int counted(int n) { return n; }\n"
        "struct Box {\n"
        "  Box() {}\n"
        "  ~Box() {}\n"
        "  int operator()(int n) const { return counted(n); }\n"
        "};\n"
        "constexpr int make_table() { return 7; }\n"
        "constexpr int kTable = make_table();\n"
        "}  // namespace iwscan::sim\n"},
       {"bench/repro.cpp",
        "struct Experiment { const char* name; int (*run)(); };\n"
        "const Experiment kExperiments[] = {{\"table\", iwscan::sim::run_table}};\n"
        "int main() { return kExperiments[0].run() + iwscan::sim::via_value(); }\n"}});
  const auto findings = lint_program(program);
  EXPECT_TRUE(findings.empty()) << iwscan::lint::format_text(findings.front());
}

TEST(IwlintUnreached, JustifiedAllowKeepsATestSeam) {
  const SourceFile seams = {
      "src/netsim/seams.cpp",
      "namespace iwscan::sim {\n"
      "// iwlint: allow(unreached) -- fixture: the reference a test compares against\n"
      "int reference() { return 1; }\n"
      "// iwlint: allow(unreached)\n"
      "int bare() { return 2; }\n"
      "}  // namespace iwscan::sim\n"};
  iwscan::lint::ProgramStats stats;
  const auto findings =
      iwscan::lint::lint_files(with_drivers({seams, kBenchMain}), {}, &stats);
  // The bare allow suppresses nothing and is itself a finding.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "suppression");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_EQ(findings[1].rule, "unreached");
  EXPECT_EQ(findings[1].line, 5);
  EXPECT_EQ(stats.unreached_seams, 1u);
  EXPECT_EQ(stats.unreached_roots, 3u);
}

TEST(IwlintUnreached, SilentWithoutAllThreeDriverTrees) {
  // Without every root directory in the linted set, every src/ function
  // would look dead; the rule reports nothing instead.
  EXPECT_TRUE(lint_program({kLib, kLibTest}).empty());
  const auto no_tools = lint_program(
      {kLib, kBenchMain, kLibTest, {"examples/demo.cpp", "int main() { return 0; }\n"}});
  EXPECT_EQ(count_rule(no_tools, "unreached"), 0);
  iwscan::lint::ProgramStats stats;
  EXPECT_TRUE(iwscan::lint::lint_files({kLib, kLibTest}, {}, &stats).empty());
  EXPECT_EQ(stats.unreached_roots, 0u);
}

TEST(IwlintUnreached, DriverFunctionsNeverJoinTheHotPathGraph) {
  // bench/ defines its own `emit` that grows a vector. Files outside src/
  // join the index only as callers, so the hot root's call to emit links
  // to the src/ definition alone.
  iwscan::lint::ProgramStats stats;
  const auto findings = iwscan::lint::lint_files(
      with_drivers({{"src/netsim/pump.cpp",
                     "namespace iwscan::sim {\n"
                     "void emit(int v);\n"
                     "IWSCAN_HOT void pump() { emit(1); }\n"
                     "void emit(int v) { static_cast<void>(v); }\n"
                     "}  // namespace iwscan::sim\n"},
                    {"bench/emit.cpp",
                     "void emit(int v) { std::vector<int> out; out.push_back(v); }\n"
                     "int main() { iwscan::sim::pump(); emit(2); return 0; }\n"}}),
      {}, &stats);
  EXPECT_TRUE(findings.empty()) << iwscan::lint::format_text(findings.front());
  EXPECT_EQ(stats.functions, 2u);  // src/ definitions only
  EXPECT_EQ(stats.hot_roots, 1u);
}

TEST(IwlintSuppression, StandaloneCommentCoversTheWholeStatement) {
  // The banned call sits on the statement's continuation line, not the line
  // right after the comment; the suppression must cover the full span.
  const auto findings = iwscan::lint::lint_source(
      "src/analysis/parse.cpp",
      "int parse(const char* a, const char* b) {\n"
      "  // iwlint: allow(banned-call) -- fixture: legacy parse, span test\n"
      "  const int x = combine(a,\n"
      "                        atoi(b));\n"
      "  return x;\n"
      "}\n");
  EXPECT_TRUE(findings.empty())
      << iwscan::lint::format_text(findings.front());
  // Control: without the comment the same source fires on line 3.
  const auto unsuppressed = iwscan::lint::lint_source(
      "src/analysis/parse.cpp",
      "int parse(const char* a, const char* b) {\n"
      "  const int x = combine(a,\n"
      "                        atoi(b));\n"
      "  return x;\n"
      "}\n");
  ASSERT_EQ(unsuppressed.size(), 1u);
  EXPECT_EQ(unsuppressed[0].rule, "banned-call");
  EXPECT_EQ(unsuppressed[0].line, 3);
}

TEST(IwlintExplain, EveryRuleHasAnExplanation) {
  for (const auto& rule : iwscan::lint::rule_names()) {
    EXPECT_FALSE(iwscan::lint::rule_explanation(rule).empty()) << rule;
  }
  EXPECT_TRUE(iwscan::lint::rule_explanation("no-such-rule").empty());
  EXPECT_NE(std::find(iwscan::lint::rule_names().begin(),
                      iwscan::lint::rule_names().end(), "hot-path"),
            iwscan::lint::rule_names().end());
  EXPECT_NE(std::find(iwscan::lint::rule_names().begin(),
                      iwscan::lint::rule_names().end(), "determinism-taint"),
            iwscan::lint::rule_names().end());
  EXPECT_NE(std::find(iwscan::lint::rule_names().begin(),
                      iwscan::lint::rule_names().end(), "unreached"),
            iwscan::lint::rule_names().end());
}

// ---------------------------------------------------------------------------
// Tokenizer fixtures the dataflow rules depend on: raw strings and digit
// separators must lex as single tokens attributed to their START line, or
// taint chains and suppression spans drift.

using iwscan::lint::TokKind;

TEST(IwlintTokens, DigitSeparatorsLexAsOneNumber) {
  const auto scan = iwscan::lint::tokenize("std::size_t x = 64'000;\n");
  bool found = false;
  for (const auto& tok : scan.tokens) {
    if (tok.kind == TokKind::Number) {
      EXPECT_EQ(tok.text, "64'000");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(IwlintTokens, RawStringIsOneTokenAndHidesCommentMarkers) {
  const auto scan =
      iwscan::lint::tokenize("auto s = R\"(quote \" and // not a comment)\";\n");
  EXPECT_TRUE(scan.comments.empty());
  bool found = false;
  for (const auto& tok : scan.tokens) {
    if (tok.kind == TokKind::Str) {
      EXPECT_NE(tok.text.find("not a comment"), std::string_view::npos);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(IwlintTokens, DelimitedRawStringStopsAtMatchingTerminator) {
  // The inner `)"` must not end the d-char-delimited literal.
  const auto scan = iwscan::lint::tokenize(
      "auto s = R\"x(inner )\" quote)x\";\nint marker_after;\n");
  bool marker = false;
  for (const auto& tok : scan.tokens) {
    if (tok.kind == TokKind::Ident && tok.text == "marker_after") {
      EXPECT_EQ(tok.line, 2);
      marker = true;
    }
  }
  EXPECT_TRUE(marker);
}

TEST(IwlintTokens, MultilineRawStringKeepsStartLineAndCodeLines) {
  const auto scan = iwscan::lint::tokenize(
      "auto s = R\"(line one\nline two\nline three)\";\nint after;\n");
  bool str_found = false;
  for (const auto& tok : scan.tokens) {
    if (tok.kind == TokKind::Str) {
      EXPECT_EQ(tok.line, 1);
      str_found = true;
    }
    if (tok.kind == TokKind::Ident && tok.text == "after") {
      EXPECT_EQ(tok.line, 4);
    }
  }
  EXPECT_TRUE(str_found);
  // Every spanned line counts as code so suppression spans don't drift.
  for (int line = 1; line <= 4; ++line) {
    EXPECT_EQ(scan.code_lines.count(line), 1u) << line;
  }
}

// ---------------------------------------------------------------------------
// wire-taint dataflow specifics beyond the fixture table: the finding must
// print the def→use chain, and a justified suppression must silence it.

TEST(IwlintWireTaint, FindingPrintsTheDefUseChain) {
  const auto findings =
      lint_fixture("bad_wire_taint.cpp", "src/netbase/bad_wire_taint.cpp");
  bool chain = false;
  for (const auto& finding : findings) {
    if (finding.message.find("raw_idx") != std::string::npos) {
      EXPECT_NE(finding.message.find("shifted"), std::string::npos);
      EXPECT_NE(finding.message.find("subscript"), std::string::npos);
      chain = true;
    }
  }
  EXPECT_TRUE(chain) << "no finding carries the raw_idx -> idx -> shifted chain";
}

TEST(IwlintWireTaint, JustifiedSuppressionSilencesTheFlow) {
  const auto findings = iwscan::lint::lint_source(
      "src/netbase/len.cpp",
      "namespace iwscan::net {\n"
      "std::vector<std::uint8_t> grab(WireReader& reader) {\n"
      "  std::vector<std::uint8_t> out;\n"
      "  const std::uint16_t len = reader.u16();\n"
      "  // iwlint: allow(wire-taint) -- fixture: bounded by the caller's framing\n"
      "  out.resize(len);\n"
      "  return out;\n"
      "}\n"
      "}  // namespace iwscan::net\n");
  EXPECT_TRUE(findings.empty())
      << iwscan::lint::format_text(findings.front());
}

// ---------------------------------------------------------------------------
// concurrency-confinement specifics beyond the fixture table.

TEST(IwlintConcurrency, ThreadPoolIsTheSanctionedHome) {
  const std::string content =
      "namespace iwscan::exec {\n"
      "void spawn() { std::thread worker([] {}); worker.join(); }\n"
      "}  // namespace iwscan::exec\n";
  EXPECT_TRUE(
      iwscan::lint::lint_source("src/exec/thread_pool.cpp", content).empty());
  // Even inside src/exec/, thread creation belongs to the pool alone.
  EXPECT_FALSE(iwscan::lint::lint_source("src/exec/channel.cpp", content).empty());
}

TEST(IwlintConcurrency, ConstGlobalsAreExemptMutableOnesAreNot) {
  EXPECT_TRUE(iwscan::lint::lint_source(
                  "src/core/c.cpp",
                  "constexpr int kMax = 7;\nconst char* const kName = \"iw\";\n")
                  .empty());
  const auto findings =
      iwscan::lint::lint_source("src/core/c.cpp", "int g_count = 0;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "concurrency-confinement");
  EXPECT_NE(findings[0].message.find("g_count"), std::string::npos);
}

TEST(IwlintConcurrency, SuppressionWithJustificationIsHonored) {
  // Mirrors the tree's one sanctioned exception (alloc_stats.hpp): one
  // justified comment covers both the sync-type and mutable-global findings
  // that anchor to the declaration line.
  const auto findings = iwscan::lint::lint_source(
      "src/util/counter.cpp",
      "// iwlint: allow(concurrency-confinement) -- fixture: audited counter\n"
      "std::atomic<int> g_count{0};\n");
  EXPECT_TRUE(findings.empty())
      << iwscan::lint::format_text(findings.front());
}

// ---------------------------------------------------------------------------
// SARIF output and dataflow stats.

TEST(IwlintOutput, SarifFormat) {
  const Finding finding{"src/a.cpp", 7, "wire-taint", "tainted \"len\""};
  const std::string sarif = iwscan::lint::format_sarif({finding});
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"wire-taint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  EXPECT_NE(sarif.find("%SRCROOT%"), std::string::npos);
  EXPECT_NE(sarif.find("tainted \\\"len\\\""), std::string::npos);
  // Every rule is described in the driver's rule table, even on a clean run.
  const std::string empty = iwscan::lint::format_sarif({});
  for (const auto& rule : iwscan::lint::rule_names()) {
    EXPECT_NE(empty.find("\"id\": \"" + rule + "\""), std::string::npos) << rule;
  }
}

TEST(IwlintProgram, DataflowStatsCountSourcesSinksGuards) {
  iwscan::lint::ProgramStats stats;
  const std::vector<SourceFile> program = {
      {"src/netbase/len.cpp",
       "namespace iwscan::net {\n"
       "std::vector<std::uint8_t> grab(WireReader& reader) {\n"
       "  std::vector<std::uint8_t> out;\n"
       "  const std::uint16_t len = reader.u16();\n"
       "  if (!reader.require(len)) return out;\n"
       "  out.resize(len);\n"
       "  return out;\n"
       "}\n"
       "}  // namespace iwscan::net\n"}};
  const auto findings = iwscan::lint::lint_files(program, {}, &stats);
  EXPECT_TRUE(findings.empty())
      << iwscan::lint::format_text(findings.front());
  EXPECT_EQ(stats.dataflow.functions, 1u);
  EXPECT_GE(stats.dataflow.taint_sources, 1u);
  EXPECT_GE(stats.dataflow.taint_sinks, 1u);
  EXPECT_GE(stats.dataflow.taint_guards, 1u);
}

TEST(IwlintTree, WholeRepositoryLintsClean) {
  std::vector<std::string> io_errors;
  const auto findings = iwscan::lint::lint_tree(
      IWSCAN_LINT_REPO_ROOT, {"src", "tests", "bench", "examples", "tools"}, {},
      &io_errors);
  EXPECT_TRUE(io_errors.empty());
  for (const auto& finding : findings) {
    ADD_FAILURE() << iwscan::lint::format_text(finding);
  }
}

}  // namespace
