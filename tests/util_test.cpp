#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace iwscan::util {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, BelowIsAlwaysInRange) {
  Rng rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneIsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.below(1), 0u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceFrequencies) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0;
  double sum_sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(19);
  const double weights[] = {1.0, 3.0, 0.0, 6.0};
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 20000.0, 0.6, 0.02);
}

TEST(Rng, WeightedDegenerateCases) {
  Rng rng(23);
  EXPECT_EQ(rng.weighted({}), 0u);
  const double zeros[] = {0.0, 0.0};
  EXPECT_EQ(rng.weighted(zeros), 0u);
  const double negatives[] = {-5.0, 2.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted(negatives), 1u);
}

TEST(Mix64, PureAndDispersed) {
  EXPECT_EQ(mix64(1, 2), mix64(1, 2));
  EXPECT_NE(mix64(1, 2), mix64(1, 3));
  EXPECT_NE(mix64(1, 2), mix64(2, 2));
  // Avalanche sanity: single-bit input change flips many output bits.
  const std::uint64_t a = mix64(99, 1000);
  const std::uint64_t b = mix64(99, 1001);
  EXPECT_GT(__builtin_popcountll(a ^ b), 16);
}

TEST(HashSeed, StableAndSensitive) {
  EXPECT_EQ(hash_seed("iwscan"), hash_seed("iwscan"));
  EXPECT_NE(hash_seed("iwscan"), hash_seed("iwscan2"));
  EXPECT_NE(hash_seed(""), hash_seed("a"));
}

TEST(AliasTable, MatchesWeights) {
  const double weights[] = {0.5, 0.0, 2.0, 1.5};
  AliasTable table(weights);
  Rng rng(29);
  std::map<std::size_t, int> counts;
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[table.sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.125, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.5, 0.015);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.375, 0.015);
}

TEST(AliasTable, EmptyAndUniformFallback) {
  AliasTable empty;
  Rng rng(1);
  EXPECT_EQ(empty.sample(rng), 0u);
  const double zeros[] = {0.0, 0.0, 0.0};
  AliasTable degenerate(zeros);
  for (int i = 0; i < 50; ++i) EXPECT_LT(degenerate.sample(rng), 3u);
}

// ------------------------------------------------------------ strings ----

TEST(Strings, SplitBasics) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
  EXPECT_EQ(split("nosep", ',').size(), 1u);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\r\n\tx\r\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Strings, CaseHelpers) {
  EXPECT_TRUE(iequals("Connection", "connection"));
  EXPECT_FALSE(iequals("Connection", "connectio"));
  EXPECT_TRUE(istarts_with("Location: x", "location:"));
  EXPECT_FALSE(istarts_with("Loc", "location"));
  EXPECT_TRUE(icontains("Connection: CLOSE", "close"));
  EXPECT_TRUE(icontains("anything", ""));
  EXPECT_FALSE(icontains("short", "longer-needle"));
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("12x").has_value());
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());
}

TEST(Strings, ParseShardSpec) {
  std::uint64_t shard = 99;
  std::uint64_t total = 99;
  EXPECT_TRUE(parse_shard_spec("0/1", shard, total));
  EXPECT_EQ(shard, 0u);
  EXPECT_EQ(total, 1u);
  EXPECT_TRUE(parse_shard_spec("1/2", shard, total));
  EXPECT_EQ(shard, 1u);
  EXPECT_EQ(total, 2u);
  for (const char* bad : {"2/2", "1/0", "a/b", "1", "1/2/3", "-1/2"}) {
    EXPECT_FALSE(parse_shard_spec(bad, shard, total)) << bad;
    EXPECT_EQ(shard, 1u) << bad;  // a rejected value leaves the outputs alone
    EXPECT_EQ(total, 2u) << bad;
  }
}

TEST(Strings, Formatters) {
  EXPECT_EQ(format_bytes(2186), "2186 B");
  EXPECT_EQ(format_bytes(65'000), "65.0 kB");
  EXPECT_EQ(format_bytes(48'300'000), "48.3 MB");
  EXPECT_EQ(format_percent(0.508), "50.8%");
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(48'300'000), "48,300,000");
}

// -------------------------------------------------------------- flags ----

TEST(Flags, ParsesAllKinds) {
  Flags flags;
  flags.define_u64("count", 5, "");
  flags.define_double("rate", 1.5, "");
  flags.define_bool("verbose", false, "");
  flags.define_string("name", "x", "");

  const char* argv[] = {"prog", "--count=7", "--rate", "2.25", "--verbose",
                        "--name=hello"};
  ASSERT_TRUE(flags.parse(6, argv)) << flags.error();
  EXPECT_EQ(flags.u64("count"), 7u);
  EXPECT_DOUBLE_EQ(flags.real("rate"), 2.25);
  EXPECT_TRUE(flags.boolean("verbose"));
  EXPECT_EQ(flags.str("name"), "hello");
}

TEST(Flags, DefaultsSurviveNoArgs) {
  Flags flags;
  flags.define_u64("count", 5, "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.u64("count"), 5u);
}

TEST(Flags, NoPrefixDisablesBool) {
  Flags flags;
  flags.define_bool("feature", true, "");
  const char* argv[] = {"prog", "--no-feature"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_FALSE(flags.boolean("feature"));
}

TEST(Flags, RejectsU64OutsideItsRange) {
  for (const char* bad : {"--scale=11", "--scale=25", "--scale=4294967308"}) {
    Flags flags;
    flags.define_u64("scale", 16, "", 12, 24);
    const char* argv[] = {"prog", bad};
    EXPECT_FALSE(flags.parse(2, argv)) << bad;
    EXPECT_NE(flags.error().find("[12, 24]"), std::string::npos) << flags.error();
  }
  Flags flags;
  flags.define_u64("scale", 16, "", 12, 24);
  const char* argv[] = {"prog", "--scale=24"};
  ASSERT_TRUE(flags.parse(2, argv)) << flags.error();
  EXPECT_EQ(flags.u64("scale"), 24u);
}

TEST(Flags, RejectsUnknownAndBadValues) {
  Flags flags;
  flags.define_u64("count", 5, "");
  const char* unknown[] = {"prog", "--nope=1"};
  EXPECT_FALSE(flags.parse(2, unknown));
  EXPECT_NE(flags.error().find("unknown"), std::string::npos);

  Flags flags2;
  flags2.define_u64("count", 5, "");
  const char* bad[] = {"prog", "--count=abc"};
  EXPECT_FALSE(flags2.parse(2, bad));

  Flags flags3;
  flags3.define_u64("count", 5, "");
  const char* positional[] = {"prog", "stray"};
  EXPECT_FALSE(flags3.parse(2, positional));
}

TEST(Flags, HelpRequested) {
  Flags flags;
  flags.define_u64("count", 5, "how many");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(flags.parse(2, argv));
  EXPECT_TRUE(flags.help_requested());
  const std::string usage = flags.usage("prog");
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("how many"), std::string::npos);
}

TEST(Flags, MissingValueIsError) {
  Flags flags;
  flags.define_string("name", "", "");
  const char* argv[] = {"prog", "--name"};
  EXPECT_FALSE(flags.parse(2, argv));
}

}  // namespace
}  // namespace iwscan::util
