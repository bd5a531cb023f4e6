// Unit tests for src/common: RNG determinism, bit utilities, statistics.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "common/bitops.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace hc = hauberk::common;

TEST(Rng, DeterministicFromSeed) {
  hc::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  hc::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  hc::Rng a = hc::Rng::fork(7, 0);
  hc::Rng b = hc::Rng::fork(7, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowIsInRange) {
  hc::Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.next_below(7);
    EXPECT_LT(v, 7u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  hc::Rng r(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval) {
  hc::Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  hc::Rng r(12);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasZeroMeanUnitVariance) {
  hc::Rng r(13);
  hc::RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

// --- bitops ---

class RandomMaskPopcount : public ::testing::TestWithParam<int> {};

TEST_P(RandomMaskPopcount, HasExactPopcount) {
  const int bits = GetParam();
  hc::Rng r(100 + static_cast<std::uint64_t>(bits));
  for (int i = 0; i < 500; ++i) {
    const auto m = hc::random_mask(r, bits);
    EXPECT_EQ(std::popcount(m), bits) << "mask=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperErrorBitCounts, RandomMaskPopcount,
                         ::testing::Values(1, 3, 6, 10, 15, 32));

TEST(Bitops, MaskZeroBitsIsZero) {
  hc::Rng r(5);
  EXPECT_EQ(hc::random_mask(r, 0), 0u);
}

TEST(Bitops, MasksVary) {
  hc::Rng r(6);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(hc::random_mask(r, 3));
  EXPECT_GT(seen.size(), 50u);
}

TEST(Bitops, ApplyMaskTwiceIsIdentity) {
  hc::Rng r(7);
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t w = r.next_u32();
    const std::uint32_t m = hc::random_mask(r, 6);
    EXPECT_EQ(hc::apply_mask(hc::apply_mask(w, m), m), w);
  }
}

TEST(Bitops, FloatBitsRoundTrip) {
  EXPECT_EQ(hc::bits_f32(hc::f32_bits(3.25f)), 3.25f);
  EXPECT_EQ(hc::bits_f32(hc::f32_bits(-0.0f)), -0.0f);
}

TEST(Bitops, MagnitudeDecadeBasics) {
  EXPECT_EQ(hc::magnitude_decade(1000.0, -15, 15), 3);
  EXPECT_EQ(hc::magnitude_decade(-999.0, -15, 15), 2);
  EXPECT_EQ(hc::magnitude_decade(0.0, -15, 15), -15);
  EXPECT_EQ(hc::magnitude_decade(1e30, -15, 15), 15);
  EXPECT_EQ(hc::magnitude_decade(std::numeric_limits<double>::infinity(), -15, 15), 15);
}

// --- stats ---

TEST(RunningStats, MeanAndVariance) {
  hc::RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(DecadeHistogram, BucketsSignedDecades) {
  hc::DecadeHistogram h(-3, 3, 1e-5);
  h.add(150.0);    // decade 2, positive
  h.add(-0.02);    // decade -2, negative
  h.add(1e-9);     // zero band
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count(h.bucket_index(100.0)), 1u);
  EXPECT_EQ(h.count(h.bucket_index(-0.05)), 1u);
  EXPECT_EQ(h.count(h.bucket_index(0.0)), 1u);
}

TEST(DecadeHistogram, LabelsAreReadable) {
  hc::DecadeHistogram h(-2, 2);
  EXPECT_EQ(h.bucket_label(h.bucket_index(0.0)), "0");
  EXPECT_EQ(h.bucket_label(h.bucket_index(150.0)), "1.0E+02");
  EXPECT_EQ(h.bucket_label(h.bucket_index(-150.0)), "-1.0E+02");
}

TEST(DecadeHistogram, PeakProbability) {
  hc::DecadeHistogram h(-3, 3);
  for (int i = 0; i < 8; ++i) h.add(10.0);
  h.add(1e3);
  h.add(-1.0);
  EXPECT_DOUBLE_EQ(h.peak_probability(), 0.8);
}

TEST(Pct, SafeOnZeroDenominator) {
  EXPECT_EQ(hc::pct(1, 0), 0.0);
  EXPECT_EQ(hc::pct(1, 4), 25.0);
}

// --- cli ---

TEST(CliArgs, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=2.5", "--n", "17", "--flag", "--seed=0x10"};
  hc::CliArgs args(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0), 2.5);
  EXPECT_EQ(args.get_int("n", 0), 17);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_EQ(args.get_u64("seed", 0), 16u);
  EXPECT_EQ(args.get_int("missing", -1), -1);
  EXPECT_TRUE(args.ok());
}

TEST(CliArgs, BadIntegerFallsBackToDefaultAndRecordsError) {
  const char* argv[] = {"prog", "--workers=abc", "--n=12x", "--seed=0xzz", "--alpha=nan?"};
  hc::CliArgs args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("workers", 4), 4);
  EXPECT_EQ(args.get_int("n", -1), -1);
  EXPECT_EQ(args.get_u64("seed", 9), 9u);
  EXPECT_EQ(args.get_double("alpha", 1.5), 1.5);
  EXPECT_FALSE(args.ok());
  ASSERT_EQ(args.errors().size(), 4u);
  EXPECT_NE(args.errors()[0].find("--workers"), std::string::npos);
  EXPECT_NE(args.errors()[0].find("abc"), std::string::npos);
}

TEST(CliArgs, PartiallyNumericValuesAreRejectedNotTruncated) {
  // strtoll would silently stop at the first bad character; the strict
  // parser must reject the whole value instead.
  const char* argv[] = {"prog", "--n=17crash"};
  hc::CliArgs args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("n", 3), 3);
  EXPECT_FALSE(args.ok());
}

TEST(CliArgs, UnknownFlagsAreDetected) {
  const char* argv[] = {"prog", "--workers=2", "--sanitize", "--wrokers=4"};
  hc::CliArgs args(4, const_cast<char**>(argv));
  const auto unknown = args.unknown_flags({"workers", "sanitize", "datasets"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "wrokers");
  EXPECT_TRUE(args.unknown_flags({"workers", "sanitize", "wrokers"}).empty());
}

TEST(CampaignFlags, ParsesSharedFlagsWithDefaults) {
  const char* argv[] = {"prog", "--workers=3", "--sanitize"};
  hc::CliArgs args(3, const_cast<char**>(argv));
  const auto f = hc::parse_campaign_flags(args, /*default_datasets=*/52);
  EXPECT_EQ(f.workers, 3);
  EXPECT_TRUE(f.sanitize);
  EXPECT_EQ(f.datasets, 52);
  EXPECT_EQ(f.sanitize_cap, 64) << "default: SharedShadow::kMaxReportsPerBlock";
  EXPECT_TRUE(args.ok());
}

TEST(CampaignFlags, ParsesSanitizeCap) {
  const char* argv[] = {"prog", "--sanitize-cap=8"};
  hc::CliArgs args(2, const_cast<char**>(argv));
  const auto f = hc::parse_campaign_flags(args);
  EXPECT_EQ(f.sanitize_cap, 8);
  EXPECT_TRUE(args.ok());
}

TEST(CampaignFlags, RejectsNonPositiveSanitizeCap) {
  const char* argv[] = {"prog", "--sanitize-cap=0"};
  hc::CliArgs args(2, const_cast<char**>(argv));
  const auto f = hc::parse_campaign_flags(args);
  EXPECT_EQ(f.sanitize_cap, 64) << "out-of-range cap falls back to the default";
  ASSERT_EQ(args.errors().size(), 1u);
  EXPECT_NE(args.errors()[0].find("--sanitize-cap"), std::string::npos);
}

TEST(CampaignFlags, ParsesEveryEngineName) {
  const struct {
    const char* text;
    hc::EngineKind kind;
  } cases[] = {{"reference", hc::EngineKind::Reference},
               {"threaded", hc::EngineKind::Threaded}};
  for (const auto& c : cases) {
    const std::string flag = std::string("--engine=") + c.text;
    const char* argv[] = {"prog", flag.c_str()};
    hc::CliArgs args(2, const_cast<char**>(argv));
    const auto f = hc::parse_campaign_flags(args);
    EXPECT_EQ(f.engine, c.kind) << c.text;
    EXPECT_TRUE(args.ok()) << c.text;
    EXPECT_STREQ(hc::engine_kind_name(f.engine), c.text);
  }
}

TEST(CampaignFlags, DefaultsToThreadedEngine) {
  const char* argv[] = {"prog"};
  hc::CliArgs args(1, const_cast<char**>(argv));
  EXPECT_EQ(hc::parse_campaign_flags(args).engine, hc::EngineKind::Threaded);
}

TEST(CampaignFlags, RejectsUnknownEngine) {
  // "fast" and "sanitizer" named engines that no longer exist (sanitizing
  // is --sanitize on either engine); they fail like any typo.
  for (const std::string name : {"warpspeed", "fast", "sanitizer"}) {
    const std::string flag = "--engine=" + name;
    const char* argv[] = {"prog", flag.c_str()};
    hc::CliArgs args(2, const_cast<char**>(argv));
    const auto f = hc::parse_campaign_flags(args);
    EXPECT_EQ(f.engine, hc::EngineKind::Threaded) << "bad value falls back to the default";
    ASSERT_EQ(args.errors().size(), 1u);
    EXPECT_NE(args.errors()[0].find("--engine"), std::string::npos);
    EXPECT_NE(args.errors()[0].find(name), std::string::npos);
  }
}

TEST(CampaignFlags, RejectsOutOfRangeValues) {
  const char* argv[] = {"prog", "--workers=-2", "--datasets=0"};
  hc::CliArgs args(3, const_cast<char**>(argv));
  const auto f = hc::parse_campaign_flags(args, /*default_datasets=*/10);
  EXPECT_EQ(f.workers, 0) << "negative workers fall back to hardware concurrency";
  EXPECT_EQ(f.datasets, 10) << "datasets < 1 falls back to the tool default";
  EXPECT_FALSE(f.sanitize);
  ASSERT_EQ(args.errors().size(), 2u);
  EXPECT_NE(args.errors()[0].find("--workers"), std::string::npos);
  EXPECT_NE(args.errors()[1].find("--datasets"), std::string::npos);
}

TEST(CampaignFlags, MalformedWorkerCountSurfacesTheParseError) {
  const char* argv[] = {"prog", "--workers=two"};
  hc::CliArgs args(2, const_cast<char**>(argv));
  const auto f = hc::parse_campaign_flags(args);
  EXPECT_EQ(f.workers, 0);
  EXPECT_FALSE(args.ok());
}

// --- table (smoke) ---

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(hc::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(hc::Table::pct_cell(12.345, 1), "12.3%");
}

TEST(ParseShards, AcceptsCountAndCountSlashIndex) {
  int k = -1, i = -1;
  EXPECT_TRUE(hc::parse_shards("4", k, i));
  EXPECT_EQ(k, 4);
  EXPECT_EQ(i, 0);
  EXPECT_TRUE(hc::parse_shards("4/3", k, i));
  EXPECT_EQ(k, 4);
  EXPECT_EQ(i, 3);
  EXPECT_TRUE(hc::parse_shards("1/0", k, i));
  EXPECT_EQ(k, 1);
  EXPECT_EQ(i, 0);
}

TEST(ParseShards, RejectsMalformedAndOutOfRange) {
  int k = 7, i = 5;
  for (const char* bad : {"", "/", "0", "0/0", "4/4", "4/5", "4/-1", "-2/0", "a/b", "4/",
                          "/2", "4/2/1", "4x", " 4/1", "4/ 1"}) {
    EXPECT_FALSE(hc::parse_shards(bad, k, i)) << "'" << bad << "' must be rejected";
    EXPECT_EQ(k, 7) << "'" << bad << "' must leave outputs untouched";
    EXPECT_EQ(i, 5) << "'" << bad << "' must leave outputs untouched";
  }
}

TEST(CampaignFlags, ParsesShardingAndCheckpointKnobs) {
  const char* argv[] = {"prog",          "--shards=4/2",         "--checkpoint=c.ckpt",
                        "--checkpoint-every=500", "--resultlog=r.log"};
  hc::CliArgs args(5, const_cast<char**>(argv));
  const auto f = hc::parse_campaign_flags(args);
  EXPECT_TRUE(args.ok());
  EXPECT_EQ(f.shards, 4);
  EXPECT_EQ(f.shard_index, 2);
  EXPECT_EQ(f.checkpoint, "c.ckpt");
  EXPECT_EQ(f.checkpoint_every, 500u);
  EXPECT_EQ(f.resultlog, "r.log");
  EXPECT_TRUE(f.resume.empty());
}

TEST(CampaignFlags, ResumeImpliesCheckpointPath) {
  const char* argv[] = {"prog", "--resume=old.ckpt", "--checkpoint-every=100"};
  hc::CliArgs args(3, const_cast<char**>(argv));
  const auto f = hc::parse_campaign_flags(args);
  EXPECT_TRUE(args.ok());
  EXPECT_EQ(f.resume, "old.ckpt");
  EXPECT_EQ(f.checkpoint, "old.ckpt") << "--resume doubles as the checkpoint path";

  const char* argv2[] = {"prog", "--resume=old.ckpt", "--checkpoint=new.ckpt"};
  hc::CliArgs args2(3, const_cast<char**>(argv2));
  const auto f2 = hc::parse_campaign_flags(args2);
  EXPECT_EQ(f2.checkpoint, "new.ckpt") << "--checkpoint overrides the resume path";
}

TEST(CampaignFlags, CheckpointEveryWithoutPathIsAnError) {
  const char* argv[] = {"prog", "--checkpoint-every=100"};
  hc::CliArgs args(2, const_cast<char**>(argv));
  (void)hc::parse_campaign_flags(args);
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.errors()[0].find("--checkpoint-every"), std::string::npos);
}

TEST(CampaignFlags, MalformedShardsRecordsError) {
  const char* argv[] = {"prog", "--shards=3/9"};
  hc::CliArgs args(2, const_cast<char**>(argv));
  const auto f = hc::parse_campaign_flags(args);
  EXPECT_EQ(f.shards, 1) << "malformed --shards falls back to the default";
  EXPECT_EQ(f.shard_index, 0);
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.errors()[0].find("--shards"), std::string::npos);
}

TEST(ParseBudget, AcceptsPercentAndAbsoluteCycles) {
  double pct = -7.0;
  std::uint64_t cycles = 99;
  EXPECT_TRUE(hc::parse_budget("10%", pct, cycles));
  EXPECT_DOUBLE_EQ(pct, 10.0);
  EXPECT_EQ(cycles, 0u);
  EXPECT_TRUE(hc::parse_budget("0%", pct, cycles));
  EXPECT_DOUBLE_EQ(pct, 0.0);
  EXPECT_TRUE(hc::parse_budget("100%", pct, cycles));
  EXPECT_DOUBLE_EQ(pct, 100.0);
  EXPECT_TRUE(hc::parse_budget("2.5%", pct, cycles));
  EXPECT_DOUBLE_EQ(pct, 2.5);
  EXPECT_TRUE(hc::parse_budget("250000", pct, cycles));
  EXPECT_EQ(cycles, 250000u);
  EXPECT_DOUBLE_EQ(pct, -1.0) << "absolute budgets clear the percent form";
  EXPECT_TRUE(hc::parse_budget("0", pct, cycles));
  EXPECT_EQ(cycles, 0u);
}

TEST(ParseBudget, RejectsMalformedNegativeAndOverOneHundredPercent) {
  for (const char* bad : {"", "%", "-5%", "+10%", "100.1%", "101%", "abc", "5%%", "5 %",
                          "ten%", "-3", "+7", "4.5", "0x10", "12px"}) {
    double pct = 42.0;
    std::uint64_t cycles = 77;
    EXPECT_FALSE(hc::parse_budget(bad, pct, cycles)) << "'" << bad << "' must be rejected";
    EXPECT_DOUBLE_EQ(pct, 42.0) << "'" << bad << "' must leave outputs untouched";
    EXPECT_EQ(cycles, 77u) << "'" << bad << "' must leave outputs untouched";
  }
}

TEST(CampaignFlags, ParsesBudgetAndPlan) {
  const char* argv[] = {"prog", "--budget=20%", "--plan=tuned.plan"};
  hc::CliArgs args(3, const_cast<char**>(argv));
  const auto f = hc::parse_campaign_flags(args);
  EXPECT_TRUE(args.ok());
  EXPECT_DOUBLE_EQ(f.budget_pct, 20.0);
  EXPECT_EQ(f.budget_cycles, 0u);
  EXPECT_EQ(f.plan, "tuned.plan");

  const char* argv2[] = {"prog", "--budget=5000"};
  hc::CliArgs args2(2, const_cast<char**>(argv2));
  const auto f2 = hc::parse_campaign_flags(args2);
  EXPECT_TRUE(args2.ok());
  EXPECT_DOUBLE_EQ(f2.budget_pct, -1.0);
  EXPECT_EQ(f2.budget_cycles, 5000u);
}

TEST(CampaignFlags, BudgetDefaultsOffAndMalformedBudgetRecordsError) {
  const char* argv[] = {"prog"};
  hc::CliArgs args(1, const_cast<char**>(argv));
  const auto f = hc::parse_campaign_flags(args);
  EXPECT_DOUBLE_EQ(f.budget_pct, -1.0) << "no --budget means no budget";
  EXPECT_EQ(f.budget_cycles, 0u);
  EXPECT_TRUE(f.plan.empty());

  const char* argv2[] = {"prog", "--budget=110%"};
  hc::CliArgs args2(2, const_cast<char**>(argv2));
  (void)hc::parse_campaign_flags(args2);
  ASSERT_FALSE(args2.ok());
  EXPECT_NE(args2.errors()[0].find("--budget"), std::string::npos);
  EXPECT_NE(args2.errors()[0].find("110%"), std::string::npos);
}

TEST(Log2Histogram, BucketsByBitWidth) {
  hc::Log2Histogram h;
  h.add(0);     // bucket 0
  h.add(1);     // bucket 1: [1, 2)
  h.add(2);     // bucket 2: [2, 4)
  h.add(3);     // bucket 2
  h.add(1024);  // bucket 11
  h.add(~0ull); // bucket 64
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 2u);
  EXPECT_EQ(h.count(11), 1u);
  EXPECT_EQ(h.count(64), 1u);
  EXPECT_EQ(h.used_buckets(), hc::Log2Histogram::kBuckets);
}

TEST(Log2Histogram, MergeIsCommutative) {
  hc::Log2Histogram a, b;
  for (std::uint64_t v : {0ull, 5ull, 100ull, 1ull << 40}) a.add(v);
  for (std::uint64_t v : {7ull, 7ull, 255ull}) b.add(v);
  hc::Log2Histogram ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_TRUE(ab == ba);
  EXPECT_EQ(ab.total(), 7u);
}

TEST(Log2Histogram, RawCountsRestoreRoundTrip) {
  hc::Log2Histogram h;
  for (std::uint64_t v = 0; v < 1000; ++v) h.add(v * v);
  hc::Log2Histogram back;
  back.restore(h.raw_counts());
  EXPECT_TRUE(back == h);
  EXPECT_EQ(back.total(), h.total());
}
