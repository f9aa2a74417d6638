#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace car::util {
namespace {

TEST(Rng, IsDeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto x = a();
    EXPECT_EQ(x, b());
    (void)c;
  }
  Rng d(43);
  EXPECT_NE(Rng(42)(), d());
}

TEST(Rng, NextBelowStaysInRangeAndCoversValues) {
  Rng rng(1);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextInIsInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.next_in(2, 1), std::invalid_argument);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleIndicesAreDistinctAndInRange) {
  Rng rng(4);
  const auto sample = rng.sample_indices(100, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (auto i : sample) EXPECT_LT(i, 100u);
  EXPECT_THROW(rng.sample_indices(3, 4), std::invalid_argument);
}

TEST(Rng, FillBytesCoversOddSizes) {
  Rng rng(5);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 31u}) {
    std::vector<std::uint8_t> buf(n, 0xAA);
    rng.fill_bytes(buf);
    // Not a randomness test — just exercise the tail path.
    EXPECT_EQ(buf.size(), n);
  }
}

// Known answers for fill_bytes: the FNV-1a-64 hash of the filled bytes
// and the draw that follows, per (seed, length).  The draw pins how many
// engine outputs a fill consumes (one per started 8-byte word), so any
// faster fill must keep both the byte stream and the stream position.
struct FillBytesAnswer {
  std::uint64_t seed;
  std::size_t length;
  std::uint64_t fnv1a64;
  std::uint64_t next_draw;
};

constexpr FillBytesAnswer kFillBytesAnswers[] = {
    {0ULL, 0, 0xcbf29ce484222325ULL, 0xe220a8397b1dcdafULL},
    {0ULL, 1, 0xaf64224c8602637eULL, 0x6e789e6aa1b965f4ULL},
    {0ULL, 7, 0x433bb84cd79239dcULL, 0x6e789e6aa1b965f4ULL},
    {0ULL, 8, 0xd0b368924d77445aULL, 0x6e789e6aa1b965f4ULL},
    {0ULL, 9, 0x181f5e99a1a9b3aaULL, 0x06c45d188009454fULL},
    {0ULL, 31, 0xa0961e711a001a5dULL, 0x1b39896a51a8749bULL},
    {0ULL, 4096, 0xb2eb6d1cbe2689f9ULL, 0x83fcc71fa8833aa3ULL},
    {0x1ULL, 0, 0xcbf29ce484222325ULL, 0x910a2dec89025cc1ULL},
    {0x1ULL, 1, 0xaf647c4c8602fc6cULL, 0xbeeb8da1658eec67ULL},
    {0x1ULL, 7, 0xb50d5525f22a8c90ULL, 0xbeeb8da1658eec67ULL},
    {0x1ULL, 8, 0xd033b07a7e4be5b3ULL, 0xbeeb8da1658eec67ULL},
    {0x1ULL, 9, 0x13bab4249af7873cULL, 0xf893a2eefb32555eULL},
    {0x1ULL, 31, 0x827b5ef70a0690b0ULL, 0x71bb54d8d101b5b9ULL},
    {0x1ULL, 4096, 0xd09effa23070fc72ULL, 0x0703862611b8b8b3ULL},
    {0x2aULL, 0, 0xcbf29ce484222325ULL, 0xbdd732262feb6e95ULL},
    {0x2aULL, 1, 0xaf64484c8602a410ULL, 0x28efe333b266f103ULL},
    {0x2aULL, 7, 0xae717f17026ee6b1ULL, 0x28efe333b266f103ULL},
    {0x2aULL, 8, 0xd9c100192270e664ULL, 0x28efe333b266f103ULL},
    {0x2aULL, 9, 0x73d991b585d78105ULL, 0x47526757130f9f52ULL},
    {0x2aULL, 31, 0xd44a1a9b91cf3234ULL, 0x09bc585a244823f2ULL},
    {0x2aULL, 4096, 0x78b1697b52f2efbbULL, 0xca695c3329df9a80ULL},
    {0x9e3779b97f4a7c15ULL, 0, 0xcbf29ce484222325ULL, 0x6e789e6aa1b965f4ULL},
    {0x9e3779b97f4a7c15ULL, 1, 0xaf64694c8602dc23ULL, 0x06c45d188009454fULL},
    {0x9e3779b97f4a7c15ULL, 7, 0x64404658d39225b8ULL, 0x06c45d188009454fULL},
    {0x9e3779b97f4a7c15ULL, 8, 0xeb5d5eef81564aa2ULL, 0x06c45d188009454fULL},
    {0x9e3779b97f4a7c15ULL, 9, 0x45f33df8c5a150b7ULL, 0xf88bb8a8724c81ecULL},
    {0x9e3779b97f4a7c15ULL, 31, 0x6d3d7e6c44385988ULL, 0x53cb9f0c747ea2eaULL},
    {0x9e3779b97f4a7c15ULL, 4096, 0xeb89e4523bac5b4bULL, 0x327eee6ec9598964ULL},
};

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(Rng, FillBytesMatchesKnownAnswers) {
  for (const FillBytesAnswer& answer : kFillBytesAnswers) {
    Rng rng(answer.seed);
    std::vector<std::uint8_t> buf(answer.length, 0xAA);
    rng.fill_bytes(buf);
    EXPECT_EQ(fnv1a64(buf), answer.fnv1a64)
        << "seed " << answer.seed << " length " << answer.length;
    EXPECT_EQ(rng(), answer.next_draw)
        << "seed " << answer.seed << " length " << answer.length;
  }
  // Bytes are the little-endian serialisation of successive draws, on
  // every host: one whole word and the low byte of the next.
  Rng rng(1);
  std::vector<std::uint8_t> buf(9);
  rng.fill_bytes(buf);
  const std::vector<std::uint8_t> expected = {0xc1, 0x5c, 0x02, 0x89, 0xec,
                                              0x2d, 0x0a, 0x91, 0x67};
  EXPECT_EQ(buf, expected);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic example set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(7);
  RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.next_double() * 10;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  RunningStats other;
  other.add(3.0);
  s.merge(other);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
  const std::vector<double> empty;
  EXPECT_THROW(percentile(empty, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile(v, 1.5), std::invalid_argument);
  EXPECT_DOUBLE_EQ(mean_of(v), 2.5);
  EXPECT_THROW(mean_of(empty), std::invalid_argument);
}

TEST(TextTable, RendersAlignedAndCsv) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "name,value\nalpha,1\nb,22\n");
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, CsvEscapesSpecialCharacters) {
  TextTable t({"a"});
  t.add_row({"x,y"});
  t.add_row({"quote\"inside"});
  EXPECT_EQ(t.to_csv(), "a\n\"x,y\"\n\"quote\"\"inside\"\n");
}

TEST(BackoffSchedule, GrowsGeometricallyUpToCap) {
  const BackoffSchedule schedule(0.01, 2.0, 0.25, 0.0);
  EXPECT_DOUBLE_EQ(schedule.raw_delay(1), 0.01);
  EXPECT_DOUBLE_EQ(schedule.raw_delay(2), 0.02);
  EXPECT_DOUBLE_EQ(schedule.raw_delay(3), 0.04);
  EXPECT_DOUBLE_EQ(schedule.raw_delay(5), 0.16);
  EXPECT_DOUBLE_EQ(schedule.raw_delay(6), 0.25);   // capped
  EXPECT_DOUBLE_EQ(schedule.raw_delay(60), 0.25);  // stays capped, no inf
  EXPECT_DOUBLE_EQ(schedule.raw_delay(100000), 0.25);
}

TEST(BackoffSchedule, ZeroJitterEqualsRawDelay) {
  const BackoffSchedule schedule(0.05, 3.0, 1.0, 0.0);
  Rng rng(7);
  for (std::size_t attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_DOUBLE_EQ(schedule.delay(attempt, rng),
                     schedule.raw_delay(attempt));
  }
}

TEST(BackoffSchedule, JitterStaysWithinBandAndIsSeedDeterministic) {
  const BackoffSchedule schedule(0.1, 2.0, 5.0, 0.25);
  Rng a(99), b(99);
  for (std::size_t attempt = 1; attempt <= 12; ++attempt) {
    const double raw = schedule.raw_delay(attempt);
    const double jittered = schedule.delay(attempt, a);
    EXPECT_GE(jittered, raw * 0.75);
    EXPECT_LE(jittered, raw * 1.25);
    EXPECT_DOUBLE_EQ(jittered, schedule.delay(attempt, b));
  }
}

TEST(BackoffSchedule, RejectsMalformedParametersAndAttemptZero) {
  EXPECT_THROW(BackoffSchedule(0.0, 2.0, 1.0, 0.1), CheckError);
  EXPECT_THROW(BackoffSchedule(0.1, 0.5, 1.0, 0.1), CheckError);
  EXPECT_THROW(BackoffSchedule(0.5, 2.0, 0.1, 0.1), CheckError);
  EXPECT_THROW(BackoffSchedule(0.1, 2.0, 1.0, 1.0), CheckError);
  EXPECT_THROW(BackoffSchedule(0.1, 2.0, 1.0, -0.1), CheckError);
  const BackoffSchedule schedule(0.1, 2.0, 1.0, 0.0);
  EXPECT_THROW((void)schedule.raw_delay(0), CheckError);
}

TEST(Bytes, FormatsHumanReadableSizes) {
  using namespace literals;
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4_MiB), "4.00 MiB");
  EXPECT_EQ(format_bytes(1536_MiB), "1.50 GiB");
  EXPECT_EQ(format_bytes(2_KiB), "2.00 KiB");
  EXPECT_EQ(format_rate(125e6), "125.0 MB/s");
  EXPECT_EQ(format_rate(2.5e9), "2.50 GB/s");
  EXPECT_EQ(format_rate(500.0), "0.5 KB/s");
}

}  // namespace
}  // namespace car::util
