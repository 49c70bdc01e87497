// Unit tests for src/util: Status/Result, Rng, AliasTable, ParallelFor.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/alias_table.h"
#include "util/cache_dir.h"
#include "util/parallel.h"
#include "util/percentiles.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace prsim {
namespace {

// --------------------------------------------------------------------------
// Status / Result
// --------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad n");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad n");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad n");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, CopyShareState) {
  Status a = Status::IOError("disk gone");
  Status b = a;
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.message(), "disk gone");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

Result<int> HelperReturningError() { return Status::OutOfRange("boom"); }

Status UseAssignOrReturn(int* out) {
  PRSIM_ASSIGN_OR_RETURN(int v, HelperReturningError());
  *out = v;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = -1;
  Status st = UseAssignOrReturn(&out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(out, -1);
}

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(10);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(RngTest, NextBoundedStaysInBound) {
  Rng rng(11);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(12);
  const uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(bound)];
  for (uint64_t b = 0; b < bound; ++b) {
    EXPECT_NEAR(counts[b], n / bound, 5 * std::sqrt(n / bound));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  const double p = 0.3;
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(p);
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(77);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (parent.Next() == child.Next());
  EXPECT_LT(equal, 2);
}

// --------------------------------------------------------------------------
// AliasTable
// --------------------------------------------------------------------------

TEST(AliasTableTest, UniformWeights) {
  AliasTable table(std::vector<double>{1, 1, 1, 1});
  Rng rng(5);
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[table.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, n / 4, 5 * std::sqrt(n / 4.0));
}

TEST(AliasTableTest, SkewedWeightsMatchProportions) {
  const std::vector<double> weights{8, 4, 2, 1, 1};
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  AliasTable table(weights);
  Rng rng(6);
  std::vector<int> counts(weights.size(), 0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) ++counts[table.Sample(rng)];
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = n * weights[i] / total;
    EXPECT_NEAR(counts[i], expected, 6 * std::sqrt(expected)) << i;
  }
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  AliasTable table(std::vector<double>{1, 0, 1});
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(table.Sample(rng), 1u);
}

TEST(AliasTableTest, SingleEntry) {
  AliasTable table(std::vector<double>{3.5});
  Rng rng(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.Sample(rng), 0u);
}

// --------------------------------------------------------------------------
// ParallelFor
// --------------------------------------------------------------------------

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, hits.size(), [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, [&](size_t) { called = true; });
  ParallelFor(7, 3, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> hits(64, 0);
  ParallelFor(0, hits.size(), [&](size_t i) { hits[i]++; }, /*threads=*/1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, RespectsBeginOffset) {
  std::atomic<size_t> sum{0};
  ParallelFor(10, 20, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 145u);  // 10 + 11 + ... + 19
}

// Regression: an exception escaping a worker used to hit the std::thread
// boundary and call std::terminate; it must be rethrown on the caller.
TEST(ParallelForTest, WorkerExceptionRethrownOnCaller) {
  EXPECT_THROW(
      ParallelFor(
          0, 1000,
          [](size_t i) {
            if (i == 637) throw std::runtime_error("item 637 failed");
          },
          /*threads=*/4),
      std::runtime_error);
}

TEST(ParallelForTest, WorkerExceptionCarriesMessage) {
  try {
    ParallelFor(
        0, 100, [](size_t i) { throw std::invalid_argument("boom " +
                                                           std::to_string(i)); },
        /*threads=*/4);
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u) << e.what();
  }
}

TEST(ParallelForTest, SerialPathPropagatesException) {
  EXPECT_THROW(ParallelFor(
                   0, 10, [](size_t) { throw std::runtime_error("serial"); },
                   /*threads=*/1),
               std::runtime_error);
}

TEST(ParallelForTest, OtherItemsStillRunAfterException) {
  std::vector<std::atomic<int>> hits(256);
  EXPECT_THROW(ParallelFor(
                   0, hits.size(),
                   [&](size_t i) {
                     hits[i]++;
                     if (i % 64 == 0) throw std::runtime_error("sparse");
                   },
                   /*threads=*/4),
               std::runtime_error);
  // Every worker's first item before its failure point still executed; the
  // items of a worker after its throw are skipped, but the loop never
  // deadlocks or terminates the process.
  EXPECT_GE(hits[0].load(), 1);
}

// --------------------------------------------------------------------------
// Percentiles
// --------------------------------------------------------------------------

TEST(PercentilesTest, SortedQuantileNearestRank) {
  const std::vector<double> sorted{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(SortedQuantile(sorted, 0.0), 1.0);
  EXPECT_EQ(SortedQuantile(sorted, 0.5), 6.0);
  EXPECT_EQ(SortedQuantile(sorted, 0.99), 10.0);
  EXPECT_EQ(SortedQuantile(sorted, 1.0), 10.0);
  EXPECT_EQ(SortedQuantile({}, 0.5), 0.0);
}

/// Log-uniform latencies between 1 us and 10 s: several octaves, so every
/// sub-bucket width is exercised.
std::vector<double> LogUniformLatencies(size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> exponent(-6.0, 1.0);
  std::vector<double> samples(count);
  for (double& sample : samples) sample = std::pow(10.0, exponent(rng));
  return samples;
}

TEST(PercentilesTest, HistogramQuantilesStayWithinOneSubBucketOfExact) {
  const std::vector<double> samples = LogUniformLatencies(20000, 5);
  LatencyHistogram histogram;
  for (double sample : samples) histogram.Add(sample);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(histogram.count(), samples.size());
  for (int i = 0; i <= 1000; ++i) {
    const double q = i / 1000.0;
    const double exact = SortedQuantile(sorted, q);
    const double got = histogram.Quantile(q);
    EXPECT_GE(got, exact) << "q " << q;
    EXPECT_LE(got, exact * (1.0 + 1.0 / 32.0)) << "q " << q;
  }
  EXPECT_EQ(histogram.Quantile(1.0), sorted.back())
      << "the top quantile is capped at the largest sample";
  EXPECT_EQ(LatencyHistogram().Quantile(0.5), 0.0);
}

TEST(PercentilesTest, HistogramQuantilesAreMonotone) {
  LatencyHistogram histogram;
  for (int i = 100; i >= 1; --i) histogram.Add(i * 1e-3);
  for (double sample : LogUniformLatencies(5000, 9)) histogram.Add(sample);
  const double p50 = histogram.Quantile(0.50);
  const double p95 = histogram.Quantile(0.95);
  const double p99 = histogram.Quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  double previous = 0.0;
  for (int i = 0; i <= 1000; ++i) {
    const double quantile = histogram.Quantile(i / 1000.0);
    EXPECT_GE(quantile, previous) << "q " << i / 1000.0;
    previous = quantile;
  }
}

TEST(PercentilesTest, HistogramMergeOfUnevenPartsEqualsTheUnion) {
  // A busy shard (100k requests, 1-2 ms) and an idle one (100 requests at
  // 10 ms). Merging must weigh every request equally: the result is the
  // histogram of the union, and its p99 is the busy shard's tail, not the
  // idle shard's 10 ms.
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> busy_latency(1e-3, 2e-3);
  LatencyHistogram busy;
  LatencyHistogram idle;
  LatencyHistogram both;
  std::vector<double> all;
  for (int i = 0; i < 100000; ++i) {
    const double sample = busy_latency(rng);
    busy.Add(sample);
    both.Add(sample);
    all.push_back(sample);
  }
  for (int i = 0; i < 100; ++i) {
    idle.Add(10e-3);
    both.Add(10e-3);
    all.push_back(10e-3);
  }
  LatencyHistogram merged;
  merged.Merge(busy);
  merged.Merge(idle);
  EXPECT_EQ(merged.count(), both.count());
  for (int i = 0; i <= 1000; ++i) {
    const double q = i / 1000.0;
    EXPECT_EQ(merged.Quantile(q), both.Quantile(q)) << "q " << q;
  }
  std::sort(all.begin(), all.end());
  for (const double q : {0.50, 0.95, 0.99}) {
    const double exact = SortedQuantile(all, q);
    EXPECT_GE(merged.Quantile(q), exact) << "q " << q;
    EXPECT_LE(merged.Quantile(q), exact * (1.0 + 1.0 / 32.0)) << "q " << q;
  }
  EXPECT_LT(merged.Quantile(0.99), 2.1e-3);
}

// --------------------------------------------------------------------------
// Cache directory LRU eviction
// --------------------------------------------------------------------------

class CacheDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("prsim_cache_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `bytes` bytes and backdates the mtime by `age_minutes`.
  void WriteFile(const std::string& name, size_t bytes, int age_minutes) {
    const auto path = dir_ / name;
    std::ofstream out(path, std::ios::binary);
    out << std::string(bytes, 'x');
    out.close();
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now() -
                  std::chrono::minutes(age_minutes));
  }

  bool Exists(const std::string& name) {
    return std::filesystem::exists(dir_ / name);
  }

  std::filesystem::path dir_;
};

TEST_F(CacheDirTest, NoEvictionUnderTheCap) {
  WriteFile("a.idx", 100, 10);
  WriteFile("b.idx", 100, 5);
  const CacheEvictionStats stats = EvictLruFiles(dir_.string(), 1000);
  EXPECT_EQ(stats.files_removed, 0u);
  EXPECT_EQ(stats.bytes_remaining, 200u);
  EXPECT_TRUE(Exists("a.idx"));
  EXPECT_TRUE(Exists("b.idx"));
}

TEST_F(CacheDirTest, EvictsOldestMtimeFirst) {
  WriteFile("old.idx", 400, 30);
  WriteFile("mid.idx", 400, 20);
  WriteFile("new.idx", 400, 1);
  const CacheEvictionStats stats = EvictLruFiles(dir_.string(), 900);
  EXPECT_EQ(stats.files_removed, 1u);
  EXPECT_EQ(stats.bytes_removed, 400u);
  EXPECT_EQ(stats.bytes_remaining, 800u);
  EXPECT_FALSE(Exists("old.idx"));
  EXPECT_TRUE(Exists("mid.idx"));
  EXPECT_TRUE(Exists("new.idx"));
}

TEST_F(CacheDirTest, TouchProtectsRecentlyUsedFiles) {
  WriteFile("reused.idx", 400, 30);
  WriteFile("stale.idx", 400, 20);
  TouchFile((dir_ / "reused.idx").string());  // reuse bumps it to newest
  const CacheEvictionStats stats = EvictLruFiles(dir_.string(), 500);
  EXPECT_EQ(stats.files_removed, 1u);
  EXPECT_TRUE(Exists("reused.idx"));
  EXPECT_FALSE(Exists("stale.idx"));
}

TEST_F(CacheDirTest, EvictsEverythingWithZeroCap) {
  WriteFile("a.idx", 10, 2);
  WriteFile("b.idx", 10, 1);
  const CacheEvictionStats stats = EvictLruFiles(dir_.string(), 0);
  EXPECT_EQ(stats.files_removed, 2u);
  EXPECT_EQ(stats.bytes_remaining, 0u);
}

TEST_F(CacheDirTest, MissingDirectoryIsANoop) {
  const CacheEvictionStats stats =
      EvictLruFiles((dir_ / "nope").string(), 100);
  EXPECT_EQ(stats.files_removed, 0u);
  EXPECT_EQ(stats.bytes_remaining, 0u);
}

TEST_F(CacheDirTest, TouchReordersTheWholeEvictionQueue) {
  // Touching the oldest file demotes what was second-oldest to the front
  // of the eviction queue: recency, not creation order, decides.
  WriteFile("oldest.idx", 400, 40);
  WriteFile("middle.idx", 400, 30);
  WriteFile("newest.idx", 400, 1);
  TouchFile((dir_ / "oldest.idx").string());
  CacheEvictionStats stats = EvictLruFiles(dir_.string(), 900);
  EXPECT_EQ(stats.files_removed, 1u);
  EXPECT_FALSE(Exists("middle.idx"));
  EXPECT_TRUE(Exists("oldest.idx"));
  EXPECT_TRUE(Exists("newest.idx"));
  // A second trim round continues in the same recency order.
  stats = EvictLruFiles(dir_.string(), 500);
  EXPECT_EQ(stats.files_removed, 1u);
  EXPECT_FALSE(Exists("newest.idx"));
  EXPECT_TRUE(Exists("oldest.idx"));
}

TEST_F(CacheDirTest, CapSmallerThanOneEntryStillConverges) {
  // A nonzero cap below the smallest file must drain the directory rather
  // than loop or stop early: no subset of files fits the budget.
  WriteFile("a.idx", 300, 3);
  WriteFile("b.idx", 300, 2);
  WriteFile("c.idx", 300, 1);
  const CacheEvictionStats stats = EvictLruFiles(dir_.string(), 100);
  EXPECT_EQ(stats.files_removed, 3u);
  EXPECT_EQ(stats.bytes_removed, 900u);
  EXPECT_EQ(stats.bytes_remaining, 0u);
}

TEST_F(CacheDirTest, EmptyDirectoryEvictionIsANoop) {
  const CacheEvictionStats stats = EvictLruFiles(dir_.string(), 0);
  EXPECT_EQ(stats.files_removed, 0u);
  EXPECT_EQ(stats.bytes_removed, 0u);
  EXPECT_EQ(stats.bytes_remaining, 0u);
  EXPECT_TRUE(std::filesystem::exists(dir_));
}

// --------------------------------------------------------------------------
// Timers
// --------------------------------------------------------------------------

TEST(TimerTest, MeasuresNonNegativeMonotonicTime) {
  WallTimer t;
  const double a = t.Seconds();
  const double b = t.Seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(TimerTest, AccumulatingTimerCountsLaps) {
  AccumulatingTimer t;
  t.Start();
  t.Stop();
  t.Start();
  t.Stop();
  EXPECT_EQ(t.laps(), 2u);
  EXPECT_GE(t.TotalSeconds(), 0.0);
  EXPECT_GE(t.MeanSeconds(), 0.0);
}

}  // namespace
}  // namespace prsim
