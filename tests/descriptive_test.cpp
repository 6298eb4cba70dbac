#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace cloudlens::stats {
namespace {

TEST(DescriptiveTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{7}), 7.0);
}

TEST(DescriptiveTest, VarianceSampleDenominator) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  // Population variance is 4; sample variance is 32/7.
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(DescriptiveTest, VarianceDegenerateCases) {
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{3}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{3, 3, 3}), 0.0);
}

TEST(DescriptiveTest, CoefficientOfVariation) {
  const std::vector<double> xs = {10, 10, 10};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(xs), 0.0);
  const std::vector<double> ys = {0, 0, 0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(ys), 0.0);  // zero mean -> 0
  const std::vector<double> zs = {1, 3};
  EXPECT_NEAR(coefficient_of_variation(zs), std::sqrt(2.0) / 2.0, 1e-12);
}

TEST(DescriptiveTest, BurstySeriesHasHigherCvThanSmooth) {
  // The Fig. 3(d) discriminator: bursts inflate CV.
  std::vector<double> smooth, bursty;
  for (int i = 0; i < 168; ++i) {
    smooth.push_back(10.0 + (i % 24));
    bursty.push_back(i % 60 == 0 ? 400.0 : 5.0);
  }
  EXPECT_GT(coefficient_of_variation(bursty),
            3.0 * coefficient_of_variation(smooth));
}

TEST(QuantileTest, Median) {
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{1, 2, 3, 4}, 0.5), 2.5);
}

TEST(QuantileTest, Extremes) {
  const std::vector<double> xs = {5, 1, 9};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 9.0);
}

TEST(QuantileTest, LinearInterpolation) {
  const std::vector<double> xs = {0, 10};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.75), 7.5);
}

TEST(QuantileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{4}, 0.3), 4.0);
}

TEST(QuantileTest, EmptyThrows) {
  EXPECT_THROW(quantile(std::vector<double>{}, 0.5), cloudlens::CheckError);
}

TEST(QuantileTest, SortedVariantAgrees) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7};
  for (double p : {0.0, 0.1, 0.33, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile(sorted, p), quantile_sorted(sorted, p));
  }
}

TEST(QuantileTest, RejectsPOutsideUnitIntervalAtEverySize) {
  // The p check runs ahead of the one-element shortcut and of the cast of
  // p·(n − 1) to an index (UB for a negative or NaN value).
  for (const std::size_t n : {1u, 2u, 100u}) {
    std::vector<double> xs(n);
    std::iota(xs.begin(), xs.end(), 0.0);
    for (const double p :
         {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
      EXPECT_THROW(quantile(xs, p), cloudlens::CheckError)
          << "n=" << n << " p=" << p;
      EXPECT_THROW(quantile_sorted(xs, p), cloudlens::CheckError)
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(QuantileTest, SelectionBitEqualToSortedCopy) {
  // quantile selects the two order statistics it interpolates; it must
  // return the bits of quantile_sorted over a sorted copy. One input family
  // draws from eight values, so most order statistics are ties.
  cloudlens::Rng rng(11);
  std::vector<std::size_t> sizes(65);
  std::iota(sizes.begin(), sizes.end(), 1u);
  sizes.push_back(8064);  // four 2016-tick rows: a kb subscription's p95
  for (const std::size_t n : sizes) {
    for (const bool ties : {true, false}) {
      std::vector<double> xs(n);
      for (auto& x : xs)
        x = ties ? static_cast<double>(rng.uniform_int(8)) / 7.0
                 : rng.uniform();
      std::vector<double> sorted = xs;
      std::sort(sorted.begin(), sorted.end());
      for (const double p : {0.0, 0.01, 0.25, 0.5, 0.95, 0.99, 1.0}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(quantile(xs, p)),
                  std::bit_cast<std::uint64_t>(quantile_sorted(sorted, p)))
            << "n=" << n << " ties=" << ties << " p=" << p;
      }
    }
  }
}

TEST(StreamingMomentsTest, MatchesBatch) {
  cloudlens::Rng rng(1);
  std::vector<double> xs(5000);
  StreamingMoments m;
  for (auto& x : xs) {
    x = rng.normal(3.0, 2.0);
    m.add(x);
  }
  EXPECT_EQ(m.count(), xs.size());
  EXPECT_NEAR(m.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(m.variance(), variance(xs), 1e-9);
  EXPECT_NEAR(m.stddev(), stddev(xs), 1e-9);
}

TEST(StreamingMomentsTest, MinMaxTracked) {
  StreamingMoments m;
  m.add(5);
  m.add(-2);
  m.add(3);
  EXPECT_DOUBLE_EQ(m.min(), -2);
  EXPECT_DOUBLE_EQ(m.max(), 5);
}

TEST(StreamingMomentsTest, MergeEqualsCombinedStream) {
  cloudlens::Rng rng(2);
  StreamingMoments a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0, 10);
    (i % 3 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StreamingMomentsTest, MergeWithEmpty) {
  StreamingMoments a, empty;
  a.add(1);
  a.add(2);
  const double mean_before = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean_before);
}

TEST(SummaryTest, KnownValues) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 100);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p25, 25.75, 1e-9);
  EXPECT_NEAR(s.p75, 75.25, 1e-9);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
}

TEST(SummaryTest, EmptyIsZeroed) {
  const Summary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0);
}

}  // namespace
}  // namespace cloudlens::stats
