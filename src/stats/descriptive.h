// Descriptive statistics: moments, quantiles, coefficient of variation.
#pragma once

#include <span>
#include <vector>

namespace cloudlens::stats {

double mean(std::span<const double> xs);
/// Sample variance (n-1 denominator); 0 for fewer than two samples.
double variance(std::span<const double> xs);
double stddev(std::span<const double> xs);

/// Coefficient of variation = stddev / mean. The paper (Sec. III-B) uses the
/// CV of hourly VM-creation counts to quantify burstiness across regions.
/// Returns 0 when the mean is 0 (an all-zero series is "perfectly regular").
double coefficient_of_variation(std::span<const double> xs);

/// Linear-interpolation quantile (type 7, the numpy/R default), p in [0, 1].
/// The input need not be sorted: O(n) selection on an internal copy places
/// the two order statistics the interpolation reads, so the result has the
/// bits quantile_sorted gives on a sorted copy. One exception: when the
/// maximum is zero and held with both signs, p = 1 may return the other
/// zero than the sort's last element.
double quantile(std::span<const double> xs, double p);

/// Quantile over data the caller has already sorted ascending (no copy).
double quantile_sorted(std::span<const double> sorted, double p);

/// Welford's online algorithm: numerically stable streaming moments.
class StreamingMoments {
 public:
  void add(double x);
  void merge(const StreamingMoments& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1)
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number-plus summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0, stddev = 0;
  double min = 0, p25 = 0, p50 = 0, p75 = 0, p95 = 0, p99 = 0, max = 0;
};

Summary summarize(std::span<const double> xs);

}  // namespace cloudlens::stats
