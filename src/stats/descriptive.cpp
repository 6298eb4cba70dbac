#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace cloudlens::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double coefficient_of_variation(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) return 0.0;
  return stddev(xs) / m;
}

double quantile_sorted(std::span<const double> sorted, double p) {
  CL_CHECK(!sorted.empty());
  CL_CHECK(p >= 0.0 && p <= 1.0);
  if (sorted.size() == 1) return sorted[0];
  const double h = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double quantile(std::span<const double> xs, double p) {
  CL_CHECK(!xs.empty());
  CL_CHECK(p >= 0.0 && p <= 1.0);  // before the cast: NaN or < 0 is UB there
  std::vector<double> copy(xs.begin(), xs.end());
  const std::size_t n = copy.size();
  // quantile_sorted reads the order statistics lo and lo + 1 only: select
  // lo, then the smallest element after it is the next one.
  const double h = p * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(h);
  const auto nth = copy.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(copy.begin(), nth, copy.end());
  if (lo + 1 >= n) return *nth;
  const double lower = *nth;
  const double upper = *std::min_element(nth + 1, copy.end());
  const double frac = h - static_cast<double>(lo);
  return lower + frac * (upper - lower);
}

void StreamingMoments::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void StreamingMoments::merge(const StreamingMoments& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_ + other.n_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / n;
  mean_ += delta * static_cast<double>(other.n_) / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double StreamingMoments::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double StreamingMoments::stddev() const { return std::sqrt(variance()); }

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = quantile_sorted(sorted, 0.25);
  s.p50 = quantile_sorted(sorted, 0.50);
  s.p75 = quantile_sorted(sorted, 0.75);
  s.p95 = quantile_sorted(sorted, 0.95);
  s.p99 = quantile_sorted(sorted, 0.99);
  return s;
}

}  // namespace cloudlens::stats
