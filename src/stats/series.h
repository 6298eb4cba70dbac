// Regularly-sampled time series on a TimeGrid, plus the aggregation
// operations the paper's figures need (hourly means, hour-of-day profiles,
// per-timepoint percentile bands).
#pragma once

#include <span>
#include <vector>

#include "common/sim_time.h"

namespace cloudlens::stats {

/// A value per grid point. Values are typically CPU utilization in [0, 1]
/// or counts; the class itself is unit-agnostic.
class TimeSeries {
 public:
  TimeSeries() = default;
  /// All-zero series over `grid`.
  explicit TimeSeries(TimeGrid grid) : grid_(grid), values_(grid.count, 0.0) {}
  TimeSeries(TimeGrid grid, std::vector<double> values);

  const TimeGrid& grid() const { return grid_; }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double& operator[](std::size_t i) { return values_[i]; }
  double operator[](std::size_t i) const { return values_[i]; }
  std::span<const double> values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  double value_at(SimTime t) const { return values_[grid_.index_of(t)]; }

  double mean() const;
  double max() const;

  /// Element-wise accumulate (grids must match).
  void add(const TimeSeries& other, double scale = 1.0);
  void scale(double factor);
  void clamp(double lo, double hi);

  /// Mean over consecutive windows of `factor` samples; grid step multiplies.
  TimeSeries downsample_mean(std::size_t factor) const;

  /// Hourly means (convenience over downsample_mean for 5-min grids).
  TimeSeries hourly_mean() const;

  /// Mean value per hour-of-day (24 buckets), averaged across all days in
  /// the series — the shape plotted in Figs. 6(c,d) and 7(c).
  std::vector<double> hour_of_day_profile() const;

  /// Restrict to the sub-grid of samples with index in [first, first+count).
  TimeSeries slice(std::size_t first, std::size_t count) const;

 private:
  TimeGrid grid_;
  std::vector<double> values_;
};

/// Per-timepoint percentile bands across a population of aligned series —
/// the representation behind the shaded percentile plots of Fig. 6.
struct PercentileBands {
  TimeGrid grid;
  std::vector<double> p25, p50, p75, p95;
};

PercentileBands percentile_bands(std::span<const TimeSeries> population);

/// Mean over consecutive windows of `factor` samples of `in`, written to
/// `out` (out.size() == in.size() / factor): each window is summed in
/// order, then divided once. TimeSeries::downsample_mean and the trace's
/// hourly rows both roll up through it, so their bits agree.
void downsample_mean(std::span<const double> in, std::size_t factor,
                     std::span<double> out);

}  // namespace cloudlens::stats
