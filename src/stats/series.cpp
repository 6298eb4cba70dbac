#include "stats/series.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "stats/descriptive.h"
#include "stats/kernels/kernels.h"

namespace cloudlens::stats {

TimeSeries::TimeSeries(TimeGrid grid, std::vector<double> values)
    : grid_(grid), values_(std::move(values)) {
  CL_CHECK_MSG(values_.size() == grid_.count,
               "value count must match grid size");
}

double TimeSeries::mean() const { return stats::mean(values_); }

double TimeSeries::max() const {
  double hi = 0;
  for (double v : values_) hi = std::max(hi, v);
  return hi;
}

void TimeSeries::add(const TimeSeries& other, double scale) {
  CL_CHECK_MSG(other.grid_ == grid_, "grid mismatch in TimeSeries::add");
  for (std::size_t i = 0; i < values_.size(); ++i)
    values_[i] += scale * other.values_[i];
}

void TimeSeries::scale(double factor) {
  for (auto& v : values_) v *= factor;
}

void TimeSeries::clamp(double lo, double hi) {
  for (auto& v : values_) v = std::min(hi, std::max(lo, v));
}

TimeSeries TimeSeries::downsample_mean(std::size_t factor) const {
  CL_CHECK(factor > 0 && !values_.empty());
  const std::size_t out_count = values_.size() / factor;
  CL_CHECK_MSG(out_count > 0, "series shorter than downsample window");
  TimeGrid out_grid{grid_.start, grid_.step * static_cast<SimDuration>(factor),
                    out_count};
  std::vector<double> out(out_count);
  stats::downsample_mean(values_, factor, out);
  return TimeSeries(out_grid, std::move(out));
}

void downsample_mean(std::span<const double> in, std::size_t factor,
                     std::span<double> out) {
  CL_CHECK(factor > 0 && out.size() == in.size() / factor);
  for (std::size_t i = 0; i < out.size(); ++i) {
    double acc = 0;
    for (std::size_t j = 0; j < factor; ++j) acc += in[i * factor + j];
    out[i] = acc / static_cast<double>(factor);
  }
}

TimeSeries TimeSeries::hourly_mean() const {
  CL_CHECK(grid_.step > 0 && kHour % grid_.step == 0);
  return downsample_mean(static_cast<std::size_t>(kHour / grid_.step));
}

std::vector<double> TimeSeries::hour_of_day_profile() const {
  std::vector<double> sum(24, 0.0);
  std::vector<std::size_t> n(24, 0);
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const int h = hour_of_day(grid_.at(i));
    sum[h] += values_[i];
    ++n[h];
  }
  for (int h = 0; h < 24; ++h) {
    if (n[h] > 0) sum[h] /= static_cast<double>(n[h]);
  }
  return sum;
}

TimeSeries TimeSeries::slice(std::size_t first, std::size_t count) const {
  CL_CHECK(first + count <= values_.size());
  TimeGrid g{grid_.at(first), grid_.step, count};
  return TimeSeries(
      g, std::vector<double>(values_.begin() + static_cast<std::ptrdiff_t>(first),
                             values_.begin() +
                                 static_cast<std::ptrdiff_t>(first + count)));
}

PercentileBands percentile_bands(std::span<const TimeSeries> population) {
  PercentileBands out;
  CL_CHECK(!population.empty());
  out.grid = population.front().grid();
  for (const auto& s : population)
    CL_CHECK_MSG(s.grid() == out.grid, "population series must share a grid");

  const std::size_t t_count = out.grid.count;
  out.p25.resize(t_count);
  out.p50.resize(t_count);
  out.p75.resize(t_count);
  out.p95.resize(t_count);

  // The band kernel gathers timepoint columns in transposed blocks (the
  // AVX2 path streams the row-major population cache-friendly), then
  // selects each column's order statistics — bit-identical to the old
  // per-timepoint gather/sort loop on both kernel paths.
  std::vector<const double*> rows(population.size());
  for (std::size_t i = 0; i < population.size(); ++i)
    rows[i] = population[i].values().data();
  kernels::band_percentiles(
      rows, t_count,
      kernels::BandOutputs{out.p25, out.p50, out.p75, out.p95});
  return out;
}

}  // namespace cloudlens::stats
