#include "workloads/patterns.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "stats/kernels/kernels.h"

namespace cloudlens::workloads {
namespace {

/// Per-tick noise keys for a grid, ready for the batched kernel fill.
std::vector<std::int64_t> tick_noise_keys(const TimeGrid& grid) {
  std::vector<std::int64_t> keys(grid.count);
  for (std::size_t i = 0; i < grid.count; ++i)
    keys[i] = grid.at(i) / kTelemetryInterval;
  return keys;
}

double clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

/// Local fractional hour-of-day after applying a time-zone offset.
double local_hour(SimTime t, double tz_offset_hours) {
  double h = frac_hour_of_day(t) + tz_offset_hours;
  h = std::fmod(h, 24.0);
  if (h < 0) h += 24.0;
  return h;
}

/// Weekday/weekend decision in *local* time.
bool local_weekend(SimTime t, double tz_offset_hours) {
  const auto shifted =
      t + static_cast<SimTime>(tz_offset_hours * double(kHour));
  return is_weekend(shifted);
}

// --- Batch-sampling caches ----------------------------------------------
//
// The batched sample() overrides hoist everything whose value repeats
// across the grid out of the per-tick loop: the diurnal envelope (exactly
// periodic in t mod day), the smooth-noise anchors (one hash per hour, not
// two per tick) and interpolation weights (periodic in t mod hour), the
// spike decision (one hash per episode), and the hourly-peak shape
// (periodic in t mod half-hour). All cached values are produced by the
// *same* expressions the per-tick path uses, so sample() == at() bit for
// bit — which the telemetry panel and the seed-stability of every analysis
// depend on.

/// Anchor key used by smooth_noise: floor division of t by the step.
std::int64_t anchor_key(SimTime t, SimDuration anchor_step) {
  return t >= 0 ? t / anchor_step : (t - anchor_step + 1) / anchor_step;
}

/// Cosine interpolation weight at t between anchors k and k+1.
double smooth_weight(SimTime t, std::int64_t k, SimDuration anchor_step) {
  const double frac = static_cast<double>(t - k * anchor_step) /
                      static_cast<double>(anchor_step);
  return 0.5 - 0.5 * std::cos(std::numbers::pi * frac);
}

double cos_lerp(double a, double b, double w) {
  return a * (1.0 - w) + b * w;
}

/// Grids eligible for the hoisted loops: a positive step that divides an
/// hour evenly, so day- and hour-periodic quantities cycle in whole ticks.
bool batch_grid_ok(const TimeGrid& grid) {
  return grid.count > 0 && grid.step > 0 && kHour % grid.step == 0;
}

/// Values of a day-periodic function of t, tabulated per day offset.
class DayPeriodicTable {
 public:
  template <typename Fn>
  DayPeriodicTable(const TimeGrid& grid, Fn&& fn)
      : period_(static_cast<std::size_t>(kDay / grid.step)) {
    const std::size_t m = std::min(period_, grid.count);
    values_.resize(m);
    for (std::size_t j = 0; j < m; ++j) values_[j] = fn(grid.at(j));
  }
  double at(std::size_t i) const { return values_[i % period_]; }

 private:
  std::size_t period_;
  std::vector<double> values_;
};

/// smooth_noise over a regular grid: anchors hashed once per anchor step,
/// interpolation weights tabulated once per phase.
class SmoothNoiseCache {
 public:
  SmoothNoiseCache(const TimeGrid& grid, std::uint64_t seed,
                   SimDuration anchor_step)
      : anchor_step_(anchor_step),
        period_(static_cast<std::size_t>(anchor_step / grid.step)) {
    CL_CHECK(anchor_step > 0 && anchor_step % grid.step == 0);
    const std::size_t m = std::min(period_, grid.count);
    w_.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      const SimTime t = grid.at(j);
      w_[j] = smooth_weight(t, anchor_key(t, anchor_step), anchor_step);
    }
    k0_ = anchor_key(grid.at(0), anchor_step);
    const std::int64_t k_last =
        anchor_key(grid.at(grid.count - 1), anchor_step);
    std::vector<std::int64_t> keys(static_cast<std::size_t>(k_last - k0_) + 2);
    for (std::size_t j = 0; j < keys.size(); ++j)
      keys[j] = k0_ + static_cast<std::int64_t>(j);
    anchors_.resize(keys.size());
    stats::kernels::hash_normal_fill(seed, keys, anchors_);
  }

  double at(SimTime t, std::size_t i) const {
    const auto k =
        static_cast<std::size_t>(anchor_key(t, anchor_step_) - k0_);
    return cos_lerp(anchors_[k], anchors_[k + 1], w_[i % period_]);
  }

 private:
  SimDuration anchor_step_;
  std::size_t period_;
  std::int64_t k0_ = 0;
  std::vector<double> w_;
  std::vector<double> anchors_;
};

}  // namespace

std::string_view to_string(PatternType t) {
  switch (t) {
    case PatternType::kDiurnal: return "diurnal";
    case PatternType::kStable: return "stable";
    case PatternType::kIrregular: return "irregular";
    default: return "hourly-peak";
  }
}

double hash_uniform(std::uint64_t seed, std::int64_t key) {
  SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(key) * 0xd1342543de82ef95ULL));
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

double hash_normal(std::uint64_t seed, std::int64_t key) {
  // Single source of truth lives in stats/kernels (the scalar oracle of
  // the batched hash_normal_fill family).
  return stats::kernels::hash_normal_one(seed, key);
}

double smooth_noise(std::uint64_t seed, SimTime t, SimDuration anchor_step) {
  const std::int64_t k = anchor_key(t, anchor_step);
  const double a = hash_normal(seed, k);
  const double b = hash_normal(seed, k + 1);
  // Cosine interpolation for C1-smooth wander.
  return cos_lerp(a, b, smooth_weight(t, k, anchor_step));
}

double diurnal_envelope(double local_hour, double peak_hour,
                        double width_hours) {
  // Circular distance from the peak hour.
  double d = std::fabs(local_hour - peak_hour);
  d = std::min(d, 24.0 - d);
  if (d >= width_hours / 2) return 0.0;
  return 0.5 + 0.5 * std::cos(2.0 * std::numbers::pi * d / width_hours);
}

// --- Diurnal -------------------------------------------------------------

double DiurnalUtilization::eval(SimTime t, double envelope, double smooth,
                                double tick_noise) const {
  const double peak =
      local_weekend(t, p_.tz_offset_hours) ? p_.weekend_peak : p_.weekday_peak;
  const double noise =
      p_.noise_sigma * tick_noise + 0.5 * p_.noise_sigma * smooth;
  return clamp01(p_.base + (peak - p_.base) * envelope + noise);
}

double DiurnalUtilization::at(SimTime t) const {
  const double h = local_hour(t, p_.tz_offset_hours);
  return eval(t, diurnal_envelope(h, p_.peak_hour, p_.width_hours),
              smooth_noise(seed_ ^ 0xABCDULL, t, kHour),
              hash_normal(seed_, t / kTelemetryInterval));
}

void DiurnalUtilization::sample(const TimeGrid& grid,
                                std::span<double> out) const {
  CL_CHECK(out.size() == grid.count);
  if (!batch_grid_ok(grid)) {
    UtilizationModel::sample(grid, out);
    return;
  }
  const DayPeriodicTable envelope(grid, [this](SimTime t) {
    return diurnal_envelope(local_hour(t, p_.tz_offset_hours), p_.peak_hour,
                            p_.width_hours);
  });
  const SmoothNoiseCache smooth(grid, seed_ ^ 0xABCDULL, kHour);
  std::vector<double> tick_noise(grid.count);
  stats::kernels::hash_normal_fill(seed_, tick_noise_keys(grid), tick_noise);
  for (std::size_t i = 0; i < grid.count; ++i) {
    const SimTime t = grid.at(i);
    out[i] = eval(t, envelope.at(i), smooth.at(t, i), tick_noise[i]);
  }
}

// --- Stable --------------------------------------------------------------

double StableUtilization::eval(SimTime t, double smooth,
                               double tick_noise) const {
  (void)t;
  const double wander = p_.wander_sigma * smooth;
  const double noise = p_.noise_sigma * tick_noise;
  return clamp01(p_.level + wander + noise);
}

double StableUtilization::at(SimTime t) const {
  return eval(t, smooth_noise(seed_, t, kHour),
              hash_normal(seed_, t / kTelemetryInterval));
}

void StableUtilization::sample(const TimeGrid& grid,
                               std::span<double> out) const {
  CL_CHECK(out.size() == grid.count);
  if (!batch_grid_ok(grid)) {
    UtilizationModel::sample(grid, out);
    return;
  }
  const SmoothNoiseCache smooth(grid, seed_, kHour);
  std::vector<double> tick_noise(grid.count);
  stats::kernels::hash_normal_fill(seed_, tick_noise_keys(grid), tick_noise);
  for (std::size_t i = 0; i < grid.count; ++i) {
    const SimTime t = grid.at(i);
    out[i] = eval(t, smooth.at(t, i), tick_noise[i]);
  }
}

// --- Irregular -----------------------------------------------------------

double IrregularUtilization::eval(SimTime t, double level,
                                  double tick_noise) const {
  (void)t;
  const double noise = p_.noise_sigma * tick_noise;
  return clamp01(level + noise);
}

double IrregularUtilization::at(SimTime t) const {
  const std::int64_t episode = t / p_.episode;
  const bool spiking = hash_uniform(seed_ ^ 0x5157ULL, episode) < p_.spike_prob;
  return eval(t, spiking ? p_.spike_level : p_.base,
              hash_normal(seed_, t / kTelemetryInterval));
}

void IrregularUtilization::sample(const TimeGrid& grid,
                                  std::span<double> out) const {
  CL_CHECK(out.size() == grid.count);
  if (grid.count == 0 || grid.step <= 0 || p_.episode <= 0) {
    UtilizationModel::sample(grid, out);
    return;
  }
  // One spike decision per episode instead of one hash per tick.
  // Truncating division of a nondecreasing t is nondecreasing, so the
  // episode range is [first, last].
  const std::int64_t first = grid.at(0) / p_.episode;
  const std::int64_t last = grid.at(grid.count - 1) / p_.episode;
  std::vector<double> level(static_cast<std::size_t>(last - first) + 1);
  for (std::size_t e = 0; e < level.size(); ++e) {
    const std::int64_t episode = first + static_cast<std::int64_t>(e);
    const bool spiking =
        hash_uniform(seed_ ^ 0x5157ULL, episode) < p_.spike_prob;
    level[e] = spiking ? p_.spike_level : p_.base;
  }
  std::vector<double> tick_noise(grid.count);
  stats::kernels::hash_normal_fill(seed_, tick_noise_keys(grid), tick_noise);
  for (std::size_t i = 0; i < grid.count; ++i) {
    const SimTime t = grid.at(i);
    const auto e = static_cast<std::size_t>(t / p_.episode - first);
    out[i] = eval(t, level[e], tick_noise[i]);
  }
}

// --- Hourly-peak ---------------------------------------------------------

double HourlyPeakUtilization::eval(SimTime t, double envelope, bool has_peak,
                                   double shape, double tick_noise) const {
  double env = envelope;
  if (local_weekend(t, p_.tz_offset_hours)) env *= p_.weekend_scale;
  const bool at_half = (((t + kHour / 4) / (kHour / 2)) % 2) != 0;
  double peak_contrib = 0.0;
  if (has_peak) {
    const double height = (p_.peak - p_.base) *
                          (at_half ? p_.half_hour_peak_scale : 1.0) * env;
    peak_contrib = height * shape;
  }
  const double noise = p_.noise_sigma * tick_noise;
  return clamp01(p_.base + peak_contrib + noise);
}

namespace {

/// Distance (seconds) from t to the nearest :00 or :30 mark.
SimTime half_hour_distance(SimTime t) {
  const SimTime in_half_hour = ((t % (kHour / 2)) + kHour / 2) % (kHour / 2);
  return std::min<SimTime>(in_half_hour, kHour / 2 - in_half_hour);
}

}  // namespace

double HourlyPeakUtilization::at(SimTime t) const {
  const double h = local_hour(t, p_.tz_offset_hours);
  const double env = diurnal_envelope(h, p_.peak_hour, p_.width_hours);
  const SimTime dist = half_hour_distance(t);
  const bool has_peak = dist < p_.peak_width;
  const double shape =
      has_peak ? 0.5 + 0.5 * std::cos(std::numbers::pi * double(dist) /
                                      double(p_.peak_width))
               : 0.0;
  return eval(t, env, has_peak, shape,
              hash_normal(seed_, t / kTelemetryInterval));
}

void HourlyPeakUtilization::sample(const TimeGrid& grid,
                                   std::span<double> out) const {
  CL_CHECK(out.size() == grid.count);
  if (!batch_grid_ok(grid) || (kHour / 2) % grid.step != 0) {
    UtilizationModel::sample(grid, out);
    return;
  }
  const DayPeriodicTable envelope(grid, [this](SimTime t) {
    return diurnal_envelope(local_hour(t, p_.tz_offset_hours), p_.peak_hour,
                            p_.width_hours);
  });
  // Peak shape repeats every half hour of grid phase.
  const std::size_t half_ticks =
      static_cast<std::size_t>((kHour / 2) / grid.step);
  const std::size_t m = std::min(half_ticks, grid.count);
  std::vector<double> shape(m, 0.0);
  std::vector<char> has_peak(m, 0);
  for (std::size_t j = 0; j < m; ++j) {
    const SimTime dist = half_hour_distance(grid.at(j));
    if (dist < p_.peak_width) {
      has_peak[j] = 1;
      shape[j] = 0.5 + 0.5 * std::cos(std::numbers::pi * double(dist) /
                                      double(p_.peak_width));
    }
  }
  std::vector<double> tick_noise(grid.count);
  stats::kernels::hash_normal_fill(seed_, tick_noise_keys(grid), tick_noise);
  for (std::size_t i = 0; i < grid.count; ++i) {
    const SimTime t = grid.at(i);
    const std::size_t j = i % half_ticks;
    out[i] = eval(t, envelope.at(i), has_peak[j] != 0, shape[j],
                  tick_noise[i]);
  }
}

std::optional<PatternType> ground_truth_pattern(const UtilizationModel* m) {
  if (const auto* p = dynamic_cast<const PatternModel*>(m))
    return p->pattern();
  return std::nullopt;
}

}  // namespace cloudlens::workloads
