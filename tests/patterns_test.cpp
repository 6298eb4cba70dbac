#include "workloads/patterns.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace cloudlens::workloads {
namespace {

template <typename Model>
std::vector<double> sample_week(const Model& model) {
  const TimeGrid grid = week_telemetry_grid();
  std::vector<double> out(grid.count);
  for (std::size_t i = 0; i < grid.count; ++i) out[i] = model.at(grid.at(i));
  return out;
}

TEST(HashNoiseTest, DeterministicAndKeySensitive) {
  EXPECT_DOUBLE_EQ(hash_uniform(1, 5), hash_uniform(1, 5));
  EXPECT_NE(hash_uniform(1, 5), hash_uniform(1, 6));
  EXPECT_NE(hash_uniform(1, 5), hash_uniform(2, 5));
}

TEST(HashNoiseTest, UniformInRange) {
  for (int k = 0; k < 1000; ++k) {
    const double u = hash_uniform(42, k);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(HashNoiseTest, NormalApproxMoments) {
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int k = 0; k < n; ++k) {
    const double x = hash_normal(7, k);
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(SmoothNoiseTest, ContinuousAcrossAnchors) {
  // Adjacent telemetry samples of smooth noise differ much less than
  // independent draws would.
  double max_jump = 0;
  double prev = smooth_noise(3, 0, kHour);
  for (SimTime t = kTelemetryInterval; t < kDay; t += kTelemetryInterval) {
    const double v = smooth_noise(3, t, kHour);
    max_jump = std::max(max_jump, std::fabs(v - prev));
    prev = v;
  }
  EXPECT_LT(max_jump, 1.0);  // white noise jumps would reach ~4 sigma
}

TEST(DiurnalEnvelopeTest, PeakAndNight) {
  EXPECT_NEAR(diurnal_envelope(14.0, 14.0, 12.0), 1.0, 1e-12);
  EXPECT_NEAR(diurnal_envelope(2.0, 14.0, 12.0), 0.0, 1e-12);
  // Envelope is symmetric around the peak.
  EXPECT_NEAR(diurnal_envelope(12.0, 14.0, 12.0),
              diurnal_envelope(16.0, 14.0, 12.0), 1e-12);
}

TEST(DiurnalEnvelopeTest, WrapsMidnight) {
  // Peak at 23:00: 1:00 is two hours away through midnight.
  EXPECT_NEAR(diurnal_envelope(1.0, 23.0, 12.0),
              diurnal_envelope(21.0, 23.0, 12.0), 1e-12);
}

TEST(DiurnalUtilizationTest, DeterministicGivenSeed) {
  DiurnalUtilization::Params p;
  const DiurnalUtilization a(p, 11), b(p, 11), c(p, 12);
  EXPECT_DOUBLE_EQ(a.at(kHour), b.at(kHour));
  EXPECT_NE(a.at(kHour), c.at(kHour));
}

TEST(DiurnalUtilizationTest, StaysInUnitInterval) {
  DiurnalUtilization::Params p;
  p.noise_sigma = 0.2;  // exaggerate noise to probe clamping
  const DiurnalUtilization model(p, 1);
  for (const double v : sample_week(model)) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(DiurnalUtilizationTest, DaytimeAboveNight) {
  DiurnalUtilization::Params p;  // peak at 14:00, base 0.05, peak 0.6
  const DiurnalUtilization model(p, 2);
  // Tuesday 14:00 vs Tuesday 03:00.
  const double day = model.at(kDay + 14 * kHour);
  const double night = model.at(kDay + 3 * kHour);
  EXPECT_GT(day, night + 0.3);
}

TEST(DiurnalUtilizationTest, WeekdayPeakAboveWeekendPeak) {
  DiurnalUtilization::Params p;
  const DiurnalUtilization model(p, 3);
  const double weekday = model.at(2 * kDay + 14 * kHour);  // Wednesday
  const double weekend = model.at(5 * kDay + 14 * kHour);  // Saturday
  EXPECT_GT(weekday, weekend + 0.2);
}

TEST(DiurnalUtilizationTest, TimeZoneShiftsPeak) {
  DiurnalUtilization::Params east = {};
  east.tz_offset_hours = 0;
  east.noise_sigma = 0.0;
  DiurnalUtilization::Params west = east;
  west.tz_offset_hours = -6;
  const DiurnalUtilization e(east, 4), w(west, 4);
  // At sim-clock 14:00 the east model peaks; the west model (six hours
  // behind) reads 08:00 local and is below peak.
  EXPECT_GT(e.at(14 * kHour), w.at(14 * kHour) + 0.15);
  // The west model peaks six hours later on the sim clock.
  EXPECT_NEAR(w.at(20 * kHour), e.at(14 * kHour), 0.05);
}

// local_hour wraps [0, 48) without libm fmod. sample() and at() share it,
// so the contract tests cannot see a wrong wrap; pin it against fmod here.
// With no noise and equal peaks, at() is the envelope of the local hour.
TEST(DiurnalUtilizationTest, LocalHourWrapsLikeFmod) {
  for (const double offset : {-30.0, -8.0, 0.0, 9.5, 13.75, 23.5, 30.0}) {
    DiurnalUtilization::Params p;
    p.tz_offset_hours = offset;
    p.noise_sigma = 0.0;
    p.weekend_peak = p.weekday_peak;
    const DiurnalUtilization model(p, 6);
    for (SimTime t = 0; t < kDay; t += kTelemetryInterval) {
      double h = std::fmod(frac_hour_of_day(t) + offset, 24.0);
      if (h < 0) h += 24.0;
      const double envelope = diurnal_envelope(h, p.peak_hour, p.width_hours);
      const double expected = std::min(
          1.0, std::max(0.0, p.base + (p.weekday_peak - p.base) * envelope));
      ASSERT_EQ(model.at(t), expected) << "offset " << offset << " t " << t;
    }
  }
}

TEST(StableUtilizationTest, LowStddevAroundLevel) {
  StableUtilization::Params p;
  p.level = 0.3;
  const StableUtilization model(p, 5);
  const auto xs = sample_week(model);
  EXPECT_NEAR(stats::mean(xs), 0.3, 0.02);
  EXPECT_LT(stats::stddev(xs), 0.04);
}

TEST(IrregularUtilizationTest, MostlyLowWithSpikes) {
  IrregularUtilization::Params p;
  const IrregularUtilization model(p, 6);
  const auto xs = sample_week(model);
  std::size_t low = 0, high = 0;
  for (const double v : xs) {
    if (v < 0.15) ++low;
    if (v > 0.5) ++high;
  }
  // "lower than 10% most of the time, can raise to over 60% for a short
  // time" — most samples low, some spikes present.
  EXPECT_GT(low, xs.size() * 3 / 4);
  EXPECT_GT(high, 0u);
  EXPECT_LT(high, xs.size() / 5);
}

TEST(IrregularUtilizationTest, SpikeProbabilityScalesSpikes) {
  IrregularUtilization::Params rare, frequent;
  rare.spike_prob = 0.01;
  frequent.spike_prob = 0.20;
  const IrregularUtilization a(rare, 7), b(frequent, 7);
  auto count_spikes = [](const std::vector<double>& xs) {
    std::size_t n = 0;
    for (const double v : xs)
      if (v > 0.5) ++n;
    return n;
  };
  EXPECT_GT(count_spikes(sample_week(b)), 2 * count_spikes(sample_week(a)));
}

TEST(HourlyPeakUtilizationTest, PeaksAtMarksDuringDay) {
  HourlyPeakUtilization::Params p;
  p.noise_sigma = 0.0;
  const HourlyPeakUtilization model(p, 8);
  // Tuesday 13:00 (on the hour, envelope near peak) vs 13:15 (between).
  const double at_mark = model.at(kDay + 13 * kHour);
  const double between = model.at(kDay + 13 * kHour + 15 * kMinute);
  EXPECT_GT(at_mark, between + 0.3);
}

TEST(HourlyPeakUtilizationTest, HalfHourPeakSmaller) {
  HourlyPeakUtilization::Params p;
  p.noise_sigma = 0.0;
  p.half_hour_peak_scale = 0.5;
  const HourlyPeakUtilization model(p, 9);
  const double on_hour = model.at(kDay + 13 * kHour);
  const double on_half = model.at(kDay + 13 * kHour + 30 * kMinute);
  EXPECT_GT(on_hour, on_half);
  EXPECT_GT(on_half, model.at(kDay + 13 * kHour + 15 * kMinute));
}

TEST(HourlyPeakUtilizationTest, NightPeaksSuppressed) {
  HourlyPeakUtilization::Params p;
  p.noise_sigma = 0.0;
  const HourlyPeakUtilization model(p, 10);
  const double day_peak = model.at(kDay + 13 * kHour);
  const double night_peak = model.at(kDay + 2 * kHour);
  EXPECT_GT(day_peak, night_peak + 0.3);
}

TEST(GroundTruthPatternTest, ReportsPlantedType) {
  const DiurnalUtilization diurnal({}, 1);
  const StableUtilization stable({}, 2);
  const IrregularUtilization irregular({}, 3);
  const HourlyPeakUtilization hourly({}, 4);
  EXPECT_EQ(ground_truth_pattern(&diurnal), PatternType::kDiurnal);
  EXPECT_EQ(ground_truth_pattern(&stable), PatternType::kStable);
  EXPECT_EQ(ground_truth_pattern(&irregular), PatternType::kIrregular);
  EXPECT_EQ(ground_truth_pattern(&hourly), PatternType::kHourlyPeak);
  const ConstantUtilization constant(0.5);
  EXPECT_FALSE(ground_truth_pattern(&constant).has_value());
}

TEST(PatternTypeTest, ToString) {
  EXPECT_EQ(to_string(PatternType::kDiurnal), "diurnal");
  EXPECT_EQ(to_string(PatternType::kStable), "stable");
  EXPECT_EQ(to_string(PatternType::kIrregular), "irregular");
  EXPECT_EQ(to_string(PatternType::kHourlyPeak), "hourly-peak");
}

}  // namespace
}  // namespace cloudlens::workloads
