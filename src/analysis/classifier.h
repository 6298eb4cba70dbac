// Utilization pattern classifier (Sec. IV-A, Fig. 5).
//
// Classifies a VM's CPU-utilization series into the paper's four types:
//   stable       — standard deviation below a threshold (paper: "extracted
//                  by restricting the standard deviation");
//   hourly-peak  — significant periodicity at one hour (period detection of
//                  ref [18] with period = 1h); a special diurnal pattern;
//   diurnal      — significant periodicity at 24 hours;
//   irregular    — everything else.
#pragma once

#include <string_view>

#include "cloudsim/trace.h"
#include "common/parallel.h"
#include "stats/series.h"

namespace cloudlens {
class AnalysisContext;  // analysis/context.h
}

namespace cloudlens::analysis {

enum class UtilizationClass { kDiurnal, kStable, kIrregular, kHourlyPeak };

std::string_view to_string(UtilizationClass c);

struct ClassifierOptions {
  /// Maximum standard deviation for the stable class.
  double stable_stddev_max = 0.045;
  /// Minimum ACF-based periodicity score at 1 hour for hourly-peak.
  double hourly_score_min = 0.18;
  /// Minimum ACF-based periodicity score at 24 hours for diurnal.
  double diurnal_score_min = 0.30;
};

/// Classify one utilization series (5-minute samples over >= 2 days
/// recommended; shorter series can only be separated stably vs. not).
UtilizationClass classify(const stats::TimeSeries& utilization,
                          const ClassifierOptions& options = {});

/// Span overload for contiguous telemetry rows: identical decisions,
/// no TimeSeries materialization (the stable test runs on the raw span and
/// the periodicity cascade scores one shared ACF). `grid` describes the
/// row's sampling (grid.count is ignored in favour of utilization.size()).
UtilizationClass classify(std::span<const double> utilization,
                          const TimeGrid& grid,
                          const ClassifierOptions& options = {});

/// Population shares of the four classes (Fig. 5(d)) over VMs of one cloud
/// that were alive for the entire telemetry window. `max_vms` caps the
/// sample (deterministic stride subsampling) to bound runtime; 0 = all.
struct PatternShares {
  double diurnal = 0, stable = 0, irregular = 0, hourly_peak = 0;
  std::size_t classified = 0;
};

/// Per-VM classification fans out over the context's ParallelConfig
/// (labels land in per-candidate slots, tallied in candidate order), so the
/// result is bit-identical at any thread count — `threads = 1` runs the
/// plain serial loop. Records one "analysis.classify_population" phase and
/// `analysis.vms_classified` against the context's (write-only) metrics.
PatternShares classify_population(const AnalysisContext& ctx, CloudType cloud,
                                  std::size_t max_vms = 2000,
                                  const ClassifierOptions& options = {});

}  // namespace cloudlens::analysis
