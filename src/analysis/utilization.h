// Utilization distribution characterization (Sec. IV-A, Fig. 6):
// per-timepoint percentile bands over a VM population, weekly and daily.
#pragma once

#include <vector>

#include "cloudsim/trace.h"
#include "common/parallel.h"
#include "stats/series.h"

namespace cloudlens {
class AnalysisContext;  // analysis/context.h
}

namespace cloudlens::analysis {

struct UtilizationDistribution {
  /// Percentile bands per hour over the full window (Fig. 6(a,b));
  /// series are hourly means of the 5-minute telemetry.
  stats::PercentileBands weekly;
  /// Percentiles per hour-of-day, across (VM × day) hourly means
  /// (Fig. 6(c,d)); index = hour of day 0..23.
  std::vector<double> daily_p25, daily_p50, daily_p75, daily_p95;
  std::size_t vms_used = 0;
};

/// Computes the distribution over VMs of `cloud` alive the entire window.
/// `max_vms` caps the population by deterministic stride subsampling.
/// The per-VM hourly roll-ups and the 24 hour-of-day percentile buckets
/// fan out over the context's ParallelConfig; merging is per-slot, so the
/// result is bit-identical at any thread count.
UtilizationDistribution utilization_distribution(
    const AnalysisContext& ctx, CloudType cloud, std::size_t max_vms = 1500);

/// Hourly used-core demand of one region: sum over VMs of
/// utilization × cores. With `max_vms` > 0 the population is stride-sampled
/// and the result rescaled, so the series stays an unbiased estimate of the
/// full demand. Pass an invalid RegionId to aggregate all regions.
/// Accumulation uses parallel_reduce's fixed chunk grid, so the summation
/// order — and with it every floating-point bit — is a function of the
/// population only, never of the thread count.
stats::TimeSeries region_used_cores_hourly(const AnalysisContext& ctx,
                                           CloudType cloud, RegionId region,
                                           std::size_t max_vms = 3000);

}  // namespace cloudlens::analysis
