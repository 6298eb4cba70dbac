// Region rebalancing of region-agnostic workloads (Sec. IV-B implication
// and the paper's Azure pilot: shifting Service-X from Canada-A to Canada-B
// cut Canada-A's underutilized-core percentage from 23% to 16% and its core
// utilization rate from 42% to 37%).
#pragma once

#include <optional>
#include <vector>

#include "cloudsim/trace.h"
#include "common/parallel.h"

namespace cloudlens::policies {

/// Capacity-health metrics of one region (one cloud), at a snapshot.
struct RegionLoad {
  RegionId region;
  double total_cores = 0;      ///< physical cores in the region's clusters
  double allocated_cores = 0;  ///< cores of VMs alive at the snapshot
  double used_cores = 0;       ///< Σ mean-utilization × cores
  /// allocated / total — the paper's "core utilization rate".
  double core_utilization_rate = 0;
  /// Cores allocated to VMs whose mean utilization is below the threshold,
  /// as a fraction of total cores — the "underutilized core percentage".
  double underutilized_core_pct = 0;
};

struct RebalanceOptions {
  SimTime snapshot = 2 * kDay + 14 * kHour;
  /// A VM with mean utilization below this is "underutilized".
  double underutilized_threshold = 0.10;
  /// Minimum cross-region utilization correlation for a service to be
  /// treated as region-agnostic (and therefore safely movable).
  double region_agnostic_correlation = 0.7;
  /// VMs sampled per region when testing region-agnosticism.
  std::size_t max_vms_per_region = 15;
};

// Every entry point below reads each VM's mean utilization from its
// telemetry row once, in one parallel per-VM pass over `parallel` with one
// slot per VM id, then sums the slots serially in VM-id order — so results
// are bit-identical at any thread count.

RegionLoad region_load(const TraceStore& trace, CloudType cloud,
                       RegionId region, const RebalanceOptions& options = {},
                       const ParallelConfig& parallel = {});

std::vector<RegionLoad> all_region_loads(const TraceStore& trace,
                                         CloudType cloud,
                                         const RebalanceOptions& options = {},
                                         const ParallelConfig& parallel = {});

struct ShiftRecommendation {
  ServiceId service;
  RegionId from;
  RegionId to;
  double cores_moved = 0;
  double service_mean_utilization = 0;
};

/// Pick the unhealthiest source region (highest underutilized-core share),
/// a region-agnostic service with low mean utilization deployed there, and
/// the destination region with the most idle capacity that can absorb the
/// move. Returns nullopt when no region-agnostic service qualifies.
std::optional<ShiftRecommendation> recommend_shift(
    const TraceStore& trace, CloudType cloud,
    const RebalanceOptions& options = {}, const ParallelConfig& parallel = {});

struct ShiftOutcome {
  ShiftRecommendation shift;
  RegionLoad source_before, source_after;
  RegionLoad dest_before, dest_after;
};

/// What-if evaluation: recompute both regions' loads with the service's
/// source-region VMs accounted in the destination instead.
ShiftOutcome evaluate_shift(const TraceStore& trace, CloudType cloud,
                            const ShiftRecommendation& shift,
                            const RebalanceOptions& options = {},
                            const ParallelConfig& parallel = {});

}  // namespace cloudlens::policies
