// Chance-constrained resource oversubscription (Sec. III-B implication).
//
// Instead of reserving each VM's full allocated cores (peak reservation),
// the policy reserves, per node, the q-quantile of the node's aggregate
// CPU demand: P(demand <= reservation) >= q. The paper cites 20%-86%
// utilization improvement in Azure depending on the safety level (ref [17]);
// the ablation bench sweeps q to reproduce that range's shape.
#pragma once

#include <cstddef>

#include "cloudsim/trace.h"
#include "common/parallel.h"

namespace cloudlens::policies {

struct OversubscriptionOptions {
  /// Safety level of the chance constraint (e.g. 0.99 = demand may exceed
  /// the reservation in at most 1% of intervals).
  double safety_quantile = 0.99;
  /// Deterministic stride subsampling (0 = all). Above this many
  /// candidates, every (candidates / max_nodes)-th one is evaluated; the
  /// stride rounds down, so a pool of fewer than 2 × max_nodes nodes is
  /// evaluated in full, and a larger one evaluates between max_nodes and
  /// 1.5 × max_nodes of them.
  std::size_t max_nodes = 300;
  /// Only nodes hosting at least this many window-covering VMs count.
  std::size_t min_vms_per_node = 2;
};

struct OversubscriptionReport {
  std::size_t nodes_evaluated = 0;
  /// Σ allocated VM cores over evaluated nodes (the baseline reservation).
  double baseline_reserved_cores = 0;
  /// Σ per-node demand quantiles (the chance-constrained reservation).
  double policy_reserved_cores = 0;
  /// Mean actual demand (used cores).
  double mean_demand_cores = 0;
  /// reservation shrink = 1 - policy/baseline (freed capacity share).
  double reservation_shrink = 0;
  /// Effective-utilization improvement:
  /// (demand/policy_reserved) / (demand/baseline_reserved) - 1.
  double utilization_improvement = 0;
  /// Fraction of (node × interval) where demand exceeded the policy
  /// reservation — should be about 1 - safety_quantile.
  double violation_rate = 0;
};

/// Evaluated nodes fan out over `parallel`, one task per node, each
/// building its node's demand from telemetry rows; the per-node partials
/// are summed serially in node order, so the report is bit-identical at
/// any thread count.
OversubscriptionReport evaluate_oversubscription(
    const TraceStore& trace, CloudType cloud,
    const OversubscriptionOptions& options = {},
    const ParallelConfig& parallel = {});

}  // namespace cloudlens::policies
