// Oversubscribed placement simulation.
//
// The per-node evaluation in oversub.h answers "how much reservation can
// existing nodes shed?". This module answers the operator's next question:
// if VMs were *packed* by their chance-constrained effective size instead
// of their full allocation, how many nodes does the same population need,
// and how often do the consolidated nodes run hot? It re-packs a sample of
// window-covering VMs with first-fit-decreasing under both sizing rules and
// replays the true demand against the resulting layout.
#pragma once

#include <cstddef>
#include <vector>

#include "cloudsim/trace.h"

namespace cloudlens::policies {

struct OversubPlacementOptions {
  /// Chance-constraint level for a VM's effective size: the q-quantile of
  /// its observed demand (cores × utilization).
  double safety_quantile = 0.99;
  /// Node capacity used for the re-packing (cores).
  double node_cores = 64;
  /// Deterministic stride subsampling of the cloud's window-covering
  /// population (0 = all). Above this many VMs, every (VMs / max_vms)-th
  /// one is packed; the stride rounds down, so fewer than 2 × max_vms VMs
  /// are packed in full, and a larger population packs between max_vms
  /// and 1.5 × max_vms of them.
  std::size_t max_vms = 1500;
};

struct OversubPlacementReport {
  std::size_t vms_packed = 0;
  /// Nodes needed when VMs occupy their full allocated cores.
  std::size_t baseline_nodes = 0;
  /// Nodes needed when VMs occupy their q-quantile effective size.
  std::size_t oversub_nodes = 0;
  /// 1 - oversub/baseline: the consolidation win.
  double nodes_saved_fraction = 0;
  /// Share of (node × 5-min interval) where the oversubscribed layout's
  /// true aggregate demand exceeded the physical cores.
  double hot_interval_share = 0;
  /// Worst observed node demand as a multiple of node capacity.
  double worst_node_pressure = 0;
};

OversubPlacementReport simulate_oversubscribed_placement(
    const TraceStore& trace, CloudType cloud,
    const OversubPlacementOptions& options = {});

}  // namespace cloudlens::policies
