#include "policies/rebalance.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "analysis/context.h"
#include "analysis/spatial.h"
#include "common/check.h"

namespace cloudlens::policies {
namespace {

/// Mean utilization over the telemetry window (coarse 20-minute sampling —
/// load metrics do not need 5-minute resolution): the mean of every fourth
/// tick of the VM's row that lies inside its alive window. Dead ticks are
/// skipped, not averaged in as zeros.
double vm_mean_util(const TraceStore& trace, const VmRecord& vm) {
  if (!vm.utilization) return 0.0;
  const TimeGrid& grid = trace.telemetry_grid();
  std::vector<double> scratch;  // the row, when no panel holds it
  const std::span<const double> row = trace.telemetry_row(vm.id, scratch);
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t t = 0; t < grid.count; t += 4) {
    if (!vm.alive_at(grid.at(t))) continue;
    sum += row[t];
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

/// vm_mean_util of every VM of `cloud` alive at the snapshot whose region
/// `wanted` accepts, in its VM id's slot (every other slot stays 0). One
/// parallel per-VM pass in which each task writes only its own slot.
std::vector<double> mean_utils(const TraceStore& trace, CloudType cloud,
                               const RebalanceOptions& options,
                               const std::function<bool(RegionId)>& wanted,
                               const ParallelConfig& parallel) {
  const std::span<const VmRecord> vms = trace.vms();
  std::vector<double> means(vms.size(), 0.0);
  parallel_for(
      vms.size(),
      [&](std::size_t i) {
        const VmRecord& vm = vms[i];
        if (vm.cloud != cloud || !vm.alive_at(options.snapshot) ||
            !wanted(vm.region))
          return;
        means[vm.id.value()] = vm_mean_util(trace, vm);
      },
      parallel);
  return means;
}

bool any_region(RegionId) { return true; }

/// Region load where each VM's effective region is remapped by `region_of`
/// (identity for the real load; the shift what-if overrides one service).
/// `means` holds mean_utils slots covering every VM mapped to `region`.
RegionLoad load_with_mapping(
    const TraceStore& trace, CloudType cloud, RegionId region,
    const RebalanceOptions& options,
    const std::function<RegionId(const VmRecord&)>& region_of,
    const std::vector<double>& means) {
  RegionLoad load;
  load.region = region;
  load.total_cores = trace.topology().region_total_cores(region, cloud);
  for (const auto& vm : trace.vms()) {
    if (vm.cloud != cloud || !vm.alive_at(options.snapshot)) continue;
    if (region_of(vm) != region) continue;
    load.allocated_cores += vm.cores;
    const double mean_util = means[vm.id.value()];
    load.used_cores += mean_util * vm.cores;
    if (mean_util < options.underutilized_threshold)
      load.underutilized_core_pct += vm.cores;
  }
  if (load.total_cores > 0) {
    load.core_utilization_rate = load.allocated_cores / load.total_cores;
    load.underutilized_core_pct /= load.total_cores;
  }
  return load;
}

RegionId own_region(const VmRecord& vm) { return vm.region; }

std::vector<RegionLoad> loads_of_all_regions(const TraceStore& trace,
                                             CloudType cloud,
                                             const RebalanceOptions& options,
                                             const std::vector<double>& means) {
  std::vector<RegionLoad> out;
  for (const auto& region : trace.topology().regions())
    out.push_back(
        load_with_mapping(trace, cloud, region.id, options, own_region, means));
  return out;
}

}  // namespace

RegionLoad region_load(const TraceStore& trace, CloudType cloud,
                       RegionId region, const RebalanceOptions& options,
                       const ParallelConfig& parallel) {
  const auto means = mean_utils(
      trace, cloud, options, [region](RegionId r) { return r == region; },
      parallel);
  return load_with_mapping(trace, cloud, region, options, own_region, means);
}

std::vector<RegionLoad> all_region_loads(const TraceStore& trace,
                                         CloudType cloud,
                                         const RebalanceOptions& options,
                                         const ParallelConfig& parallel) {
  return loads_of_all_regions(
      trace, cloud, options,
      mean_utils(trace, cloud, options, any_region, parallel));
}

std::optional<ShiftRecommendation> recommend_shift(
    const TraceStore& trace, CloudType cloud, const RebalanceOptions& options,
    const ParallelConfig& parallel) {
  const auto means = mean_utils(trace, cloud, options, any_region, parallel);
  const auto loads = loads_of_all_regions(trace, cloud, options, means);
  if (loads.size() < 2) return std::nullopt;

  // Source: the region with the highest underutilized-core percentage.
  const auto& source = *std::max_element(
      loads.begin(), loads.end(), [](const RegionLoad& a, const RegionLoad& b) {
        return a.underutilized_core_pct < b.underutilized_core_pct;
      });

  // Movable services: region-agnostic per the utilization-similarity test.
  const auto verdicts = analysis::detect_region_agnostic_services(
      AnalysisContext(trace, parallel), cloud,
      options.region_agnostic_correlation, options.max_vms_per_region);

  std::optional<ShiftRecommendation> best;
  double best_score = 0;
  for (const auto& v : verdicts) {
    if (!v.region_agnostic) continue;
    // The service's footprint and mean utilization in the source region.
    double cores = 0, used = 0, underutilized = 0;
    for (const auto& vm : trace.vms()) {
      if (vm.cloud != cloud || vm.service != v.service) continue;
      if (vm.region != source.region || !vm.alive_at(options.snapshot))
        continue;
      cores += vm.cores;
      const double mean_util = means[vm.id.value()];
      used += mean_util * vm.cores;
      if (mean_util < options.underutilized_threshold)
        underutilized += vm.cores;
    }
    if (cores <= 0) continue;
    const double mean_util = used / cores;
    // Moving out underutilized cores is what improves the source region's
    // underutilized-core percentage (the pilot's headline metric), so they
    // dominate the score; footprint idleness breaks ties.
    const double score = underutilized * 10.0 + cores * (1.0 - mean_util);
    if (score > best_score) {
      best_score = score;
      ShiftRecommendation rec;
      rec.service = v.service;
      rec.from = source.region;
      rec.cores_moved = cores;
      rec.service_mean_utilization = mean_util;
      best = rec;
    }
  }
  if (!best) return std::nullopt;

  // Destination: the emptiest region that can absorb the move.
  double best_rate = std::numeric_limits<double>::infinity();
  for (const auto& load : loads) {
    if (load.region == best->from) continue;
    const double free = load.total_cores - load.allocated_cores;
    if (free < best->cores_moved) continue;
    if (load.core_utilization_rate < best_rate) {
      best_rate = load.core_utilization_rate;
      best->to = load.region;
    }
  }
  if (!best->to.valid()) return std::nullopt;
  return best;
}

ShiftOutcome evaluate_shift(const TraceStore& trace, CloudType cloud,
                            const ShiftRecommendation& shift,
                            const RebalanceOptions& options,
                            const ParallelConfig& parallel) {
  CL_CHECK(shift.from.valid() && shift.to.valid() && shift.service.valid());
  // Both regions' VMs, before and after the move (a moved VM's own region
  // is the source).
  const auto means = mean_utils(
      trace, cloud, options,
      [&shift](RegionId r) { return r == shift.from || r == shift.to; },
      parallel);
  ShiftOutcome outcome;
  outcome.shift = shift;
  outcome.source_before =
      load_with_mapping(trace, cloud, shift.from, options, own_region, means);
  outcome.dest_before =
      load_with_mapping(trace, cloud, shift.to, options, own_region, means);

  const auto moved = [&shift](const VmRecord& vm) {
    if (vm.service == shift.service && vm.region == shift.from)
      return shift.to;
    return vm.region;
  };
  outcome.source_after =
      load_with_mapping(trace, cloud, shift.from, options, moved, means);
  outcome.dest_after =
      load_with_mapping(trace, cloud, shift.to, options, moved, means);
  return outcome;
}

}  // namespace cloudlens::policies
