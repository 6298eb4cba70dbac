#include "policies/oversub_placement.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/stride_sample.h"
#include "stats/descriptive.h"

namespace cloudlens::policies {
namespace {

/// First-fit-decreasing bin packing; returns each item's bin index.
std::vector<std::size_t> pack_ffd(const std::vector<double>& sizes,
                                  double capacity, std::size_t* bins_used) {
  std::vector<std::size_t> order(sizes.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sizes[a] > sizes[b];
  });
  std::vector<double> bin_free;
  std::vector<std::size_t> assignment(sizes.size(), 0);
  for (const std::size_t i : order) {
    CL_CHECK_MSG(sizes[i] <= capacity,
                 "item larger than node capacity cannot be packed");
    bool placed = false;
    for (std::size_t b = 0; b < bin_free.size(); ++b) {
      if (bin_free[b] >= sizes[i]) {
        bin_free[b] -= sizes[i];
        assignment[i] = b;
        placed = true;
        break;
      }
    }
    if (!placed) {
      bin_free.push_back(capacity - sizes[i]);
      assignment[i] = bin_free.size() - 1;
    }
  }
  *bins_used = bin_free.size();
  return assignment;
}

}  // namespace

OversubPlacementReport simulate_oversubscribed_placement(
    const TraceStore& trace, CloudType cloud,
    const OversubPlacementOptions& options) {
  CL_CHECK(options.safety_quantile > 0 && options.safety_quantile <= 1.0);
  CL_CHECK(options.node_cores > 0);
  const TimeGrid& grid = trace.telemetry_grid();

  // Sample window-covering VMs and materialize their demand series.
  std::vector<VmId> candidates;
  for (const auto& vm : trace.vms()) {
    if (vm.cloud != cloud || !vm.covers(grid) || !vm.utilization) continue;
    if (vm.cores > options.node_cores) continue;  // cannot repack
    candidates.push_back(vm.id);
  }
  std::vector<double> scratch;
  std::vector<std::vector<double>> demand;  // per VM, per interval
  std::vector<double> full_size, effective_size;
  for (const VmId id : stride_sample(std::move(candidates), options.max_vms)) {
    const auto& vm = trace.vm(id);
    const std::span<const double> row = trace.telemetry_row(id, scratch);
    std::vector<double> d(grid.count);
    for (std::size_t t = 0; t < grid.count; ++t) d[t] = vm.cores * row[t];
    effective_size.push_back(
        std::max(0.01, stats::quantile(d, options.safety_quantile)));
    full_size.push_back(vm.cores);
    demand.push_back(std::move(d));
  }

  OversubPlacementReport report;
  report.vms_packed = demand.size();
  if (demand.empty()) return report;

  std::size_t baseline_bins = 0, oversub_bins = 0;
  (void)pack_ffd(full_size, options.node_cores, &baseline_bins);
  const auto assignment =
      pack_ffd(effective_size, options.node_cores, &oversub_bins);
  report.baseline_nodes = baseline_bins;
  report.oversub_nodes = oversub_bins;
  report.nodes_saved_fraction =
      baseline_bins > 0
          ? 1.0 - double(oversub_bins) / double(baseline_bins)
          : 0.0;

  // Replay true demand against the consolidated layout.
  std::vector<std::vector<double>> node_demand(
      oversub_bins, std::vector<double>(grid.count, 0.0));
  for (std::size_t i = 0; i < demand.size(); ++i) {
    auto& nd = node_demand[assignment[i]];
    for (std::size_t t = 0; t < grid.count; ++t) nd[t] += demand[i][t];
  }
  std::size_t hot = 0, total = 0;
  double worst = 0;
  for (const auto& nd : node_demand) {
    for (const double d : nd) {
      ++total;
      if (d > options.node_cores) ++hot;
      worst = std::max(worst, d / options.node_cores);
    }
  }
  report.hot_interval_share = total ? double(hot) / double(total) : 0.0;
  report.worst_node_pressure = worst;
  return report;
}

}  // namespace cloudlens::policies
