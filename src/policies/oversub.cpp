#include "policies/oversub.h"

#include <vector>

#include "common/check.h"
#include "common/stride_sample.h"
#include "stats/descriptive.h"

namespace cloudlens::policies {
namespace {

/// One evaluated node's contribution to the report.
struct NodeDemand {
  double allocated = 0;    ///< Σ allocated VM cores
  double reservation = 0;  ///< demand quantile
  double mean = 0;         ///< mean demand
  std::size_t violations = 0, intervals = 0;
};

}  // namespace

OversubscriptionReport evaluate_oversubscription(
    const TraceStore& trace, CloudType cloud,
    const OversubscriptionOptions& options, const ParallelConfig& parallel) {
  CL_CHECK(options.safety_quantile > 0 && options.safety_quantile <= 1.0);
  const TimeGrid& grid = trace.telemetry_grid();

  // Candidate nodes with enough window-covering VMs.
  std::vector<std::pair<NodeId, std::vector<VmId>>> candidates;
  for (const auto& node : trace.topology().nodes()) {
    if (node.cloud != cloud) continue;
    std::vector<VmId> vms;
    for (const VmId id : trace.vms_on_node(node.id)) {
      const auto& vm = trace.vm(id);
      if (vm.covers(grid) && vm.utilization) vms.push_back(id);
    }
    if (vms.size() >= options.min_vms_per_node)
      candidates.emplace_back(node.id, std::move(vms));
  }

  const auto sampled = stride_sample(std::move(candidates), options.max_nodes);

  // One task per evaluated node: the task owns its demand vector and
  // scratch row, and adds VMs in vms_on_node order and ticks in grid
  // order, so each partial is the serial loop's, bit for bit.
  const auto per_node = parallel_map<NodeDemand>(
      sampled.size(),
      [&](std::size_t k) {
        const std::vector<VmId>& vms = sampled[k].second;
        NodeDemand node;
        std::vector<double> demand(grid.count, 0.0);
        std::vector<double> scratch;
        for (const VmId id : vms) {
          const double cores = trace.vm(id).cores;
          node.allocated += cores;
          const std::span<const double> row = trace.telemetry_row(id, scratch);
          for (std::size_t t = 0; t < grid.count; ++t)
            demand[t] += cores * row[t];
        }
        node.reservation = stats::quantile(demand, options.safety_quantile);
        node.mean = stats::mean(demand);
        for (const double d : demand) {
          if (d > node.reservation) ++node.violations;
        }
        node.intervals = demand.size();
        return node;
      },
      parallel);

  // Merge in node order: the same additions as the serial loop.
  OversubscriptionReport report;
  std::size_t violations = 0, intervals = 0;
  for (const NodeDemand& node : per_node) {
    ++report.nodes_evaluated;
    report.baseline_reserved_cores += node.allocated;
    report.policy_reserved_cores += node.reservation;
    report.mean_demand_cores += node.mean;
    violations += node.violations;
    intervals += node.intervals;
  }

  if (report.policy_reserved_cores > 0 &&
      report.baseline_reserved_cores > 0) {
    report.reservation_shrink =
        1.0 - report.policy_reserved_cores / report.baseline_reserved_cores;
    report.utilization_improvement =
        report.baseline_reserved_cores / report.policy_reserved_cores - 1.0;
  }
  if (intervals > 0)
    report.violation_rate =
        static_cast<double>(violations) / static_cast<double>(intervals);
  return report;
}

}  // namespace cloudlens::policies
