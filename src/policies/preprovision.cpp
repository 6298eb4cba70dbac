#include "policies/preprovision.h"

#include <algorithm>

#include "analysis/classifier.h"
#include "common/check.h"

namespace cloudlens::policies {
namespace {

/// Is `t` within the predictive window of a :00/:30 mark?
bool near_mark(SimTime t, SimDuration lead, SimDuration hold) {
  const SimDuration half = kHour / 2;
  const SimTime in_half = ((t % half) + half) % half;
  // Window wraps the mark: [half - lead, half) U [0, hold).
  return in_half >= half - lead || in_half < hold;
}

}  // namespace

PreprovisionReport evaluate_preprovisioning(
    const TraceStore& trace, CloudType cloud,
    const PreprovisionOptions& options) {
  const TimeGrid& grid = trace.telemetry_grid();
  PreprovisionReport report;
  report.demand = stats::TimeSeries(grid);

  // Aggregate demand of hourly-peak VMs, streaming one telemetry row per
  // VM — the row feeds both the classifier and the demand accumulation.
  std::vector<double> scratch;
  auto& demand = report.demand.mutable_values();
  std::size_t used = 0;
  for (const auto& vm : trace.vms()) {
    if (options.max_vms > 0 && used >= options.max_vms) break;
    if (vm.cloud != cloud || !vm.covers(grid) || !vm.utilization) continue;
    const std::span<const double> row = trace.telemetry_row(vm.id, scratch);
    if (analysis::classify(row, grid) !=
        analysis::UtilizationClass::kHourlyPeak)
      continue;
    ++used;
    for (std::size_t t = 0; t < grid.count; ++t)
      demand[t] += vm.cores * row[t];
  }
  report.vms_used = used;
  CL_CHECK_MSG(used > 0, "no hourly-peak VMs found in this cloud");

  // Reactive controller: trailing average + headroom (lagging by one step).
  const auto window =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   options.trailing_window / grid.step));
  report.reactive_capacity = stats::TimeSeries(grid);
  double excess_sum = 0;
  std::size_t excess_n = 0;
  for (std::size_t t = 0; t < grid.count; ++t) {
    double acc = 0;
    std::size_t n = 0;
    for (std::size_t k = 1; k <= window && k <= t; ++k) {
      acc += report.demand[t - k];
      ++n;
    }
    const double trailing = n ? acc / static_cast<double>(n)
                              : report.demand[t];
    report.reactive_capacity[t] = trailing * (1.0 + options.headroom);
    const double excess = report.demand[t] - trailing;
    if (excess > 0) {
      excess_sum += excess;
      ++excess_n;
    }
  }
  const double buffer =
      options.buffer_scale * (excess_n ? excess_sum / double(excess_n) : 0.0);

  // Predictive controller: reactive + pre-provisioned buffer near marks.
  report.predictive_capacity = report.reactive_capacity;
  for (std::size_t t = 0; t < grid.count; ++t) {
    if (near_mark(grid.at(t), options.pre_lead, options.pre_hold))
      report.predictive_capacity[t] += buffer;
  }

  std::size_t reactive_violations = 0, predictive_violations = 0;
  for (std::size_t t = 0; t < grid.count; ++t) {
    if (report.demand[t] > report.reactive_capacity[t]) ++reactive_violations;
    if (report.demand[t] > report.predictive_capacity[t])
      ++predictive_violations;
  }
  const auto n = static_cast<double>(grid.count);
  report.reactive_violation_rate = double(reactive_violations) / n;
  report.predictive_violation_rate = double(predictive_violations) / n;
  report.reactive_mean_capacity = report.reactive_capacity.mean();
  report.predictive_mean_capacity = report.predictive_capacity.mean();
  return report;
}

}  // namespace cloudlens::policies
