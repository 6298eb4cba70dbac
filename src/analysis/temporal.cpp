#include "analysis/temporal.h"

#include <algorithm>

#include "analysis/context.h"
#include "analysis/record_stream.h"
#include "common/check.h"
#include "stats/descriptive.h"

namespace cloudlens::analysis {
namespace {

bool in_region(const VmRecord& vm, RegionId region) {
  return !region.valid() || vm.region == region;
}

}  // namespace

std::vector<double> vm_lifetimes(const AnalysisContext& ctx, CloudType cloud,
                                 SimTime window_start, SimTime window_end) {
  auto phase = ctx.phase("analysis.vm_lifetimes");
  std::vector<double> out;
  for_each_vm_group(ctx.trace(), [&](std::span<const VmRecord> vms) {
    for (const auto& vm : vms) {
      if (vm.cloud != cloud || !vm.ended()) continue;
      if (vm.created < window_start || vm.deleted > window_end) continue;
      out.push_back(static_cast<double>(vm.lifetime()));
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

double shortest_bin_share(const std::vector<double>& lifetimes,
                          double bin_edge_seconds) {
  if (lifetimes.empty()) return 0.0;
  std::size_t n = 0;
  for (double x : lifetimes) {
    if (x < bin_edge_seconds) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(lifetimes.size());
}

stats::TimeSeries vm_count_per_hour(const AnalysisContext& ctx,
                                    CloudType cloud, RegionId region,
                                    const TimeGrid& grid) {
  auto phase = ctx.phase("analysis.vm_count_per_hour");
  const TraceStore& trace = ctx.trace();
  stats::TimeSeries out(grid);
  // Sweep-line over create/delete events clamped to the grid.
  std::vector<std::pair<SimTime, int>> events;
  std::int64_t base = 0;  // VMs alive before the grid starts
  for_each_vm_group(trace, [&](std::span<const VmRecord> vms) {
    for (const auto& vm : vms) {
      if (vm.cloud != cloud || !in_region(vm, region)) continue;
      if (vm.created < grid.start) {
        if (vm.deleted > grid.start) ++base;
      } else if (vm.created < grid.end()) {
        events.emplace_back(vm.created, +1);
      }
      if (vm.deleted > grid.start && vm.deleted < grid.end() &&
          vm.created < grid.end()) {
        events.emplace_back(vm.deleted, -1);
      }
    }
  });
  std::sort(events.begin(), events.end());

  std::int64_t alive = base;
  std::size_t e = 0;
  for (std::size_t i = 0; i < grid.count; ++i) {
    const SimTime t = grid.at(i);
    while (e < events.size() && events[e].first <= t) {
      alive += events[e].second;
      ++e;
    }
    out[i] = static_cast<double>(alive);
  }
  return out;
}

stats::TimeSeries creations_per_hour(const AnalysisContext& ctx,
                                     CloudType cloud, RegionId region,
                                     const TimeGrid& grid) {
  auto phase = ctx.phase("analysis.creations_per_hour");
  stats::TimeSeries out(grid);
  // Integer counts: bin increments are exact, so group order is moot.
  for_each_vm_group(ctx.trace(), [&](std::span<const VmRecord> vms) {
    for (const auto& vm : vms) {
      if (vm.cloud != cloud || !in_region(vm, region)) continue;
      if (!grid.contains(vm.created)) continue;
      out[grid.index_of(vm.created)] += 1.0;
    }
  });
  return out;
}

stats::TimeSeries removals_per_hour(const AnalysisContext& ctx,
                                    CloudType cloud, RegionId region,
                                    const TimeGrid& grid) {
  auto phase = ctx.phase("analysis.removals_per_hour");
  const TraceStore& trace = ctx.trace();
  stats::TimeSeries out(grid);
  for_each_vm_group(trace, [&](std::span<const VmRecord> vms) {
    for (const auto& vm : vms) {
      if (vm.cloud != cloud || !in_region(vm, region) || !vm.ended()) {
        continue;
      }
      if (!grid.contains(vm.deleted)) continue;
      out[grid.index_of(vm.deleted)] += 1.0;
    }
  });
  return out;
}

std::vector<double> creation_cv_by_region(const AnalysisContext& ctx,
                                          CloudType cloud,
                                          const TimeGrid& grid) {
  auto phase = ctx.phase("analysis.creation_cv_by_region");
  const TraceStore& trace = ctx.trace();
  // One sweep bins every creation into its region's series; region ids are
  // dense topology indices (the invalid id lies past the end, so VMs with
  // no region are skipped). Integer counts: bin order is moot.
  std::vector<stats::TimeSeries> by_region(trace.topology().regions().size(),
                                           stats::TimeSeries(grid));
  for_each_vm_group(trace, [&](std::span<const VmRecord> vms) {
    for (const auto& vm : vms) {
      if (vm.cloud != cloud || vm.region.value() >= by_region.size()) continue;
      if (!grid.contains(vm.created)) continue;
      by_region[vm.region.value()][grid.index_of(vm.created)] += 1.0;
    }
  });
  std::vector<double> out;
  for (const auto& series : by_region) {
    if (series.mean() <= 0) continue;
    out.push_back(stats::coefficient_of_variation(series.values()));
  }
  ctx.count(obs::Counter::kAnalysisSeriesRolledUp, out.size());
  return out;
}

}  // namespace cloudlens::analysis
