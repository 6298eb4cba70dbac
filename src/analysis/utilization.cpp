#include "analysis/utilization.h"

#include <algorithm>

#include "analysis/context.h"
#include "analysis/record_stream.h"
#include "cloudsim/population.h"
#include "cloudsim/telemetry_panel.h"
#include "common/check.h"
#include "stats/descriptive.h"

namespace cloudlens::analysis {

UtilizationDistribution utilization_distribution(const AnalysisContext& ctx,
                                                 CloudType cloud,
                                                 std::size_t max_vms) {
  auto phase = ctx.phase("analysis.utilization_distribution");
  const TraceStore& trace = ctx.trace();
  const ParallelConfig& parallel = ctx.parallel();
  const TimeGrid& grid = trace.telemetry_grid();
  // Use the columnar telemetry cache when the trace holds one.
  const TelemetryPanel* panel = trace.telemetry_panel();

  const std::vector<VmId> candidates =
      collect_vm_ids(trace, [&](const VmRecord& vm) {
        return vm.cloud == cloud && vm.covers(grid) &&
               vm.utilization != nullptr;
      });
  std::size_t stride = 1;
  if (max_vms > 0 && candidates.size() > max_vms)
    stride = candidates.size() / max_vms;

  // Hot path #1: per-VM hourly roll-up of the panel row (or of an
  // identically-computed scratch row when there is no panel). Slot-per-VM
  // fan-out, grouped by record shard when the population is sharded; the
  // assembled vector is the same either way.
  const std::size_t sampled =
      candidates.empty() ? 0 : (candidates.size() + stride - 1) / stride;
  CL_CHECK(grid.step > 0 && kHour % grid.step == 0);
  const std::size_t factor = static_cast<std::size_t>(kHour / grid.step);
  const TimeGrid hourly_grid{grid.start, kHour, grid.count / factor};
  std::vector<stats::TimeSeries> hourly(sampled);
  stream_by_shard(
      trace, sampled, [&](std::size_t k) { return candidates[k * stride]; },
      [&](std::size_t k) {
        std::vector<double> row_scratch, hourly_scratch;
        const std::span<const double> row =
            vm_hourly_row(trace, panel, candidates[k * stride], grid,
                          row_scratch, hourly_scratch);
        hourly[k] = stats::TimeSeries(
            hourly_grid, std::vector<double>(row.begin(), row.end()));
      },
      parallel);

  UtilizationDistribution out;
  out.vms_used = hourly.size();
  CL_CHECK_MSG(!hourly.empty(),
               "no VM covers the telemetry window for this cloud");
  out.weekly = stats::percentile_bands(hourly);

  // Daily distribution: pool every (VM, day, hour) hourly mean into its
  // hour-of-day bucket, then take percentiles per bucket.
  std::vector<std::vector<double>> buckets(24);
  for (const auto& series : hourly) {
    for (std::size_t i = 0; i < series.size(); ++i) {
      buckets[hour_of_day(series.grid().at(i))].push_back(series[i]);
    }
  }
  out.daily_p25.resize(24);
  out.daily_p50.resize(24);
  out.daily_p75.resize(24);
  out.daily_p95.resize(24);
  // Hot path #2: each hour-of-day bucket sorts and extracts its
  // percentiles independently (distinct output slots per hour).
  parallel_for(
      24,
      [&](std::size_t h) {
        auto& b = buckets[h];
        CL_CHECK(!b.empty());
        std::sort(b.begin(), b.end());
        out.daily_p25[h] = stats::quantile_sorted(b, 0.25);
        out.daily_p50[h] = stats::quantile_sorted(b, 0.50);
        out.daily_p75[h] = stats::quantile_sorted(b, 0.75);
        out.daily_p95[h] = stats::quantile_sorted(b, 0.95);
      },
      parallel);
  ctx.count(obs::Counter::kAnalysisSeriesRolledUp, out.vms_used);
  return out;
}

stats::TimeSeries region_used_cores_hourly(const AnalysisContext& ctx,
                                           CloudType cloud, RegionId region,
                                           std::size_t max_vms) {
  auto phase = ctx.phase("analysis.region_used_cores_hourly");
  const TraceStore& trace = ctx.trace();
  const ParallelConfig& parallel = ctx.parallel();
  const TimeGrid& grid = trace.telemetry_grid();
  const TelemetryPanel* panel = trace.telemetry_panel();
  const std::vector<VmId> candidates =
      collect_vm_ids(trace, [&](const VmRecord& vm) {
        return vm.cloud == cloud && vm.utilization != nullptr &&
               (!region.valid() || vm.region == region);
      });
  stats::TimeSeries used(grid);
  if (candidates.empty()) return used.hourly_mean();

  std::size_t stride = 1;
  if (max_vms > 0 && candidates.size() > max_vms)
    stride = candidates.size() / max_vms;
  const std::size_t sampled = (candidates.size() + stride - 1) / stride;

  // Chunked deterministic reduction: each fixed chunk of the strided
  // population accumulates its own series; partials merge in chunk order,
  // so the floating-point sum is reproducible at any thread count. Panel
  // rows are zero outside a VM's life, so the unconditional accumulation
  // is bit-identical to the old alive-gated one.
  used = parallel_reduce<stats::TimeSeries>(
      sampled, stats::TimeSeries(grid),
      [&](stats::TimeSeries& acc, std::size_t k) {
        const auto& vm = trace.vm(candidates[k * stride]);
        std::vector<double> scratch;
        const std::span<const double> row =
            vm_telemetry_row(trace, panel, vm.id, grid, scratch);
        auto& values = acc.mutable_values();
        for (std::size_t t = 0; t < grid.count; ++t)
          values[t] += vm.cores * row[t];
      },
      [](stats::TimeSeries& total, const stats::TimeSeries& partial) {
        total.add(partial);
      },
      parallel);
  // The fixed-chunk partial order is what makes the sum reproducible, so
  // the reduce cannot be regrouped by shard; shards paged in along the way
  // are released here instead (the pool has drained: a serial point).
  if (const PopulationShardStore* pop = trace.population_shards();
      pop != nullptr) {
    pop->evict_over_budget();
  }

  // Rescale the stride sample back to the full population.
  used.scale(static_cast<double>(candidates.size()) /
             static_cast<double>(sampled));
  ctx.count(obs::Counter::kAnalysisSeriesRolledUp, sampled);
  return used.hourly_mean();
}

double vm_mean_utilization(const AnalysisContext& ctx, VmId id) {
  const TraceStore& trace = ctx.trace();
  const TimeGrid& grid = trace.telemetry_grid();
  const auto& vm = trace.vm(id);
  if (!vm.utilization) return 0.0;
  // One panel row read (or one batched evaluation) instead of a per-tick
  // virtual dispatch loop. The mean runs over alive ticks only, exactly as
  // before; alive ticks are the non-gated window of the row.
  const TelemetryPanel* panel = trace.telemetry_panel();
  std::vector<double> scratch;
  const std::span<const double> row =
      vm_telemetry_row(trace, panel, id, grid, scratch);
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t t = 0; t < grid.count; ++t) {
    if (!vm.alive_at(grid.at(t))) continue;
    sum += row[t];
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace cloudlens::analysis
