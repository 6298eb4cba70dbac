#include "analysis/utilization.h"

#include <algorithm>

#include "analysis/context.h"
#include "analysis/record_stream.h"
#include "common/check.h"
#include "common/stride_sample.h"
#include "stats/descriptive.h"

namespace cloudlens::analysis {

UtilizationDistribution utilization_distribution(const AnalysisContext& ctx,
                                                 CloudType cloud,
                                                 std::size_t max_vms) {
  auto phase = ctx.phase("analysis.utilization_distribution");
  const TraceStore& trace = ctx.trace();
  const ParallelConfig& parallel = ctx.parallel();
  const TimeGrid& grid = trace.telemetry_grid();

  const std::vector<VmId> sampled = stride_sample(
      collect_vm_ids(trace,
                     [&](const VmRecord& vm) {
                       return vm.cloud == cloud && vm.covers(grid) &&
                              vm.utilization != nullptr;
                     }),
      max_vms);

  // Hot path #1: per-VM hourly roll-up of the telemetry row. Slot-per-VM
  // fan-out, grouped by record shard when the population is sharded; the
  // assembled vector is the same either way.
  CL_CHECK(grid.step > 0 && kHour % grid.step == 0);
  const std::size_t factor = static_cast<std::size_t>(kHour / grid.step);
  const TimeGrid hourly_grid{grid.start, kHour, grid.count / factor};
  std::vector<stats::TimeSeries> hourly(sampled.size());
  stream_by_shard(
      trace, sampled.size(), [&](std::size_t k) { return sampled[k]; },
      [&](std::size_t k) {
        std::vector<double> row_scratch, hourly_scratch;
        const std::span<const double> row =
            trace.hourly_row(sampled[k], row_scratch, hourly_scratch);
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
  std::vector<VmId> candidates =
      collect_vm_ids(trace, [&](const VmRecord& vm) {
        return vm.cloud == cloud && vm.utilization != nullptr &&
               (!region.valid() || vm.region == region);
      });
  stats::TimeSeries used(grid);
  if (candidates.empty()) return used.hourly_mean();
  const std::size_t population = candidates.size();
  const std::vector<VmId> sampled =
      stride_sample(std::move(candidates), max_vms);

  // Chunked deterministic reduction: each fixed chunk of the strided
  // population accumulates its own series; partials merge in chunk order,
  // so the floating-point sum is reproducible at any thread count.
  // Telemetry rows are zero outside a VM's life, so the unconditional
  // accumulation is bit-identical to an alive-gated one.
  used = parallel_reduce<stats::TimeSeries>(
      sampled.size(), stats::TimeSeries(grid),
      [&](stats::TimeSeries& acc, std::size_t k) {
        const auto& vm = trace.vm(sampled[k]);
        std::vector<double> scratch;
        const std::span<const double> row = trace.telemetry_row(vm.id, scratch);
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
  release_paged_shards(trace);

  // Rescale the stride sample back to the full population.
  used.scale(static_cast<double>(population) /
             static_cast<double>(sampled.size()));
  ctx.count(obs::Counter::kAnalysisSeriesRolledUp, sampled.size());
  return used.hourly_mean();
}

}  // namespace cloudlens::analysis
