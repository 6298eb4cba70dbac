#include "cloudsim/telemetry_panel.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/phase_timer.h"

namespace cloudlens {
namespace {

/// ceil(a / b) for a >= 0, b > 0.
inline std::size_t ceil_div(SimDuration a, SimDuration b) {
  return static_cast<std::size_t>((a + b - 1) / b);
}

}  // namespace

void TelemetryPanel::fill_row(const VmRecord& vm, const TimeGrid& grid,
                              std::span<double> out) {
  CL_CHECK(out.size() == grid.count);
  if (!vm.utilization) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  // Alive index window [i0, i1): at(i) >= created and at(i) < deleted.
  std::size_t i0 = 0;
  std::size_t i1 = grid.count;
  if (vm.created > grid.start)
    i0 = std::min(i1, ceil_div(vm.created - grid.start, grid.step));
  if (vm.deleted < grid.end())
    i1 = std::min(i1, ceil_div(vm.deleted - grid.start, grid.step));
  if (i1 <= i0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(i0), 0.0);
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(i1), out.end(), 0.0);
  // Batched evaluation over the alive sub-grid. Sub-grid tick instants are
  // exactly the parent grid's, so the samples are bit-identical to the
  // per-tick at(grid.at(i)) loop.
  const TimeGrid alive{grid.at(i0), grid.step, i1 - i0};
  vm.utilization->sample(alive, out.subspan(i0, i1 - i0));
}

void TelemetryPanel::hourly_from_row(std::span<const double> row,
                                     const TimeGrid& grid,
                                     std::span<double> out) {
  CL_CHECK(grid.step > 0 && kHour % grid.step == 0);
  const std::size_t factor = static_cast<std::size_t>(kHour / grid.step);
  const std::size_t out_count = row.size() / factor;
  CL_CHECK(out.size() == out_count);
  // Same accumulation order as TimeSeries::downsample_mean: serial sum of
  // `factor` consecutive samples, then one division.
  for (std::size_t i = 0; i < out_count; ++i) {
    double acc = 0;
    for (std::size_t j = 0; j < factor; ++j) acc += row[i * factor + j];
    out[i] = acc / static_cast<double>(factor);
  }
}

TelemetryPanel::TelemetryPanel(const TraceStore& trace, TimeGrid grid,
                               const ParallelConfig& parallel)
    : grid_(grid), rows_(trace.vms().size()) {
  // Build metrics: one "panel.build" span + latency sample, rows filled,
  // and resident-size gauges. Write-only — the fill itself is untouched.
  obs::PhaseTimer phase("panel.build", obs::Histogram::kPanelBuildSeconds,
                        obs::Counter::kPanelBuilds);
  CL_CHECK(grid_.count > 0);
  // Uninitialized: fill_row writes every tick, so the workers below are
  // the first to touch each page (no serial zero-fill ahead of them).
  data_ = std::make_unique_for_overwrite<double[]>(rows_ * grid_.count);

  const std::span<const VmRecord> vms = trace.vms();
  // Deterministic parallel fill: VM v writes only its own row, so the
  // matrix is bit-identical at any thread count.
  parallel_for(
      rows_,
      [&](std::size_t v) {
        fill_row(vms[v], grid_, {data_.get() + v * grid_.count, grid_.count});
      },
      parallel);

  auto& metrics = obs::MetricsRegistry::global();
  metrics.add(obs::Counter::kPanelRowsFilled, rows_);
  metrics.set(obs::Gauge::kPanelVms, static_cast<double>(rows_));
  metrics.set(obs::Gauge::kPanelBytes, static_cast<double>(memory_bytes()));
}

std::span<const double> vm_telemetry_row(const TraceStore& trace,
                                         const TelemetryPanel* panel, VmId id,
                                         const TimeGrid& grid,
                                         std::vector<double>& scratch) {
  if (panel != nullptr && panel->grid() == grid &&
      id.value() < panel->vm_count()) {
    obs::MetricsRegistry::global().add(obs::Counter::kPanelRowHits);
    return panel->row(id);
  }
  obs::MetricsRegistry::global().add(obs::Counter::kPanelRowMisses);
  scratch.resize(grid.count);
  TelemetryPanel::fill_row(trace.vm(id), grid, scratch);
  return scratch;
}

std::span<const double> vm_hourly_row(const TraceStore& trace,
                                      const TelemetryPanel* panel, VmId id,
                                      const TimeGrid& grid,
                                      std::vector<double>& row_scratch,
                                      std::vector<double>& hourly_scratch) {
  const std::span<const double> row =
      vm_telemetry_row(trace, panel, id, grid, row_scratch);
  CL_CHECK(grid.step > 0 && kHour % grid.step == 0);
  const std::size_t factor = static_cast<std::size_t>(kHour / grid.step);
  hourly_scratch.resize(row.size() / factor);
  TelemetryPanel::hourly_from_row(row, grid, hourly_scratch);
  return hourly_scratch;
}

}  // namespace cloudlens
