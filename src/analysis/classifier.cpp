#include "analysis/classifier.h"

#include <vector>

#include "analysis/context.h"
#include "analysis/record_stream.h"
#include "cloudsim/telemetry_panel.h"
#include "stats/descriptive.h"
#include "stats/fft.h"
#include "stats/periodicity.h"

namespace cloudlens::analysis {
namespace {

/// Periodicity cascade shared by both classify overloads (runs only when
/// the series is not stable). The ACF — the expensive part, one FFT round
/// trip — is computed once and shared by both period probes; scoring it per
/// candidate is bit-identical to scoring each period from scratch.
UtilizationClass classify_periodic(std::span<const double> utilization,
                                   SimDuration step,
                                   const ClassifierOptions& options) {
  const auto acf = stats::autocorrelation(utilization);

  // Hourly-peak is tested before diurnal: it is "a special diurnal pattern"
  // (its daytime envelope also produces 24h periodicity), so the 1h test
  // must take precedence.
  if (stats::periodicity_score_acf(acf, step, kHour) >=
      options.hourly_score_min)
    return UtilizationClass::kHourlyPeak;

  if (stats::periodicity_score_acf(acf, step, kDay) >=
      options.diurnal_score_min)
    return UtilizationClass::kDiurnal;

  return UtilizationClass::kIrregular;
}

}  // namespace

std::string_view to_string(UtilizationClass c) {
  switch (c) {
    case UtilizationClass::kDiurnal: return "diurnal";
    case UtilizationClass::kStable: return "stable";
    case UtilizationClass::kIrregular: return "irregular";
    default: return "hourly-peak";
  }
}

UtilizationClass classify(const stats::TimeSeries& utilization,
                          const ClassifierOptions& options) {
  const double sd = stats::stddev(utilization.values());
  if (sd <= options.stable_stddev_max) return UtilizationClass::kStable;
  return classify_periodic(utilization.values(), utilization.grid().step,
                           options);
}

UtilizationClass classify(std::span<const double> utilization,
                          const TimeGrid& grid,
                          const ClassifierOptions& options) {
  const double sd = stats::stddev(utilization);
  if (sd <= options.stable_stddev_max) return UtilizationClass::kStable;
  return classify_periodic(utilization, grid.step, options);
}

PatternShares classify_population(const AnalysisContext& ctx, CloudType cloud,
                                  std::size_t max_vms,
                                  const ClassifierOptions& options) {
  auto phase = ctx.phase("analysis.classify_population");
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

  // Deterministic stride subsampling keeps results reproducible.
  std::size_t stride = 1;
  if (max_vms > 0 && candidates.size() > max_vms)
    stride = candidates.size() / max_vms;

  const std::size_t sampled =
      candidates.empty() ? 0 : (candidates.size() + stride - 1) / stride;

  // Hot path: each strided VM pulls its panel row (or evaluates it once
  // into a scratch buffer when there is no panel) and runs the
  // ACF/periodicity tests. Per-VM labels land in independent slots, so the
  // fan-out is thread-count- and shard-invariant; the tally below walks
  // them in candidate order.
  std::vector<UtilizationClass> labels(sampled, UtilizationClass::kStable);
  stream_by_shard(
      trace, sampled, [&](std::size_t k) { return candidates[k * stride]; },
      [&](std::size_t k) {
        std::vector<double> scratch;
        const std::span<const double> row = vm_telemetry_row(
            trace, panel, candidates[k * stride], grid, scratch);
        labels[k] = classify(row, grid, options);
      },
      parallel);

  PatternShares shares;
  for (const UtilizationClass label : labels) {
    switch (label) {
      case UtilizationClass::kDiurnal: shares.diurnal += 1; break;
      case UtilizationClass::kStable: shares.stable += 1; break;
      case UtilizationClass::kIrregular: shares.irregular += 1; break;
      case UtilizationClass::kHourlyPeak: shares.hourly_peak += 1; break;
    }
    ++shares.classified;
  }
  if (shares.classified > 0) {
    const auto n = static_cast<double>(shares.classified);
    shares.diurnal /= n;
    shares.stable /= n;
    shares.irregular /= n;
    shares.hourly_peak /= n;
  }
  ctx.count(obs::Counter::kAnalysisVmsClassified, shares.classified);
  return shares;
}

}  // namespace cloudlens::analysis
