#include "analysis/classifier.h"

#include <vector>

#include "analysis/context.h"
#include "analysis/record_stream.h"
#include "common/stride_sample.h"
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

  // Deterministic stride subsampling keeps results reproducible.
  const std::vector<VmId> sampled = stride_sample(
      collect_vm_ids(trace,
                     [&](const VmRecord& vm) {
                       return vm.cloud == cloud && vm.covers(grid) &&
                              vm.utilization != nullptr;
                     }),
      max_vms);

  // Hot path: each sampled VM reads its telemetry row and runs the
  // ACF/periodicity tests. Per-VM labels land in independent slots, so the
  // fan-out is thread-count- and shard-invariant; the tally below walks
  // them in candidate order.
  std::vector<UtilizationClass> labels(sampled.size(),
                                       UtilizationClass::kStable);
  stream_by_shard(
      trace, sampled.size(), [&](std::size_t k) { return sampled[k]; },
      [&](std::size_t k) {
        std::vector<double> scratch;
        labels[k] = classify(trace.telemetry_row(sampled[k], scratch), grid,
                             options);
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
