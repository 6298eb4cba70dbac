// Ablation — classifier threshold sensitivity (Fig. 5(d)'s method).
// Sweeps the stable-σ cutoff and the periodicity-score thresholds and
// reports classification accuracy against the generator's planted ground
// truth, showing the default operating point sits on a plateau.
#include "analysis/classifier.h"
#include "bench_common.h"
#include "common/table.h"
#include "workloads/patterns.h"

using namespace cloudlens;

namespace {

/// Accuracy of `options` against planted labels over covering VMs.
struct Accuracy {
  double overall = 0;
  std::size_t evaluated = 0;
};

Accuracy measure(const TraceStore& trace,
                 const analysis::ClassifierOptions& options,
                 std::size_t max_vms) {
  const TimeGrid& grid = trace.telemetry_grid();
  // The sweep re-classifies the same VMs under 15+ threshold settings;
  // the trace serves them from the panel main() builds, so each sweep
  // point pays only for the ACF tests, not for re-evaluating every
  // utilization model.
  std::vector<double> scratch;
  Accuracy acc;
  std::size_t correct = 0;
  std::size_t seen = 0;
  for (const auto& vm : trace.vms()) {
    if (!vm.covers(grid) || !vm.utilization) continue;
    ++seen;
    if (seen % 7 != 0) continue;  // stride for speed
    const auto truth = workloads::ground_truth_pattern(vm.utilization.get());
    if (!truth) continue;
    const std::span<const double> row = trace.telemetry_row(vm.id, scratch);
    const auto predicted = analysis::classify(row, grid, options);
    // PatternType and UtilizationClass share the enum order.
    if (static_cast<int>(predicted) == static_cast<int>(*truth)) ++correct;
    ++acc.evaluated;
    if (acc.evaluated >= max_vms) break;
  }
  if (acc.evaluated)
    acc.overall = double(correct) / double(acc.evaluated);
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  const auto scenario = bench::make_bench_scenario(args);
  scenario.trace->build_telemetry_panel();
  const TraceStore& trace = *scenario.trace;

  bench::banner("Ablation: stable-sigma threshold sweep");
  TextTable t1({"stable_stddev_max", "accuracy vs planted", "VMs"});
  double best_default = 0;
  for (const double sigma : {0.005, 0.02, 0.045, 0.09, 0.18}) {
    analysis::ClassifierOptions options;
    options.stable_stddev_max = sigma;
    const auto acc = measure(trace, options, 600);
    if (sigma == 0.045) best_default = acc.overall;
    t1.row().add(sigma, 3).add(acc.overall, 3).add(acc.evaluated);
  }
  std::printf("%s", t1.to_string().c_str());

  bench::banner("Ablation: periodicity-score threshold sweep");
  TextTable t2({"diurnal_min", "hourly_min", "accuracy vs planted"});
  for (const double d : {0.1, 0.3, 0.6}) {
    for (const double h : {0.08, 0.18, 0.5}) {
      analysis::ClassifierOptions options;
      options.diurnal_score_min = d;
      options.hourly_score_min = h;
      const auto acc = measure(trace, options, 600);
      t2.row().add(d, 2).add(h, 2).add(acc.overall, 3);
    }
  }
  std::printf("%s", t2.to_string().c_str());

  bench::banner("Shape checks");
  bench::ShapeChecks checks;
  checks.expect(best_default > 0.75,
                "default thresholds recover >75% of planted labels");
  {
    // Degenerate thresholds must hurt.
    analysis::ClassifierOptions everything_stable;
    everything_stable.stable_stddev_max = 10.0;
    const auto degenerate = measure(trace, everything_stable, 600);
    checks.expect(degenerate.overall < best_default,
                  "degenerate thresholds underperform the default");
  }
  return checks.exit_code();
}
