// Telemetry-panel throughput bench.
//
// Measures the repeated-analysis workload the panel was built for: every
// paper figure consumes the same VM × tick utilization matrix, so one
// characterization run evaluates each VM's week many times. The bench runs
// the full analysis suite (pattern shares for both clouds, node/VM
// correlations, utilization bands, cross-region correlations,
// region-agnostic detection, used-cores roll-up) twice per configuration:
//
//   per-tick — the pre-panel cost model: no panel AND every model
//              evaluated through the per-tick virtual at() loop (models are
//              wrapped so their batched sample() overrides can't kick in);
//   batched  — no panel: rows re-derived on demand, but through the
//              hoisted batch samplers (the panel's fill kernel, uncached);
//   panel    — build_telemetry_panel() materializes the columnar cache
//              once, every later pass reads contiguous rows.
//
// Results are bit-identical in all three (see parallel_equivalence_test);
// only wall-clock and memory move. Emits BENCH_telemetry.json with wall-ms,
// peak-RSS, and VM-weeks/s per configuration for CI and EXPERIMENTS.md.
// Each configuration's peak RSS is its own phase's VmHWM (reset before the
// phase), so it includes the resident trace but no earlier phase's peak.
//
// Usage: bench_telemetry [--scale=F] [--seed=N] [--passes=N] [--out=PATH]
//                        [--min-speedup=F]
//
// --min-speedup sets the shape-check gate on the panel-vs-per-tick
// speedup (default 5.0). CI's smoke run lowers it: on a tiny trace the
// fixed analysis overheads dominate and the full ratio is meaningless,
// but checksum identity and panel coverage must still hold.
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "analysis/context.h"
#include "analysis/classifier.h"
#include "analysis/spatial.h"
#include "analysis/utilization.h"
#include "bench_common.h"
#include "cloudsim/telemetry_panel.h"
#include "common/table.h"

using namespace cloudlens;

namespace {

/// One full characterization pass: the panel-consuming analyses a figure
/// reproduction run executes back to back. Returns a value sum so the
/// compiler cannot drop any stage.
double analysis_suite(const TraceStore& trace) {
  double acc = 0;
  for (const CloudType cloud : {CloudType::kPrivate, CloudType::kPublic}) {
    const auto shares = analysis::classify_population(AnalysisContext(trace), cloud, 400);
    acc += shares.diurnal + shares.stable;
  }
  const auto node_rs =
      analysis::node_vm_correlations(AnalysisContext(trace), CloudType::kPrivate, 150);
  acc += node_rs.empty() ? 0.0 : node_rs.front();
  const auto bands =
      analysis::utilization_distribution(AnalysisContext(trace), CloudType::kPublic, 400);
  acc += bands.weekly.p50.empty() ? 0.0 : bands.weekly.p50.front();
  const auto cross =
      analysis::cross_region_correlations(AnalysisContext(trace), CloudType::kPrivate, 150, 25);
  acc += cross.empty() ? 0.0 : cross.front();
  const auto verdicts = analysis::detect_region_agnostic_services(AnalysisContext(trace), CloudType::kPrivate, 0.7, 25);
  acc += static_cast<double>(verdicts.size());
  acc += analysis::region_used_cores_hourly(AnalysisContext(trace), CloudType::kPrivate,
                                            RegionId(), 400)
             .mean();
  return acc;
}

struct Measurement {
  double wall_ms = 0;
  double checksum = 0;
};

/// Forwards at() but deliberately does NOT override sample(), so row fills
/// run the base per-tick virtual loop — the pre-PR evaluation cost.
class PerTickModel final : public UtilizationModel {
 public:
  explicit PerTickModel(std::shared_ptr<const UtilizationModel> inner)
      : inner_(std::move(inner)) {}
  double at(SimTime t) const override { return inner_->at(t); }
  std::string_view kind() const override { return inner_->kind(); }

 private:
  std::shared_ptr<const UtilizationModel> inner_;
};

/// Clone of `trace` (same topology, subscriptions, VM records and ids) with
/// every utilization model wrapped in PerTickModel and no panel: the
/// faithful "before this optimization" trace.
std::unique_ptr<TraceStore> per_tick_clone(const TraceStore& trace) {
  auto clone = std::make_unique<TraceStore>(&trace.topology(),
                                            trace.telemetry_grid());
  for (const auto& svc : trace.services()) clone->add_service(svc);
  for (const auto& sub : trace.subscriptions()) clone->add_subscription(sub);
  for (VmRecord rec : trace.vms()) {  // intentional copy per record
    if (rec.utilization)
      rec.utilization = std::make_shared<PerTickModel>(rec.utilization);
    clone->add_vm(std::move(rec));
  }
  return clone;
}

Measurement run_passes(const TraceStore& trace, int passes) {
  Measurement m;
  const auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p) m.checksum += analysis_suite(trace);
  m.wall_ms = bench::ms_since(start);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::parse_args(argc, argv);
  args.scale = 0.1;  // repeated-analysis default; override with --scale=
  int passes = 3;
  double min_speedup = 5.0;
  std::string out_path = "BENCH_telemetry.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0)
      args.scale = std::atof(argv[i] + 8);
    else if (std::strncmp(argv[i], "--passes=", 9) == 0)
      passes = std::atoi(argv[i] + 9);
    else if (std::strncmp(argv[i], "--out=", 6) == 0)
      out_path = argv[i] + 6;
    else if (std::strncmp(argv[i], "--min-speedup=", 14) == 0)
      min_speedup = std::atof(argv[i] + 14);
  }

  const auto scenario = bench::make_bench_scenario(args);
  TraceStore& trace = *scenario.trace;
  const std::size_t vms = trace.vms().size();

  bench::BenchJson json("telemetry");
  json.meta()
      .num("scale", args.scale)
      .num("seed", static_cast<double>(args.seed))
      .num("passes", passes)
      .num("vms", static_cast<double>(vms));

  bench::banner("Repeated-analysis suite: per-tick baseline");
  Measurement baseline;
  double baseline_rss = 0;
  {
    bench::reset_peak_rss();
    const auto before = per_tick_clone(trace);
    baseline = run_passes(*before, passes);
    baseline_rss = bench::vm_hwm_mib();
  }
  const double baseline_vm_weeks_s =
      1000.0 * static_cast<double>(vms) * passes / baseline.wall_ms;
  std::printf("  %.1f ms for %d passes (%.0f VM-weeks/s)\n", baseline.wall_ms,
              passes, baseline_vm_weeks_s);
  json.record("repeated_analyses_per_tick_baseline")
      .num("wall_ms", baseline.wall_ms)
      .num("peak_rss_mib", baseline_rss)
      .num("vm_weeks_per_s", baseline_vm_weeks_s);

  bench::banner("Repeated-analysis suite: batched samplers (no panel)");
  bench::reset_peak_rss();
  const auto legacy = run_passes(trace, passes);
  const double legacy_rss = bench::vm_hwm_mib();
  const double legacy_vm_weeks_s =
      1000.0 * static_cast<double>(vms) * passes / legacy.wall_ms;
  std::printf("  %.1f ms for %d passes (%.0f VM-weeks/s)\n", legacy.wall_ms,
              passes, legacy_vm_weeks_s);
  json.record("repeated_analyses_batched_no_panel")
      .num("wall_ms", legacy.wall_ms)
      .num("peak_rss_mib", legacy_rss)
      .num("vm_weeks_per_s", legacy_vm_weeks_s);

  bench::banner("Repeated-analysis suite: columnar panel");
  bench::reset_peak_rss();
  // Time the build separately so the JSON shows where the first pass goes.
  const auto build_start = std::chrono::steady_clock::now();
  const TelemetryPanel* panel = trace.build_telemetry_panel();
  const double build_ms = bench::ms_since(build_start);
  const double panel_mib =
      panel ? static_cast<double>(panel->memory_bytes()) / (1024.0 * 1024.0)
            : 0.0;
  const auto with_panel = run_passes(trace, passes);
  const double panel_rss = bench::vm_hwm_mib();
  const double panel_vm_weeks_s =
      1000.0 * static_cast<double>(vms) * passes / with_panel.wall_ms;
  std::printf(
      "  build %.1f ms (%.1f MiB), %.1f ms for %d passes (%.0f VM-weeks/s)\n",
      build_ms, panel_mib, with_panel.wall_ms, passes, panel_vm_weeks_s);
  json.record("repeated_analyses_panel")
      .num("wall_ms", with_panel.wall_ms)
      .num("panel_build_ms", build_ms)
      .num("panel_mib", panel_mib)
      .num("peak_rss_mib", panel_rss)
      .num("vm_weeks_per_s", panel_vm_weeks_s);

  const double speedup =
      with_panel.wall_ms > 0 ? baseline.wall_ms / with_panel.wall_ms : 0.0;
  const double speedup_incl_build =
      baseline.wall_ms / (with_panel.wall_ms + build_ms);
  const double batched_speedup =
      legacy.wall_ms > 0 ? baseline.wall_ms / legacy.wall_ms : 0.0;
  json.record("summary")
      .num("speedup_vs_per_tick", speedup)
      .num("speedup_vs_per_tick_incl_build", speedup_incl_build)
      .num("batched_speedup_vs_per_tick", batched_speedup)
      .num("panel_speedup_vs_batched",
           with_panel.wall_ms > 0 ? legacy.wall_ms / with_panel.wall_ms
                                  : 0.0);

  bench::banner("Summary");
  TextTable table({"config", "wall ms", "VM-weeks/s", "peak RSS MiB"});
  table.row()
      .add("per-tick baseline")
      .add(baseline.wall_ms, 1)
      .add(baseline_vm_weeks_s, 0)
      .add(baseline_rss, 1);
  table.row()
      .add("batched samplers, no panel")
      .add(legacy.wall_ms, 1)
      .add(legacy_vm_weeks_s, 0)
      .add(legacy_rss, 1);
  table.row()
      .add("columnar panel")
      .add(with_panel.wall_ms, 1)
      .add(panel_vm_weeks_s, 0)
      .add(panel_rss, 1);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "  panel vs per-tick baseline: %.1fx (%.1fx including the one-time "
      "build); batched-only: %.1fx\n",
      speedup, speedup_incl_build, batched_speedup);
  json.write(out_path);

  bench::banner("Shape checks");
  bench::ShapeChecks checks;
  checks.expect(with_panel.checksum == legacy.checksum &&
                    with_panel.checksum == baseline.checksum,
                "all three configurations produce identical checksums");
  char gate[96];
  std::snprintf(gate, sizeof gate,
                "panel gives >= %.1fx repeated-analysis speedup over the "
                "per-tick baseline",
                min_speedup);
  checks.expect(speedup >= min_speedup, gate);
  checks.expect(panel != nullptr && panel->vm_count() == vms,
                "panel covers every VM");
  return checks.exit_code();
}
