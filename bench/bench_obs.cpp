// Observability overhead bench: pins the cost of the obs layer on the
// panel-mode repeated-analysis suite (the same workload bench_telemetry
// measures) and checks the seven-subsystem counter coverage contract.
//
// Three configurations of the identical suite:
//
//   disabled       — registry and sink both off: every record call is one
//                    predicted-not-taken branch (the production default);
//   metrics        — MetricsRegistry enabled (lock-free sharded counters,
//                    gauges, histograms);
//   metrics+spans  — registry AND TraceSink enabled (mutex-guarded span
//                    append; spans are per-phase, never per-VM).
//
// Configurations alternate inside each repetition and the best-of-N wall
// time per configuration is compared, so slow-drift noise (thermal, cache
// warm-up, container neighbours) cancels instead of biasing one side. The
// gate: both instrumented configurations stay within --max-overhead-pct
// (default 3%) of disabled. Checksums must be identical across all three —
// enabling observability never perturbs results.
//
// A separate coverage pass runs one instrumented end-to-end workload
// (generate -> panel build -> analysis suite -> kb extraction -> advisor)
// and asserts that every instrumented subsystem prefix (parallel., sim.,
// alloc., panel., gen., analysis., kb., policy.) recorded at least one
// non-zero counter — the schema contract --metrics-out consumers rely on.
//
// Usage: bench_obs [--scale=F] [--seed=N] [--passes=N] [--reps=N]
//                  [--out=PATH] [--max-overhead-pct=F]
#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/classifier.h"
#include "analysis/context.h"
#include "analysis/spatial.h"
#include "analysis/utilization.h"
#include "bench_common.h"
#include "cloudsim/telemetry_panel.h"
#include "common/table.h"
#include "kb/extractor.h"
#include "kb/store.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "policies/advisor.h"

using namespace cloudlens;

namespace {

/// The panel-consuming analysis suite of bench_telemetry, expressed against
/// the AnalysisContext API. Returns a value sum so no stage can be dropped.
double analysis_suite(const AnalysisContext& ctx) {
  double acc = 0;
  for (const CloudType cloud : {CloudType::kPrivate, CloudType::kPublic}) {
    const auto shares = analysis::classify_population(ctx, cloud, 400);
    acc += shares.diurnal + shares.stable;
  }
  const auto node_rs =
      analysis::node_vm_correlations(ctx, CloudType::kPrivate, 150);
  acc += node_rs.empty() ? 0.0 : node_rs.front();
  const auto bands =
      analysis::utilization_distribution(ctx, CloudType::kPublic, 400);
  acc += bands.weekly.p50.empty() ? 0.0 : bands.weekly.p50.front();
  const auto cross =
      analysis::cross_region_correlations(ctx, CloudType::kPrivate, 150, 25);
  acc += cross.empty() ? 0.0 : cross.front();
  const auto verdicts = analysis::detect_region_agnostic_services(
      ctx, CloudType::kPrivate, 0.7, 25);
  acc += static_cast<double>(verdicts.size());
  acc += analysis::region_used_cores_hourly(ctx, CloudType::kPrivate,
                                            RegionId(), 400)
             .mean();
  return acc;
}

struct Mode {
  const char* name;
  bool metrics;
  bool spans;
  double best_ms = 1e300;
  double checksum = 0;
  bool checksum_set = false;
};

double run_timed(const AnalysisContext& ctx, int passes, double& checksum) {
  checksum = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p) checksum += analysis_suite(ctx);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::parse_args(argc, argv);
  args.scale = 0.1;
  int passes = 2;
  int reps = 5;
  double max_overhead_pct = 3.0;
  std::string out_path = "BENCH_obs.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0)
      args.scale = std::atof(argv[i] + 8);
    else if (std::strncmp(argv[i], "--passes=", 9) == 0)
      passes = std::atoi(argv[i] + 9);
    else if (std::strncmp(argv[i], "--reps=", 7) == 0)
      reps = std::atoi(argv[i] + 7);
    else if (std::strncmp(argv[i], "--out=", 6) == 0)
      out_path = argv[i] + 6;
    else if (std::strncmp(argv[i], "--max-overhead-pct=", 19) == 0)
      max_overhead_pct = std::atof(argv[i] + 19);
  }

  // ---------------------------------------------------------------------
  // Coverage pass: one fully instrumented end-to-end workload against the
  // global registry (generation and simulation have no context parameter).
  auto& global = obs::MetricsRegistry::global();
  global.reset();
  global.set_enabled(true);
  const auto scenario = bench::make_bench_scenario(args);
  TraceStore& trace = *scenario.trace;
  trace.build_telemetry_panel();  // panel.* counters + build histogram
  {
    const AnalysisContext ctx(trace);
    analysis_suite(ctx);  // analysis.* counters
    kb::ExtractorOptions ex;
    ex.max_classified_vms = 3;
    const kb::KnowledgeBase kb(kb::extract_all(ctx, ex));  // kb.*
    policies::advise(trace, kb, CloudType::kPrivate);      // policy.*
  }
  const auto coverage = global.snapshot();
  global.set_enabled(false);

  const std::vector<std::string> prefixes = {
      "parallel.", "sim.", "alloc.", "panel.",
      "gen.",      "analysis.", "kb.", "policy."};
  auto prefix_covered = [&](const std::string& prefix) {
    for (const auto& [name, value] : coverage.counters) {
      if (value > 0 && name.substr(0, prefix.size()) == prefix) return true;
    }
    return false;
  };

  const std::size_t vms = trace.vms().size();
  bench::BenchJson json("obs");
  json.meta()
      .num("scale", args.scale)
      .num("seed", static_cast<double>(args.seed))
      .num("passes", passes)
      .num("reps", reps)
      .num("vms", static_cast<double>(vms))
      .num("max_overhead_pct", max_overhead_pct);

  // ---------------------------------------------------------------------
  // Overhead: best-of-reps per configuration, configurations alternating
  // inside each rep. Private registry/sink instances keep the measurement
  // independent of the global backends.
  obs::MetricsRegistry registry;
  obs::TraceSink sink;

  Mode modes[] = {
      {"disabled", false, false},
      {"metrics", true, false},
      {"metrics+spans", true, true},
  };

  bench::banner("Observability overhead on the panel-mode analysis suite");
  // Warm-up: panel built above; one untimed suite to settle caches.
  {
    const AnalysisContext warm(trace, {}, &registry, &sink);
    analysis_suite(warm);
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (Mode& mode : modes) {
      registry.set_enabled(mode.metrics);
      sink.set_enabled(mode.spans);
      const AnalysisContext ctx(trace, {}, &registry, &sink);
      double checksum = 0;
      const double ms = run_timed(ctx, passes, checksum);
      mode.best_ms = std::min(mode.best_ms, ms);
      if (!mode.checksum_set) {
        mode.checksum = checksum;
        mode.checksum_set = true;
      } else if (mode.checksum != checksum) {
        mode.best_ms = -1;  // within-mode nondeterminism: fail loudly below
      }
      sink.reset();  // bound span memory across reps
    }
  }
  registry.set_enabled(false);
  sink.set_enabled(false);

  const double base = modes[0].best_ms;
  TextTable table({"config", "best wall ms", "overhead %"});
  for (const Mode& mode : modes) {
    const double pct = base > 0 ? 100.0 * (mode.best_ms - base) / base : 0.0;
    table.row().add(mode.name).add(mode.best_ms, 1).add(pct, 2);
    json.record(mode.name).num("best_wall_ms", mode.best_ms).num(
        "overhead_pct", pct);
  }
  std::printf("%s", table.to_string().c_str());

  bench::banner("Counter coverage (instrumented end-to-end run)");
  bool all_covered = true;
  for (const auto& prefix : prefixes) {
    const bool ok = prefix_covered(prefix);
    all_covered = all_covered && ok;
    std::printf("  %-10s %s\n", prefix.c_str(), ok ? "covered" : "MISSING");
    json.record("coverage_" + prefix.substr(0, prefix.size() - 1))
        .num("covered", ok ? 1 : 0);
  }
  json.write(out_path);

  bench::banner("Shape checks");
  bench::ShapeChecks checks;
  checks.expect(modes[0].checksum == modes[1].checksum &&
                    modes[0].checksum == modes[2].checksum &&
                    modes[0].best_ms >= 0 && modes[1].best_ms >= 0 &&
                    modes[2].best_ms >= 0,
                "identical checksums with observability off/metrics/full");
  char gate[96];
  const double metrics_pct =
      base > 0 ? 100.0 * (modes[1].best_ms - base) / base : 0.0;
  const double full_pct =
      base > 0 ? 100.0 * (modes[2].best_ms - base) / base : 0.0;
  std::snprintf(gate, sizeof gate, "metrics overhead %.2f%% <= %.1f%%",
                metrics_pct, max_overhead_pct);
  checks.expect(metrics_pct <= max_overhead_pct, gate);
  std::snprintf(gate, sizeof gate, "metrics+spans overhead %.2f%% <= %.1f%%",
                full_pct, max_overhead_pct);
  checks.expect(full_pct <= max_overhead_pct, gate);
  checks.expect(all_covered,
                "all seven instrumented subsystems recorded counters");
  return checks.exit_code();
}
