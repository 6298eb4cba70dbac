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
// Every repetition runs all three configurations back to back, in an
// order that rotates from rep to rep, and each instrumented wall time is
// divided by the same rep's disabled wall time. Pairing within a rep
// cancels slow drift (thermal, frequency, container neighbours), and the
// rotation keeps any position effect (the first run after a switch being
// slower) off one configuration. The gate: the median of each
// instrumented configuration's per-rep ratio stays within
// --max-overhead-pct (default 3%) of 1. Checksums must be identical
// across all three — enabling observability never perturbs results.
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
  std::vector<double> wall_ms{};  ///< one per rep
  std::vector<double> ratio{};    ///< wall / the same rep's disabled wall
  double checksum = 0;
  bool checksum_set = false;
  bool deterministic = true;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

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
  int passes = 1;
  int reps = 51;
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
  // Overhead: per-rep ratios to the disabled run, configurations in a
  // rotating order inside each rep. Private registry/sink instances keep
  // the measurement independent of the global backends.
  obs::MetricsRegistry registry;
  obs::TraceSink sink;

  Mode modes[] = {
      {"disabled", false, false},
      {"metrics", true, false},
      {"metrics+spans", true, true},
  };
  constexpr int kModes = 3;

  bench::banner("Observability overhead on the panel-mode analysis suite");
  // Warm-up: panel built above; one untimed suite to settle caches.
  {
    const AnalysisContext warm(trace, {}, &registry, &sink);
    analysis_suite(warm);
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (int k = 0; k < kModes; ++k) {
      Mode& mode = modes[(rep + k) % kModes];
      registry.set_enabled(mode.metrics);
      sink.set_enabled(mode.spans);
      const AnalysisContext ctx(trace, {}, &registry, &sink);
      double checksum = 0;
      mode.wall_ms.push_back(run_timed(ctx, passes, checksum));
      if (!mode.checksum_set) {
        mode.checksum = checksum;
        mode.checksum_set = true;
      } else if (mode.checksum != checksum) {
        mode.deterministic = false;
      }
      sink.reset();  // bound span memory across reps
    }
    for (Mode& mode : modes)
      mode.ratio.push_back(mode.wall_ms.back() / modes[0].wall_ms.back());
  }
  registry.set_enabled(false);
  sink.set_enabled(false);

  TextTable table({"config", "median wall ms", "median overhead %"});
  double overhead_pct[kModes];
  for (int m = 0; m < kModes; ++m) {
    overhead_pct[m] = 100.0 * (median(modes[m].ratio) - 1.0);
    table.row().add(modes[m].name).add(median(modes[m].wall_ms), 1).add(
        overhead_pct[m], 2);
    json.record(modes[m].name)
        .num("median_wall_ms", median(modes[m].wall_ms))
        .num("overhead_pct", overhead_pct[m]);
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
                    modes[0].deterministic && modes[1].deterministic &&
                    modes[2].deterministic,
                "identical checksums with observability off/metrics/full");
  for (int m = 1; m < kModes; ++m) {
    char gate[96];
    std::snprintf(gate, sizeof gate, "%s median overhead %.2f%% <= %.1f%%",
                  modes[m].name, overhead_pct[m], max_overhead_pct);
    checks.expect(overhead_pct[m] <= max_overhead_pct, gate);
  }
  checks.expect(all_covered,
                "all seven instrumented subsystems recorded counters");
  return checks.exit_code();
}
