// Out-of-core bench: record-sharded generation + analyses under a hard
// RSS budget.
//
// The out-of-core mode takes the *population* out of core — VmRecord /
// SubscriptionInfo arrays and their indices live in K CLSN shard files
// (cloudsim/population.h) from the moment the generator emits them, and
// the full analysis suite (characterization report, every figure CSV,
// the knowledge base) runs against shards paged in LRU under a
// decoded-bytes budget, with telemetry rows computed from the models on
// demand. Neither the resident record vector nor a telemetry panel ever
// materializes.
//
// Phases (each with its own VmHWM window — Linux lets us reset the
// kernel's RSS high-water mark via /proc/self/clear_refs between phases):
//
//   spill-gen   — generate the scenario with streaming population spill:
//                 records route straight to shard logs as the simulations
//                 produce them;
//   streamed@1  — report + figures + kb over the shards, serial;
//   streamed@8  — same, 8 worker threads (checksum must not move);
//   resident    — regenerate the identical scenario fully resident: the
//                 byte-identity oracle for the streamed checksums.
//
// Gates (ShapeChecks): streamed checksums at both thread counts equal the
// resident oracle exactly; generation and both streamed phases keep VmHWM
// under --rss-limit-mib; shards were really spilled, paged in, and
// evicted (the budget was load-bearing). Emits BENCH_population.json.
//
// Usage: bench_population [--scale=F] [--seed=N] [--shards=K]
//                         [--budget-mib=N] [--rss-limit-mib=N]
//                         [--rss-gate=0|1] [--out=PATH]
//
// --budget-mib defaults to 16 MiB x scale: at scale 1.0 that is 16 MiB
// against a 24 MiB spill, and scaling it keeps the budget load-bearing
// (shards really evict) at smaller populations too.
//
// --rss-gate=0 drops the RSS cap check while keeping the checksum and
// paging gates — for sanitizer flavours, where shadow memory makes RSS
// meaningless but the bit-identity contract still must hold.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>

#include "analysis/context.h"
#include "analysis/figures.h"
#include "analysis/report.h"
#include "bench_common.h"
#include "cloudsim/population.h"
#include "common/table.h"
#include "kb/extractor.h"
#include "kb/store.h"
#include "obs/metrics.h"
#include "workloads/generator.h"

using namespace cloudlens;

namespace {

/// The full user-visible output set, digested: characterization report
/// markdown, every figure CSV (name + bytes, in emission order), and the
/// knowledge-base CSV. Identical bytes => identical digest.
std::uint64_t suite_checksum(const TraceStore& trace,
                             const ParallelConfig& parallel) {
  const AnalysisContext ctx(trace, parallel);
  bench::Fnv64 h;

  std::ostringstream report;
  analysis::write_characterization_report(ctx, report);
  h.bytes(report.str());

  std::ostringstream figure;
  std::string figure_name;
  const auto flush_figure = [&] {
    if (figure_name.empty()) return;
    h.bytes(figure_name);
    h.bytes(figure.str());
  };
  analysis::write_figure_csvs(ctx, [&](const std::string& name) -> std::ostream& {
    flush_figure();
    figure_name = name;
    figure.str("");
    figure.clear();
    return figure;
  });
  flush_figure();

  kb::ExtractorOptions kb_options;
  kb_options.max_classified_vms = 4;
  const kb::KnowledgeBase knowledge(kb::extract_all(ctx, kb_options));
  h.bytes(knowledge.to_csv());
  return h.digest();
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::parse_args(argc, argv);
  args.scale = 1.0;  // the point is a population that should NOT sit resident
  std::uint32_t shards = 32;
  double budget_mib = -1.0;  // < 0: the scale-proportional default
  double rss_limit_mib = 512.0;
  bool rss_gate = true;
  std::string out_path = "BENCH_population.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0)
      args.scale = std::atof(argv[i] + 8);
    else if (std::strncmp(argv[i], "--shards=", 9) == 0)
      shards = static_cast<std::uint32_t>(std::atoi(argv[i] + 9));
    else if (std::strncmp(argv[i], "--budget-mib=", 13) == 0)
      budget_mib = std::atof(argv[i] + 13);
    else if (std::strncmp(argv[i], "--rss-limit-mib=", 16) == 0)
      rss_limit_mib = std::atof(argv[i] + 16);
    else if (std::strncmp(argv[i], "--rss-gate=", 11) == 0)
      rss_gate = std::atoi(argv[i] + 11) != 0;
    else if (std::strncmp(argv[i], "--out=", 6) == 0)
      out_path = argv[i] + 6;
  }

  if (budget_mib < 0) budget_mib = 16.0 * args.scale;
  obs::MetricsRegistry::global().set_enabled(true);

  bench::BenchJson json("population");
  json.meta()
      .num("scale", args.scale)
      .num("seed", static_cast<double>(args.seed))
      .num("shards", shards)
      .num("budget_mib", budget_mib)
      .num("rss_limit_mib", rss_limit_mib);

  const bool rss_windows = bench::reset_peak_rss();
  if (!rss_windows)
    std::printf("  note: VmHWM reset unavailable; RSS figures are "
                "whole-process peaks\n");

  bench::banner("Spill-gen: generate straight into population shards");
  const std::string spill_dir =
      (std::filesystem::temp_directory_path() /
       ("cloudlens-bench-population-" + std::to_string(args.seed)))
          .string();
  PopulationShardingOptions sharding;
  sharding.shards = shards;
  sharding.budget_bytes = static_cast<std::size_t>(budget_mib * (1 << 20));
  sharding.spill_dir = spill_dir;
  workloads::ScenarioOptions scenario_options;
  scenario_options.scale = args.scale;
  scenario_options.seed = args.seed;
  scenario_options.population_sharding = &sharding;
  auto gen_start = std::chrono::steady_clock::now();
  auto streamed = workloads::make_scenario(scenario_options);
  const double gen_ms = bench::ms_since(gen_start);
  const double gen_rss = bench::vm_hwm_mib();
  TraceStore& trace = *streamed.trace;
  const std::size_t vms = trace.vm_count();
  const PopulationShardStore* store = trace.population_shards();
  const double spill_mib =
      store ? static_cast<double>(store->spill_bytes()) / (1024.0 * 1024.0)
            : 0.0;
  std::printf("  %zu VMs into %u shards (%.1f MiB spilled) in %.1f ms, "
              "peak RSS %.1f MiB\n",
              vms, shards, spill_mib, gen_ms, gen_rss);
  json.meta().num("vms", static_cast<double>(vms));
  json.record("spill_gen")
      .num("wall_ms", gen_ms)
      .num("peak_rss_mib", gen_rss)
      .num("spill_mib", spill_mib);

  bench::reset_peak_rss();
  bench::banner("Streamed suite over population shards (1 thread)");
  auto t1_start = std::chrono::steady_clock::now();
  const std::uint64_t sum_1t =
      suite_checksum(trace, ParallelConfig::with_threads(1));
  const double streamed_1t_ms = bench::ms_since(t1_start);
  const double streamed_1t_rss = bench::vm_hwm_mib();
  std::printf("  %.1f ms, peak RSS %.1f MiB, checksum %016llx\n",
              streamed_1t_ms, streamed_1t_rss,
              static_cast<unsigned long long>(sum_1t));
  json.record("streamed_1t")
      .num("wall_ms", streamed_1t_ms)
      .num("peak_rss_mib", streamed_1t_rss);

  bench::reset_peak_rss();
  bench::banner("Streamed suite over population shards (8 threads)");
  auto t8_start = std::chrono::steady_clock::now();
  const std::uint64_t sum_8t =
      suite_checksum(trace, ParallelConfig::with_threads(8));
  const double streamed_8t_ms = bench::ms_since(t8_start);
  const double streamed_8t_rss = bench::vm_hwm_mib();
  std::printf("  %.1f ms, peak RSS %.1f MiB, checksum %016llx\n",
              streamed_8t_ms, streamed_8t_rss,
              static_cast<unsigned long long>(sum_8t));
  json.record("streamed_8t")
      .num("wall_ms", streamed_8t_ms)
      .num("peak_rss_mib", streamed_8t_rss);

  const auto metrics = obs::MetricsRegistry::global().snapshot();
  const std::uint64_t spills = metrics.counter("population.shard_spills");
  const std::uint64_t page_ins = metrics.counter("population.shard_page_ins");
  const std::uint64_t evictions =
      metrics.counter("population.shard_evictions");
  const std::uint64_t record_reads =
      metrics.counter("population.shard_record_reads");
  json.record("paging")
      .num("spills", static_cast<double>(spills))
      .num("page_ins", static_cast<double>(page_ins))
      .num("evictions", static_cast<double>(evictions))
      .num("record_reads", static_cast<double>(record_reads));

  bench::banner("Oracle: the identical scenario, fully resident");
  bench::reset_peak_rss();
  auto oracle_start = std::chrono::steady_clock::now();
  auto resident = bench::make_bench_scenario(args);
  const double oracle_gen_ms = bench::ms_since(oracle_start);
  auto oracle_suite_start = std::chrono::steady_clock::now();
  resident.trace->build_telemetry_panel();
  const std::uint64_t sum_resident =
      suite_checksum(*resident.trace, ParallelConfig::with_threads(8));
  const double oracle_ms = bench::ms_since(oracle_suite_start);
  const double oracle_rss = bench::vm_hwm_mib();
  std::printf("  gen %.1f ms, suite %.1f ms, peak RSS %.1f MiB, "
              "checksum %016llx%s\n",
              oracle_gen_ms, oracle_ms, oracle_rss,
              static_cast<unsigned long long>(sum_resident),
              sum_resident == sum_1t ? "" : "  (MISMATCH)");
  json.record("resident_oracle")
      .num("gen_ms", oracle_gen_ms)
      .num("wall_ms", oracle_ms)
      .num("peak_rss_mib", oracle_rss);

  bench::banner("Summary");
  TextTable table({"config", "wall ms", "peak RSS MiB"});
  table.row().add("spill-gen (stream to shards)").add(gen_ms, 1).add(gen_rss, 1);
  table.row().add("streamed @1t").add(streamed_1t_ms, 1).add(streamed_1t_rss, 1);
  table.row().add("streamed @8t").add(streamed_8t_ms, 1).add(streamed_8t_rss, 1);
  table.row()
      .add("resident oracle (gen + suite)")
      .add(oracle_gen_ms + oracle_ms, 1)
      .add(oracle_rss, 1);
  std::printf("%s", table.to_string().c_str());
  std::printf("  RSS cap: %.0f MiB; decoded-record budget: %.1f MiB\n",
              rss_limit_mib, budget_mib);
  json.write(out_path);

  bench::banner("Shape checks");
  bench::ShapeChecks checks;
  checks.expect(sum_1t == sum_resident && sum_8t == sum_resident,
                "streamed report/figure/kb checksums at 1 and 8 threads "
                "equal the resident oracle exactly");
  if (rss_gate) {
    char gate[128];
    std::snprintf(gate, sizeof gate,
                  "generation and streamed suites keep peak RSS <= %.0f MiB",
                  rss_limit_mib);
    checks.expect(gen_rss <= rss_limit_mib &&
                      streamed_1t_rss <= rss_limit_mib &&
                      streamed_8t_rss <= rss_limit_mib,
                  gate);
  } else {
    std::printf("  (RSS gate skipped: --rss-gate=0)\n");
  }
  checks.expect(spills > 0, "records were spilled to shard files");
  checks.expect(page_ins > 0 && evictions > 0 && record_reads > 0,
                "shards were paged in and evicted under the budget");
  return checks.exit_code();
}
