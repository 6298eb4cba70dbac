// bench_e2e: the end-to-end benchmark of the characterization product.
//
// One in-process driver calls the public functions the CLI commands call,
// in the same order, and times each call from outside:
//
//   pipeline::run_trace_plan            (generate/simulate or cache load,
//                                        panel or population shards, kb)
//   analysis::write_characterization_report
//   analysis::write_figure_csvs
//   policies::advise + render_report    (both clouds)
//   serve::ServeEngine::{ingest_line, query}
//
// Workloads (README.md says why each exists):
//
//   cold-resident  scale-0.1 generated scenario, fresh artifact cache per
//                  rep: generator, simulator, panel build, analyses,
//                  advisor and cache writes all do real work.
//   cold-sharded   the same scenarios out of core: 32 record shards under a
//                  budget of about half the spill, no cache, so population
//                  paging and telemetry recomputed from models dominate.
//   warm-rerun     set-up fills a cache per scenario; reps rerun against
//                  it, so trace, panel and kb are cache reads.
//   serve-live     scale-0.01 event streams, each replayed open-loop on a
//                  fixed schedule while one client sends queries at seeded
//                  exponential gaps (250 ms mean); latency counts from each
//                  query's due time.
//
// --seed picks three scenarios from a pinned pool (see kBatchPool): one
// set-up per scenario, reps cycling through them. Every rep's output
// digest must equal an oracle computed in set-up by a different path
// (no-cache resident run, the cold fill, or the batch report over the same
// data), and every oracle must equal its pinned digest. Any mismatch or
// exception is a failed operation and makes the run incorrect (exit
// code 1).
//
// Usage:
//   bench_e2e --workload=NAME|all [--seed=N] [--seconds=S] [--trace]
//             [--work-dir=DIR] [--trace-dir=DIR] [--out=FILE]
//   bench_e2e --smoke        all workloads at scale 0.02, one rep each, and
//                            bench_population's scale-0.3 suite checksum
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; metrics are the end-to-end set, or with --trace
// the per-layer set. --out appends the same result, tagged with workload,
// seed and digests, as one line of a JSON-lines file (e2e_compare.py's
// input).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/context.h"
#include "analysis/figures.h"
#include "analysis/report.h"
#include "cloudsim/population.h"
#include "cloudsim/trace_io.h"
#include "common/rng.h"
#include "harness.h"
#include "ingest/ingest.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "pipeline/run_plan.h"
#include "policies/advisor.h"
#include "serve/engine.h"
#include "serve/stream.h"
#include "workloads/generator.h"

using namespace cloudlens;
using namespace cloudlens::bench_e2e;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

const std::vector<std::string> kWorkloads = {"cold-resident", "cold-sharded",
                                             "warm-rerun", "serve-live"};

// Scenario pools. Between generator seeds the population's alive VM-ticks
// (the samples every pass and the serve stream walk) vary by about 25 %
// IQR at these scales, more than the bounds allow. So --seed does not feed
// the generator: it picks kScenariosPerRun entries of a fixed pool of
// generator seeds whose scenarios all have alive VM-ticks within 2 % of
// 1.55e8 x scale (the first 16 such seeds of SplitMix64(1), scale 0.1 for
// the batch pool and 0.01 for the serve pool). Every seed then measures the
// same amount of work with different content, and every scenario's output
// digests are pinned: report + figures + KB ("suite"), then + advisor
// ("product"); serve: the batch oracle report. A change to the generator or
// to any product output fails the run until the pool is re-pinned.
struct BatchScenario {
  std::uint64_t generator_seed;
  std::uint64_t suite;
  std::uint64_t product;
};
struct ServeScenario {
  std::uint64_t generator_seed;
  std::uint64_t report;
};
constexpr double kBatchScale = 0.1;
constexpr double kServeScale = 0.01;
constexpr std::size_t kScenariosPerRun = 3;
constexpr BatchScenario kBatchPool[] = {
    {10820770463232788922ULL, 0xd0d975381a4b7c96ULL, 0x5e5ed546aa99f5c2ULL},
    {11510521379511642707ULL, 0xb9a2cae2a224f195ULL, 0x0a4555c0d4cad09dULL},
    {18267830386305150219ULL, 0xc8d12f8a8bdc29dfULL, 0x9377ff23a8d8a9aaULL},
    {13654325772360317150ULL, 0x7a70b996e488d161ULL, 0x3fd40e5f94ec539eULL},
    {17895713357680638879ULL, 0x83a4a64c293dc845ULL, 0x356751afcb92384aULL},
    {5949147368817086456ULL, 0x241e748252506be6ULL, 0x118c23cc6f59a7baULL},
    {10822124660052117027ULL, 0x913297bcbeefe273ULL, 0xee7aa1c96e99f0a0ULL},
    {7892013329905487097ULL, 0xe4ca9a623831b7e2ULL, 0x8df61fca2c7d1983ULL},
    {687771919268561115ULL, 0xcebd3124d8469627ULL, 0xf0542ade1dd22febULL},
    {15310971967257562937ULL, 0xdfb63451751c232aULL, 0x3d69f55ece41a957ULL},
    {18143575891078715195ULL, 0x86408f85a5c1755dULL, 0xa5c61c455512f38eULL},
    {7414553928840855257ULL, 0x9f6652f9a455ee8cULL, 0x7c3b1ef0b2dd2edfULL},
    {11878204907426680461ULL, 0x3836b3a5c1506be8ULL, 0xce9a190251dcce18ULL},
    {17760437174710731169ULL, 0xcdb1b823ba172d65ULL, 0x04c589ce947652ddULL},
    {9022134767404828019ULL, 0x299e9fc226922567ULL, 0x0d9340306cca494dULL},
    {4845446686184769625ULL, 0xbe76ac886eb9f3caULL, 0x321eb3af9fd5454cULL},
};
constexpr ServeScenario kServePool[] = {
    {7261785066238069391ULL, 0x6abe0a60bb60734aULL},
    {4465839985801881325ULL, 0xf75e1e83ebead3cbULL},
    {667204130221040403ULL, 0x6856907066a26e1cULL},
    {7140010142285960261ULL, 0xa72dec6b02cbdbf0ULL},
    {16244829284140237903ULL, 0x2050b6386710bd14ULL},
    {8231402717487251821ULL, 0x8872c3fac1751d35ULL},
    {1249753033158450240ULL, 0xe0ffbd0af83a0b05ULL},
    {577591392283617683ULL, 0x4219cf495253ffe1ULL},
    {6366678291913112943ULL, 0x798e2a1f3a1fa9d1ULL},
    {14136971179981109338ULL, 0x2d2b7194bf09b2e1ULL},
    {13375629700178501366ULL, 0x1634f6bfb7643543ULL},
    {10136485515732390759ULL, 0x2f1532fd738cf9dcULL},
    {14569012628786775800ULL, 0x01358815059051f7ULL},
    {17848711206722409125ULL, 0x8f507e368dde05ccULL},
    {5538829078972147667ULL, 0x22c0c506fbc6f206ULL},
    {5561675655240257904ULL, 0x1ea656e73d52390aULL},
};

// --smoke: generator seed 42 at scale 0.02 for every workload, plus one
// resident run of bench_population's configuration (scale 0.3, seed 42),
// whose suite digest is that bench's checksum.
constexpr double kSmokeScale = 0.02;
constexpr BatchScenario kSmokeBatch = {42, 0x01ce56124002b32aULL, 0xa2d5b9b5d9437059ULL};
constexpr ServeScenario kSmokeServe = {42, 0x283d3944b59ea389ULL};
constexpr double kPopulationScale = 0.3;
constexpr BatchScenario kPopulationPin = {42, 0x4581d882d2366389ULL, 0x2517b9a1c9b4f211ULL};

// Record shards for cold-sharded, as in the README out-of-core recipe.
constexpr std::uint32_t kRecordShards = 32;
// The population spill measures about 25.7 MiB per unit of scale; a budget
// of half of it makes the LRU evict during every sweep.
constexpr double kBudgetMibPerScale = 13.0;
// Lines the serve ingester applies per scheduled batch.
constexpr std::size_t kIngestBatch = 1000;
// serve-live client: mean gap between query due times, and the query mix.
struct QueryClass {
  const char* kind;
  double share;
};
constexpr double kMeanQueryGapS = 0.25;
constexpr QueryClass kQueryMix[] = {
    {"stats", 0.50}, {"shares", 0.35}, {"insights", 0.12}, {"kb", 0.03}};
// Engine parallelism for serve-live. With 2 lanes, each parallel pass of a
// query wakes an idle pool worker, and on a VM that wake-up is cheap right
// after a CPU-bound process and slow otherwise: the same seed measured
// 21 ms or 43-56 ms latency_ms depending on what ran before. With one lane
// it measured 38 ms either way.
constexpr std::size_t kServeLanes = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 16.0;  ///< timed phase length per workload
  bool trace = false;
  bool smoke = false;
  double scale = kBatchScale;
  double serve_scale = kServeScale;
  std::size_t threads = 4;
  std::string work_dir = "e2e-work";
  std::string trace_dir = "out";
  std::string out;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run reports: the end-to-end metrics (untraced reps),
/// the per-layer metrics (traced reps, empty without --trace), the
/// operation counts, and the digests it checked.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::map<std::string, std::string> digests;
  /// reference_loop_ms() before each untraced rep or paced phase.
  std::vector<double> host_ref_ms;
  bool correct() const { return failed == 0 && problems.empty() && attempted > 0; }
  void problem(const std::string& what) {
    problems.push_back(what);
    std::printf("  CHECK FAILED: %s\n", what.c_str());
  }
};

using Layers = std::map<std::string, double>;

// Every per-layer metric, in BENCHMARK.json order. Each run reports all of
// them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"workloads.generate_s", "s"},
    {"cloudsim.sim_s", "s"},
    {"cloudsim.alloc_nodes_scanned", "count"},
    {"cloudsim.panel_build_s", "s"},
    {"cloudsim.panel_rows_filled", "count"},
    {"cloudsim.pop_page_ins", "count"},
    {"cloudsim.pop_evictions", "count"},
    {"cloudsim.pop_record_reads", "count"},
    {"cloudsim.pop_page_ins_per_shard", "count"},
    {"cloudsim.pop_spill_mib", "MiB"},
    {"stats.noise_fills", "count"},
    {"stats.pearson_calls", "count"},
    {"stats.fft_stages", "count"},
    {"pipeline.trace_s", "s"},
    {"pipeline.panel_s", "s"},
    {"pipeline.pop_shards_s", "s"},
    {"pipeline.kb_s", "s"},
    {"pipeline.cache_hits", "count"},
    {"pipeline.cache_misses", "count"},
    {"pipeline.cache_read_mib", "MiB"},
    {"pipeline.cache_write_mib", "MiB"},
    {"pipeline.snapshot_io_s", "s"},
    {"analysis.report_s", "s"},
    {"analysis.figures_s", "s"},
    // The analysis passes that run on this product's path (report, figure
    // CSVs, KB, advisor); inclusive span time summed over the rep.
    {"analysis.classify_population_s", "s"},
    {"analysis.creation_cv_by_region_s", "s"},
    {"analysis.creations_per_hour_s", "s"},
    {"analysis.detect_region_agnostic_s", "s"},
    {"analysis.evaluate_insights_s", "s"},
    {"analysis.node_vm_correlations_s", "s"},
    {"analysis.region_spread_s", "s"},
    {"analysis.subscriptions_per_cluster_s", "s"},
    {"analysis.utilization_distribution_s", "s"},
    {"analysis.vm_count_per_hour_s", "s"},
    {"analysis.vm_lifetimes_s", "s"},
    {"analysis.vms_per_subscription_s", "s"},
    {"analysis.correlations", "count"},
    {"analysis.vms_classified", "count"},
    {"kb.extract_s", "s"},
    {"kb.records", "count"},
    {"kb.render_s", "s"},
    {"policies.advise_s", "s"},
    {"policies.recommendations", "count"},
    {"serve.ingest_busy_s", "s"},
    {"serve.ingest_lag_p99_ms", "ms"},
    {"serve.query_p80_ms", "ms"},
    {"serve.query_wait_ms_p80", "ms"},
    {"serve.query_service_ms_p80", "ms"},
    {"serve.query_stats_ms_p50", "ms"},
    {"serve.query_shares_ms_p50", "ms"},
    {"serve.query_insights_ms_p50", "ms"},
    {"serve.query_kb_ms_p50", "ms"},
    {"serve.snapshot_build_s", "s"},
    {"serve.snapshot_reuse_ratio", "fraction"},
    {"serve.kb_reuse_ratio", "fraction"},
    {"parallel.busy_frac", "fraction"},
    {"io.read_mib", "MiB"},
    {"io.write_mib", "MiB"},
    {"io.disk_mib", "MiB"},
    {"bench.unattributed_frac", "fraction"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.host_ref_ms", "ms"},
};

// ---------------------------------------------------------------------------
// Program instrumentation: the existing MetricsRegistry and TraceSink,
// switched on only for traced reps.

void set_program_obs(bool on) {
  obs::MetricsRegistry::global().set_enabled(on);
  obs::TraceSink::global().set_enabled(on);
}

void reset_program_obs() {
  obs::MetricsRegistry::global().reset();
  obs::TraceSink::global().reset();
}

double hist_seconds(const obs::MetricsRegistry::Snapshot& snap,
                    std::string_view name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return h.sum_seconds();
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

constexpr double kMiB = 1024.0 * 1024.0;

/// Program-wide counters and histogram totals of one traced rep.
void add_registry_layers(Layers& layers) {
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto count = [&](std::string_view name) {
    return static_cast<double>(snap.counter(name));
  };
  layers["workloads.generate_s"] = hist_seconds(snap, "gen.generate_seconds");
  layers["cloudsim.sim_s"] = hist_seconds(snap, "sim.run_seconds");
  layers["cloudsim.alloc_nodes_scanned"] = count("alloc.nodes_scanned");
  layers["cloudsim.panel_build_s"] = hist_seconds(snap, "panel.build_seconds");
  layers["cloudsim.panel_rows_filled"] = count("panel.rows_filled");
  layers["cloudsim.pop_page_ins"] = count("population.shard_page_ins");
  layers["cloudsim.pop_evictions"] = count("population.shard_evictions");
  layers["cloudsim.pop_record_reads"] = count("population.shard_record_reads");
  layers["stats.noise_fills"] = count("kernels.noise_fills");
  layers["stats.pearson_calls"] = count("kernels.pearson_calls");
  layers["stats.fft_stages"] = count("kernels.fft_stages");
  layers["pipeline.cache_hits"] = count("pipeline.cache_hits");
  layers["pipeline.cache_misses"] = count("pipeline.cache_misses");
  layers["pipeline.cache_read_mib"] = count("pipeline.cache_bytes_read") / kMiB;
  layers["pipeline.cache_write_mib"] =
      count("pipeline.cache_bytes_written") / kMiB;
  layers["pipeline.snapshot_io_s"] =
      hist_seconds(snap, "pipeline.snapshot_io_seconds");
  layers["analysis.correlations"] = count("analysis.correlations");
  layers["analysis.vms_classified"] = count("analysis.vms_classified");
  layers["kb.extract_s"] = hist_seconds(snap, "kb.extract_seconds");
  layers["kb.records"] = count("kb.records_extracted");
  layers["policies.recommendations"] = count("policy.recommendations");
  layers["serve.snapshot_build_s"] =
      hist_seconds(snap, "serve.snapshot_build_seconds");
  layers["serve.snapshot_reuse_ratio"] =
      ratio(count("serve.snapshot_reuses"),
            count("serve.snapshot_reuses") + count("serve.snapshots_built"));
  layers["serve.kb_reuse_ratio"] =
      ratio(count("serve.kb_records_reused"),
            count("serve.kb_records_reused") + count("serve.kb_records_recomputed"));
  layers["parallel.worker_busy_s"] =
      hist_seconds(snap, "parallel.worker_busy_seconds");
}

/// Moves the program's TraceSink events into the recorder under `parent`
/// and sums the analysis passes' spans into analysis.<pass>_s. The
/// program's own analysis.report span is left out: the bench span around
/// the same call provides analysis.report_s.
void drain_program_spans(SpanRecorder& rec, std::size_t parent, int rep,
                         Layers& layers) {
  std::ostringstream json;
  obs::TraceSink::global().write_json(json);
  std::istringstream in(json.str());
  std::string line;
  const auto field = [&](std::string_view key) -> const char* {
    const auto at = line.find(key);
    return at == std::string::npos ? nullptr : line.c_str() + at + key.size();
  };
  while (std::getline(in, line)) {
    const char* name = field("\"name\": \"");
    const char* ts = field("\"ts\": ");
    const char* dur = field("\"dur\": ");
    const char* tid = field("\"tid\": ");
    const char* name_end = name ? std::strchr(name, '"') : nullptr;
    if (!name_end || !ts || !dur || !tid) continue;
    const std::string span_name(name, name_end);
    const double start_us = std::strtod(ts, nullptr);
    const double dur_us = std::strtod(dur, nullptr);
    SpanRecorder::Span span;
    span.name = span_name;
    span.category = "program";
    span.start_ns = static_cast<std::uint64_t>(start_us * 1e3);
    span.end_ns = span.start_ns + static_cast<std::uint64_t>(dur_us * 1e3);
    span.parent = parent;
    span.rep = rep;
    span.tid = static_cast<std::uint32_t>(std::strtoul(tid, nullptr, 10)) + 1;
    rec.add(span);
    if (span_name.rfind("analysis.", 0) == 0 && span_name != "analysis.report")
      layers[span_name + "_s"] += dur_us * 1e-6;
  }
}

// ---------------------------------------------------------------------------
// Input selection.

workloads::ScenarioOptions scenario_options(std::uint64_t generator_seed,
                                            double scale, std::size_t threads) {
  workloads::ScenarioOptions options;
  options.seed = generator_seed;
  options.scale = scale;
  options.parallel = ParallelConfig::with_threads(threads);
  return options;
}

/// kScenariosPerRun distinct pool entries drawn by `seed` (partial
/// Fisher-Yates over a SplitMix64 stream).
template <typename Scenario, std::size_t N>
std::vector<Scenario> pick_scenarios(const Scenario (&pool)[N], std::uint64_t seed) {
  std::vector<Scenario> items(pool, pool + N);
  SplitMix64 draw(seed);
  for (std::size_t i = 0; i < kScenariosPerRun; ++i)
    std::swap(items[i], items[i + draw.next() % (N - i)]);
  items.resize(kScenariosPerRun);
  return items;
}

// ---------------------------------------------------------------------------
// Batch workloads.

enum class Batch { kColdResident, kColdSharded, kWarmRerun };

struct Digests {
  std::uint64_t suite = 0;    ///< report + figures + KB
  std::uint64_t product = 0;  ///< suite + advisor reports
};

/// One product run, timed from outside.
struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;
  std::size_t vms = 0;
  std::size_t scenario = 0;  ///< index into the run's scenarios
  Digests digests;
  std::vector<pipeline::StageReport> stages;
  Layers layers;  ///< filled for traced reps only
};

pipeline::RunPlanOptions batch_plan(double scale, std::size_t threads,
                                    std::uint64_t generator_seed, Batch kind,
                                    const std::string& cache_dir) {
  pipeline::RunPlanOptions plan;
  plan.scenario = scenario_options(generator_seed, scale, threads);
  plan.parallel = plan.scenario.parallel;
  plan.want_panel = true;
  plan.want_kb = true;
  plan.kb_options.max_classified_vms = 4;
  plan.cache_dir = cache_dir;
  plan.cache_enabled = !cache_dir.empty();
  if (kind == Batch::kColdSharded) {
    plan.record_shards = kRecordShards;
    plan.shard_budget_mib = static_cast<std::size_t>(
        std::max(1.0, std::round(kBudgetMibPerScale * scale)));
  }
  return plan;
}

/// The advisor reads the resident record vector (TraceStore::vms()), which
/// a population-sharded trace does not have, so `cloudlens advise` cannot
/// run record-sharded; cold-sharded digests the suite only.
bool runs_advisor(const pipeline::RunPlanOptions& plan) {
  return plan.record_shards == 0;
}

/// run_trace_plan, report, figure CSVs, KB CSV and (resident only) the
/// advisor for both clouds; the resolved trace is released inside the
/// timed region, as a CLI process would on exit.
Rep run_product(const pipeline::RunPlanOptions& plan, SpanRecorder& rec,
                int rep_id) {
  const bool traced = rec.enabled();
  release_free_memory();
  if (traced) reset_program_obs();
  const IoBytes io0 = io_bytes();
  const double rss0 = vm_rss_mib();
  reset_peak_rss();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const std::size_t rep_span = rec.begin("rep", SpanRecorder::kNoParent, rep_id);

  Rep rep;
  std::string report;
  std::vector<std::pair<std::string, std::string>> figures;
  std::string kb_csv;
  std::vector<std::string> advice;
  double spill_bytes = 0.0;
  {
    pipeline::ResolvedRun run;
    {
      auto s = rec.scope("pipeline.run_trace_plan", rep_span, rep_id);
      run = pipeline::run_trace_plan(plan);
    }
    const TraceStore& trace = *run.trace->trace;
    {
      const AnalysisContext ctx(trace, plan.parallel);
      {
        auto s = rec.scope("analysis.report", rep_span, rep_id);
        std::ostringstream os;
        analysis::write_characterization_report(ctx, os);
        report = os.str();
      }
      {
        auto s = rec.scope("analysis.figures", rep_span, rep_id);
        std::ostringstream os;
        const auto open = [&](const std::string& name) -> std::ostream& {
          if (!figures.empty()) figures.back().second = os.str();
          figures.emplace_back(name, std::string());
          os.str({});
          os.clear();
          return os;
        };
        analysis::write_figure_csvs(ctx, open);
        if (!figures.empty()) figures.back().second = os.str();
      }
    }
    {
      auto s = rec.scope("kb.render", rep_span, rep_id);
      kb_csv = run.knowledge->to_csv();
    }
    if (runs_advisor(plan)) {
      auto s = rec.scope("policies.advise", rep_span, rep_id);
      for (const CloudType cloud : {CloudType::kPrivate, CloudType::kPublic}) {
        const auto advisory = policies::advise(trace, *run.knowledge, cloud);
        advice.push_back(policies::render_report(trace, advisory));
      }
    }
    rep.vms = trace.vm_count();
    if (const PopulationShardStore* store = trace.population_shards())
      spill_bytes = static_cast<double>(store->spill_bytes());
    rep.stages = run.reports;
    auto s = rec.scope("teardown", rep_span, rep_id);
    run = pipeline::ResolvedRun{};
  }
  rep.wall_s = seconds_since(t0);
  rec.end(rep_span);
  rep.cpu_s = cpu_seconds() - cpu0;
  rep.peak_rss_mib = vm_hwm_mib() - rss0;

  Fnv64 h;
  h.bytes(report);
  for (const auto& [name, bytes] : figures) {
    h.bytes(name);
    h.bytes(bytes);
  }
  h.bytes(kb_csv);
  rep.digests.suite = h.digest();
  for (const auto& text : advice) h.bytes(text);
  rep.digests.product = h.digest();

  if (traced) {
    Layers& L = rep.layers;
    add_registry_layers(L);
    drain_program_spans(rec, rep_span, rep_id, L);
    for (const SpanRecorder::Span& s : rec.spans()) {
      if (s.rep != rep_id || s.category != "bench") continue;
      if (s.name == "analysis.report") L["analysis.report_s"] += s.seconds();
      if (s.name == "analysis.figures") L["analysis.figures_s"] += s.seconds();
      if (s.name == "kb.render") L["kb.render_s"] += s.seconds();
      if (s.name == "policies.advise") L["policies.advise_s"] += s.seconds();
    }
    for (const auto& stage : rep.stages) {
      std::string key = stage.name == "pop-shards" ? "pop_shards" : stage.name;
      L["pipeline." + key + "_s"] += stage.millis * 1e-3;
    }
    L["cloudsim.pop_spill_mib"] = spill_bytes / kMiB;
    L["cloudsim.pop_page_ins_per_shard"] =
        ratio(L["cloudsim.pop_page_ins"], static_cast<double>(plan.record_shards));
    L["parallel.busy_frac"] =
        ratio(L["parallel.worker_busy_s"],
              static_cast<double>(plan.parallel.resolved()) * rep.wall_s);
    L.erase("parallel.worker_busy_s");
    const IoBytes io1 = io_bytes();
    L["io.read_mib"] = io1.read_mib - io0.read_mib;
    L["io.write_mib"] = io1.write_mib - io0.write_mib;
    L["io.disk_mib"] =
        (static_cast<double>(plan.cache_dir.empty() ? 0 : tree_bytes(plan.cache_dir)) +
         spill_bytes) /
        kMiB;
    L["bench.unattributed_frac"] =
        1.0 - ratio(rec.child_seconds(rep_span), rep.wall_s);
  }
  return rep;
}

void remove_tree(const fs::path& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

const char* batch_name(Batch kind) {
  switch (kind) {
    case Batch::kColdResident: return "cold-resident";
    case Batch::kColdSharded: return "cold-sharded";
    default: return "warm-rerun";
  }
}

/// Mean over the scenarios of each scenario's median `field`, so a
/// scenario that got one more rep than the others does not weigh more.
template <typename F>
double scenario_mean(const std::vector<Rep>& reps, F field) {
  std::map<std::size_t, std::vector<double>> by_scenario;
  for (const Rep& r : reps) by_scenario[r.scenario].push_back(field(r));
  double sum = 0.0;
  for (const auto& [scenario, values] : by_scenario) sum += median(values);
  return by_scenario.empty() ? 0.0 : sum / static_cast<double>(by_scenario.size());
}

/// Medians of every per-layer value over traced reps.
Layers median_layers(const std::vector<Layers>& per_rep) {
  std::map<std::string, std::vector<double>> values;
  for (const Layers& layers : per_rep)
    for (const auto& [k, v] : layers) values[k].push_back(v);
  Layers out;
  for (auto& [k, v] : values) out[k] = median(v);
  return out;
}

std::vector<Metric> per_layer_metrics(const Layers& layers) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = layers.find(name);
    out.push_back({name, unit, it == layers.end() ? 0.0 : it->second});
  }
  return out;
}

std::string stage_sources(const std::vector<pipeline::StageReport>& stages) {
  std::string s;
  for (const auto& st : stages)
    s += (s.empty() ? "" : " ") + st.name + "=" + pipeline::to_string(st.source);
  return s;
}

/// Untimed resident product run (cache off, or filling `cache_dir`); a
/// problem for each digest that differs from `pinned`'s.
Digests check_pinned(const Options& opt, double scale, const BatchScenario& pinned,
                     const std::string& cache_dir, Outcome& out) {
  SpanRecorder off;
  const Digests d =
      run_product(batch_plan(scale, opt.threads, pinned.generator_seed,
                             Batch::kColdResident, cache_dir),
                  off, -1)
          .digests;
  const std::string what = "generator seed " + std::to_string(pinned.generator_seed);
  if (d.suite != pinned.suite)
    out.problem(what + ": suite digest " + hex64(d.suite) + " != pinned " +
                hex64(pinned.suite));
  if (d.product != pinned.product)
    out.problem(what + ": product digest " + hex64(d.product) + " != pinned " +
                hex64(pinned.product));
  return d;
}

Outcome run_batch(const Options& opt, Batch kind,
                  const std::vector<BatchScenario>& scenarios, SpanRecorder& rec) {
  Outcome out;
  const fs::path work = fs::path(opt.work_dir) / batch_name(kind);
  remove_tree(work);
  fs::create_directories(work);
  const auto tag = [&](std::size_t i) {
    return " " + std::to_string(scenarios[i].generator_seed);
  };
  const auto warm_cache = [&](std::size_t i) {
    return (work / ("cache-scenario" + std::to_string(i))).string();
  };

  // Set-up, once per scenario: the oracle digests, by a different path
  // than the timed reps, checked against the pins. Cold workloads: a
  // resident run with the cache off. warm-rerun: the cold run that fills
  // the cache its reps then read.
  std::vector<double> setup_s;
  std::vector<Digests> oracle;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string cache_dir = kind == Batch::kWarmRerun ? warm_cache(i) : "";
    const auto t0 = Clock::now();
    oracle.push_back(check_pinned(opt, opt.scale, scenarios[i], cache_dir, out));
    setup_s.push_back(seconds_since(t0));
    out.digests["suite" + tag(i)] = hex64(oracle[i].suite);
    if (kind == Batch::kColdResident) out.digests["product" + tag(i)] = hex64(oracle[i].product);
  }

  // The advisor renders KB numbers from the in-memory records on a cold
  // run but from the parsed KB CSV on a cache hit, and the CSV's rounding
  // can change a rendered digit. So warm reps must match the cold fill on
  // report + figures + KB, and each other on the advisor output; a
  // cold/warm advisor difference is reported, not failed.
  std::map<std::size_t, std::uint64_t> warm_product;

  // Timed reps, cycling through the scenarios (at least one round): the
  // untraced ones for the end-to-end metrics; with --trace, the same again
  // with every recorder on, for the per-layer metrics.
  const auto run_phase = [&](bool traced, std::vector<Rep>& reps) {
    set_program_obs(traced);
    rec.set_enabled(traced);
    const auto start = Clock::now();
    int rep_id = 0;
    while (static_cast<std::size_t>(rep_id) < scenarios.size() ||
           seconds_since(start) < opt.seconds) {
      const std::size_t i = static_cast<std::size_t>(rep_id) % scenarios.size();
      const fs::path rep_cache = work / ("cache-rep" + std::to_string(rep_id));
      std::string cache_dir;
      if (kind == Batch::kColdResident) cache_dir = rep_cache.string();
      if (kind == Batch::kWarmRerun) cache_dir = warm_cache(i);
      const auto plan = batch_plan(opt.scale, opt.threads,
                                   scenarios[i].generator_seed, kind, cache_dir);
      const std::string label = "rep " + std::to_string(rep_id);
      if (!traced) out.host_ref_ms.push_back(reference_loop_ms());
      ++out.attempted;
      try {
        Rep rep = run_product(plan, rec, (traced ? 1000 : 0) + rep_id);
        rep.scenario = i;
        bool ok = rep.digests.suite == oracle[i].suite;
        if (kind == Batch::kColdResident) ok = ok && rep.digests.product == oracle[i].product;
        if (kind == Batch::kWarmRerun) {
          const auto [first, fresh] = warm_product.emplace(i, rep.digests.product);
          ok = ok && first->second == rep.digests.product;
          if (fresh && rep.digests.product != oracle[i].product) {
            std::printf("  note: scenario%s advisor output differs between "
                        "cold and warm runs\n", tag(i).c_str());
            out.digests["product-warm" + tag(i)] = hex64(rep.digests.product);
          }
        }
        if (!ok) out.problem(label + " digest differs from the oracle");
        for (const auto& st : rep.stages) {
          const bool hit = st.source == pipeline::StageReport::Source::kCacheHit;
          if (hit != (kind == Batch::kWarmRerun)) {
            out.problem(label + " stages: " + stage_sources(rep.stages));
            ok = false;
            break;
          }
        }
        if (!ok) ++out.failed;
        std::printf("  %s %s: %.3f s wall, %.3f s cpu, %.1f MiB peak\n",
                    traced ? "traced" : "timed", label.c_str(), rep.wall_s,
                    rep.cpu_s, rep.peak_rss_mib);
        reps.push_back(std::move(rep));
      } catch (const std::exception& e) {
        ++out.failed;
        out.problem(label + " threw: " + e.what());
      }
      if (kind == Batch::kColdResident) remove_tree(rep_cache);
      ++rep_id;
    }
    set_program_obs(false);
    rec.set_enabled(false);
  };

  std::vector<Rep> reps;
  run_phase(false, reps);
  if (reps.empty()) {
    remove_tree(work);
    return out;
  }
  const auto wall_of = [](const Rep& r) { return r.wall_s; };
  const double wall = scenario_mean(reps, wall_of);
  const double vms =
      scenario_mean(reps, [](const Rep& r) { return static_cast<double>(r.vms); });
  out.end_to_end = {
      {"setup_s", "s", median(setup_s)},
      {"latency_ms", "ms", wall * 1e3},
      {"cpu_s", "s", scenario_mean(reps, [](const Rep& r) { return r.cpu_s; })},
      {"peak_rss_mib", "MiB",
       scenario_mean(reps, [](const Rep& r) { return r.peak_rss_mib; })},
      {"items_per_s", "1/s", vms / wall},
  };
  std::printf("  %zu reps over %zu scenarios, mean of scenario median walls %.3f s\n",
              reps.size(), scenarios.size(), wall);

  if (opt.trace) {
    std::vector<Rep> traced;
    run_phase(true, traced);
    std::vector<Layers> layers;
    for (const Rep& r : traced) layers.push_back(r.layers);
    Layers L = median_layers(layers);
    const double traced_wall = scenario_mean(traced, wall_of);
    L["bench.trace_overhead_pct"] = 100.0 * (ratio(traced_wall, wall) - 1.0);
    L["bench.host_ref_ms"] = median(out.host_ref_ms);
    out.per_layer = per_layer_metrics(L);
  }
  remove_tree(work);
  return out;
}

// ---------------------------------------------------------------------------
// serve-live.

/// The replayed input and its oracle, rendered in set-up.
struct ServeInputs {
  std::string stream;
  std::vector<std::string_view> lines;  ///< views into `stream`
  std::string oracle_report;
  std::size_t vms = 0;
};

/// Scenario -> CSV export/import round trip (the batch oracle, every VM's
/// utilization kept) -> event stream. The round trip makes the batch
/// oracle and the engine see the same sampled utilization.
ServeInputs make_serve_inputs(const Options& opt, std::uint64_t generator_seed) {
  const auto scenario = workloads::make_scenario(
      scenario_options(generator_seed, opt.serve_scale, opt.threads));

  std::ostringstream topo_csv, vm_csv, util_csv;
  export_topology(*scenario.topology, topo_csv);
  export_vm_table(*scenario.trace, vm_csv);
  TraceExportOptions export_options;
  export_options.max_vms_with_utilization = 0;
  export_utilization(*scenario.trace, util_csv, export_options);
  std::istringstream topo_in(topo_csv.str()), vm_in(vm_csv.str()),
      util_in(util_csv.str());
  const auto batch = import_trace(topo_in, vm_in, &util_in,
                                  scenario.trace->telemetry_grid());

  ServeInputs in;
  {
    std::ostringstream stream;
    serve::write_event_stream(*batch.topology, *batch.trace, stream);
    in.stream = stream.str();
  }
  std::string_view rest(in.stream);
  while (!rest.empty()) {
    const auto nl = rest.find('\n');
    in.lines.push_back(rest.substr(0, nl));
    if (nl == std::string_view::npos) break;
    rest.remove_prefix(nl + 1);
  }
  const AnalysisContext ctx(*batch.trace, ParallelConfig::with_threads(opt.threads));
  std::ostringstream report;
  analysis::write_characterization_report(ctx, report);
  in.oracle_report = report.str();
  in.vms = batch.trace->vm_count();
  return in;
}

struct Query {
  std::string what;
  std::string kind;  ///< stats | shares | insights | kb
  double due_s = 0.0;
  double wait_s = 0.0;
  double service_s = 0.0;
  double latency_s() const { return wait_s + service_s; }
};

/// Open-loop schedule over [0, span_s): span_s / kMeanQueryGapS queries
/// split by kQueryMix (each class's share rounded, at least one query per
/// class, so every class has a median), due at a Poisson process
/// conditioned on that many arrivals in the span (sorted exponential gaps,
/// rescaled). A query's cost grows with the ingested prefix, so each
/// class's queries are spread evenly over the sequence (the j-th of n at
/// rank (j + offset) / n, offset seeded) and every class samples early and
/// late epochs alike. shares queries pick a cloud at random.
std::vector<Query> make_schedule(std::uint64_t seed, double span_s) {
  Rng rng(seed);
  const double total_queries = span_s / kMeanQueryGapS;
  std::vector<std::pair<double, std::string>> ranked;  // rank, kind
  for (const QueryClass& c : kQueryMix) {
    const auto n = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(c.share * total_queries)));
    const double offset = rng.uniform();
    for (std::size_t j = 0; j < n; ++j)
      ranked.emplace_back((static_cast<double>(j) + offset) / static_cast<double>(n),
                          c.kind);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<Query> queries(ranked.size());
  for (std::size_t i = 0; i < ranked.size(); ++i)
    queries[i].what = queries[i].kind = ranked[i].second;
  std::vector<double> cumulative;
  double total = 0.0;
  for (std::size_t i = 0; i <= queries.size(); ++i) {
    total += rng.exponential(1.0);
    cumulative.push_back(total);
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Query& q = queries[i];
    q.due_s = span_s * cumulative[i] / total;
    if (q.kind == "shares")
      q.what = rng.bernoulli(0.5) ? "shares,private" : "shares,public";
  }
  return queries;
}

bool well_formed(const Query& q, const std::string& answer) {
  if (q.kind == "stats") return answer.rfind("events=", 0) == 0;
  if (q.kind == "shares") return answer.rfind("cloud,", 0) == 0;
  if (q.kind == "insights") return answer.rfind("Insight 1 (", 0) == 0;
  return !answer.empty() && answer.back() == '\n';
}

struct Paced {
  std::vector<Query> queries;
  std::vector<double> batch_lag_s;
  double ingest_busy_s = 0.0;
  std::uint64_t events = 0;
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;
  std::uint64_t failed = 0;
  std::string final_report;
  Layers layers;
};

/// One paced phase against a fresh engine: the ingester replays the stream
/// on a fixed schedule spanning `span_s` (1000-line batches, each due at
/// its share of the span; a late batch is applied at once), while this
/// thread sends the scheduled queries. Afterwards the drained engine's
/// report is fetched for the oracle check.
Paced run_paced(const ServeInputs& in, const std::vector<Query>& schedule,
                double span_s, SpanRecorder& rec, int rep_id) {
  const bool traced = rec.enabled();
  release_free_memory();
  if (traced) reset_program_obs();
  Paced p;
  p.queries = schedule;
  serve::ServeOptions options;
  options.parallel = ParallelConfig::with_threads(kServeLanes);
  serve::ServeEngine engine(options);

  const IoBytes io0 = io_bytes();
  const double rss0 = vm_rss_mib();
  reset_peak_rss();
  const double cpu0 = cpu_seconds();
  const std::size_t phase_span = rec.begin("serve.paced", SpanRecorder::kNoParent, rep_id);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const double per_line_s = span_s / static_cast<double>(in.lines.size());

  std::atomic<bool> done{false};
  std::exception_ptr ingest_error;
  std::thread ingester([&] {
    try {
      for (std::size_t b = 0; b < in.lines.size(); b += kIngestBatch) {
        const auto due = at(static_cast<double>(b) * per_line_s);
        std::this_thread::sleep_until(due);
        auto s = rec.scope("serve.ingest_batch", phase_span, rep_id, 1);
        const auto start = Clock::now();
        const std::size_t end = std::min(in.lines.size(), b + kIngestBatch);
        for (std::size_t i = b; i < end; ++i) engine.ingest_line(in.lines[i]);
        const auto applied = Clock::now();
        p.ingest_busy_s += std::chrono::duration<double>(applied - start).count();
        p.batch_lag_s.push_back(std::chrono::duration<double>(applied - due).count());
      }
    } catch (...) {
      ingest_error = std::current_exception();
    }
    done.store(true, std::memory_order_release);
  });

  for (Query& q : p.queries) {
    const auto due = at(q.due_s);
    std::this_thread::sleep_until(due);
    // Queries are defined once the first telemetry tick completes.
    while (engine.epoch() == 0 && !done.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    auto s = rec.scope("serve.query." + q.kind, phase_span, rep_id);
    const auto start = Clock::now();
    try {
      const std::string answer = engine.query(q.what);
      if (!well_formed(q, answer)) ++p.failed;
    } catch (const std::exception& e) {
      ++p.failed;
      std::printf("  query %s threw: %s\n", q.what.c_str(), e.what());
    }
    const auto end = Clock::now();
    q.wait_s = std::chrono::duration<double>(start - due).count();
    q.service_s = std::chrono::duration<double>(end - start).count();
  }
  ingester.join();
  rec.end(phase_span);
  p.cpu_s = cpu_seconds() - cpu0;
  p.peak_rss_mib = vm_hwm_mib() - rss0;
  p.events = engine.events_ingested();
  if (ingest_error) {
    ++p.failed;
    try {
      std::rethrow_exception(ingest_error);
    } catch (const std::exception& e) {
      std::printf("  ingest threw: %s\n", e.what());
    }
  }

  if (traced) {
    Layers& L = p.layers;
    add_registry_layers(L);
    drain_program_spans(rec, phase_span, rep_id, L);
    L["parallel.busy_frac"] =
        ratio(L["parallel.worker_busy_s"],
              static_cast<double>(kServeLanes) * span_s);
    L.erase("parallel.worker_busy_s");
    const IoBytes io1 = io_bytes();
    L["io.read_mib"] = io1.read_mib - io0.read_mib;
    L["io.write_mib"] = io1.write_mib - io0.write_mib;
  }
  p.final_report = engine.query("report");
  return p;
}

/// Query and ingest percentiles over every phase's samples pooled.
void serve_layers(const std::vector<Paced>& phases, Layers& L) {
  std::vector<double> latency, wait, service, lag;
  std::map<std::string, std::vector<double>> by_kind;
  double busy = 0.0;
  for (const Paced& p : phases) {
    for (const Query& q : p.queries) {
      latency.push_back(q.latency_s() * 1e3);
      wait.push_back(q.wait_s * 1e3);
      service.push_back(q.service_s * 1e3);
      by_kind[q.kind].push_back(q.service_s * 1e3);
    }
    for (const double s : p.batch_lag_s) lag.push_back(s * 1e3);
    busy += p.ingest_busy_s;
  }
  L["serve.ingest_busy_s"] = busy;
  L["serve.ingest_lag_p99_ms"] = quantile(lag, 0.99);
  L["serve.query_p80_ms"] = quantile(latency, 0.80);
  L["serve.query_wait_ms_p80"] = quantile(wait, 0.80);
  L["serve.query_service_ms_p80"] = quantile(service, 0.80);
  for (const QueryClass& c : kQueryMix)
    L[std::string("serve.query_") + c.kind + "_ms_p50"] = median(by_kind[c.kind]);
}

/// serve-live's latency_ms: the mean latency (due time to answer) of a
/// query drawn from kQueryMix, taken from each class's median latency over
/// the pooled phases. The plain median of all queries would sit on the
/// stats/shares boundary (stats is half the mix) and jump between the two
/// classes' costs from run to run.
double mix_latency_ms(const std::vector<Paced>& phases) {
  std::map<std::string, std::vector<double>> by_kind;
  for (const Paced& p : phases)
    for (const Query& q : p.queries) by_kind[q.kind].push_back(q.latency_s() * 1e3);
  double mean = 0.0;
  std::printf("  median latency by class:");
  for (const QueryClass& c : kQueryMix) {
    const double m = median(by_kind[c.kind]);
    std::printf(" %s %.2f ms (%zu)", c.kind, m, by_kind[c.kind].size());
    mean += c.share * m;
  }
  std::printf("\n");
  return mean;
}

/// One paced phase per scenario, each spanning its share of the run; the
/// scenario's inputs are rendered (set-up) right before its phase, so only
/// one stream is held at a time.
Outcome run_serve(const Options& opt, const std::vector<ServeScenario>& scenarios,
                  SpanRecorder& rec, double span_s) {
  Outcome out;
  const double phase_s = span_s / static_cast<double>(scenarios.size());
  std::vector<double> setup_s;
  std::vector<Paced> plain, traced;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::uint64_t generator_seed = scenarios[i].generator_seed;
    release_free_memory();
    const auto t0 = Clock::now();
    const ServeInputs in = make_serve_inputs(opt, generator_seed);
    setup_s.push_back(seconds_since(t0));
    Fnv64 oracle;
    oracle.bytes(in.oracle_report);
    out.digests["serve_report " + std::to_string(generator_seed)] = hex64(oracle.digest());
    if (oracle.digest() != scenarios[i].report)
      out.problem("generator seed " + std::to_string(generator_seed) +
                  ": serve oracle report digest " + hex64(oracle.digest()) +
                  " != pinned " + hex64(scenarios[i].report));

    const auto schedule = make_schedule(shard_seed(opt.seed, 0x5E77E, i), phase_s);
    std::printf("  stream: %zu lines, %zu VMs; replay span %.1f s, %zu queries\n",
                in.lines.size(), in.vms, phase_s, schedule.size());
    const auto check = [&](const Paced& p) {
      out.attempted += p.queries.size() + 1;
      out.failed += p.failed;
      if (p.final_report != in.oracle_report) {
        ++out.failed;
        out.problem("serve report after the replay differs from the batch oracle");
      }
    };
    out.host_ref_ms.push_back(reference_loop_ms());
    plain.push_back(run_paced(in, schedule, phase_s, rec, static_cast<int>(i)));
    check(plain.back());
    if (opt.trace) {
      set_program_obs(true);
      rec.set_enabled(true);
      traced.push_back(run_paced(in, schedule, phase_s, rec, 1000 + static_cast<int>(i)));
      set_program_obs(false);
      rec.set_enabled(false);
      check(traced.back());
    }
  }

  Layers e2e;
  serve_layers(plain, e2e);
  std::size_t queries = 0;
  double cpu = 0.0, events = 0.0, peak = 0.0;
  for (const Paced& p : plain) {
    queries += p.queries.size();
    peak += p.peak_rss_mib / static_cast<double>(plain.size());
    cpu += p.cpu_s;
    events += static_cast<double>(p.events);
  }
  out.end_to_end = {
      {"setup_s", "s", median(setup_s)},
      {"latency_ms", "ms", mix_latency_ms(plain)},
      {"cpu_s", "s", cpu},
      {"peak_rss_mib", "MiB", peak},
      {"items_per_s", "1/s", ratio(events, e2e["serve.ingest_busy_s"])},
  };
  std::printf("  query p80 %.2f ms (%zu samples), ingest lag p99 %.2f ms\n",
              e2e["serve.query_p80_ms"], queries, e2e["serve.ingest_lag_p99_ms"]);

  if (opt.trace) {
    std::vector<Layers> layers;
    for (const Paced& p : traced) layers.push_back(p.layers);
    Layers L = median_layers(layers);
    serve_layers(traced, L);
    L["bench.trace_overhead_pct"] =
        100.0 * (ratio(L["serve.ingest_busy_s"], e2e["serve.ingest_busy_s"]) - 1.0);
    L["bench.host_ref_ms"] = median(out.host_ref_ms);
    out.per_layer = per_layer_metrics(L);
  }
  return out;
}

// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(const Outcome& out, bool per_layer) {
  std::string s = std::string("{\"correct\": ") + (out.correct() ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(out.attempted) +
                  ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  const auto& metrics = per_layer ? out.per_layer : out.end_to_end;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}}";
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) opt.workload = v;
    else if (const char* v = value("--seed=")) opt.seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = value("--seconds=")) opt.seconds = std::atof(v);
    else if (a == "--trace") opt.trace = true;
    else if (const char* v = value("--work-dir=")) opt.work_dir = v;
    else if (const char* v = value("--trace-dir=")) opt.trace_dir = v;
    else if (const char* v = value("--out=")) opt.out = v;
    else if (a == "--smoke") opt.smoke = true;
    else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  if (opt.smoke) {
    opt.workload = "all";
    opt.scale = opt.serve_scale = kSmokeScale;
    opt.seconds = 0.0;
  }
  const bool known = opt.workload == "all" ||
      std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) != kWorkloads.end();
  if (!known || opt.seconds < 0) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=cold-resident|cold-sharded|"
                 "warm-rerun|serve-live|all [--seed=N] [--seconds=S] [--trace]\n"
                 "                 [--work-dir=DIR] [--trace-dir=DIR] [--out=FILE]\n"
                 "       bench_e2e --smoke\n");
    return false;
  }
  return true;
}

void append_record(const Options& opt, const std::string& workload,
                   const Outcome& out) {
  std::ofstream f(opt.out, std::ios::app);
  f << "{\"workload\": \"" << workload << "\", \"seed\": " << opt.seed
    << ", \"trace\": " << (opt.trace ? "true" : "false")
    << ", \"host_ref_ms\": " << json_number(median(out.host_ref_ms))
    << ", \"digests\": {";
  bool first = true;
  for (const auto& [k, v] : out.digests) {
    f << (first ? "" : ", ") << "\"" << k << "\": \"" << v << "\"";
    first = false;
  }
  f << "}, \"result\": " << result_json(out, opt.trace) << "}\n";
  if (!f) std::fprintf(stderr, "cannot append to %s\n", opt.out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.threads = std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  if (!parse_args(argc, argv, opt)) return 2;

  const std::vector<std::string> names =
      opt.workload == "all" ? kWorkloads : std::vector<std::string>{opt.workload};
  const auto batch_scenarios = opt.smoke ? std::vector<BatchScenario>{kSmokeBatch}
                                         : pick_scenarios(kBatchPool, opt.seed);
  const auto serve_scenarios = opt.smoke ? std::vector<ServeScenario>{kSmokeServe}
                                         : pick_scenarios(kServePool, opt.seed);
  bool all_correct = true;
  if (opt.smoke) {
    std::printf("== population pin (scale %.1f, generator seed %llu)\n", kPopulationScale,
                static_cast<unsigned long long>(kPopulationPin.generator_seed));
    Outcome pin;
    pin.attempted = 1;
    try {
      const Digests d = check_pinned(opt, kPopulationScale, kPopulationPin, "", pin);
      std::printf("  digest suite %s, product %s\n", hex64(d.suite).c_str(),
                  hex64(d.product).c_str());
    } catch (const std::exception& e) {
      pin.problem(std::string("threw: ") + e.what());
    }
    all_correct = pin.correct();
  }
  std::map<std::string, std::string> seen_digests;  // cross-workload equality
  std::string last_json;
  for (const std::string& name : names) {
    std::printf("== %s (seed %llu, %.1f s, %zu threads%s)\n", name.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.threads, opt.trace ? ", traced" : "");
    std::fflush(stdout);
    SpanRecorder rec;
    Outcome out;
    try {
      if (name == "serve-live") {
        out = run_serve(opt, serve_scenarios, rec, opt.smoke ? 5.0 : opt.seconds);
      } else {
        const Batch kind = name == "cold-resident" ? Batch::kColdResident
                           : name == "cold-sharded" ? Batch::kColdSharded
                                                    : Batch::kWarmRerun;
        out = run_batch(opt, kind, batch_scenarios, rec);
      }
    } catch (const std::exception& e) {
      out.problem(std::string("set-up threw: ") + e.what());
    }
    for (const auto& [k, v] : out.digests) {
      std::printf("  digest %-12s %s\n", k.c_str(), v.c_str());
      const auto [it, fresh] = seen_digests.emplace(k, v);
      if (!fresh && it->second != v)
        out.problem(k + " digest differs from an earlier workload's");
    }
    std::printf("  host reference loop: median %.2f ms over %zu samples\n",
                median(out.host_ref_ms), out.host_ref_ms.size());
    print_metrics(out.end_to_end);
    if (opt.trace) {
      print_metrics(out.per_layer);
      fs::create_directories(opt.trace_dir);
      const std::string path = opt.trace_dir + "/" + name + ".trace.json";
      if (!rec.write_json(path)) out.problem("cannot write " + path);
    }
    if (!opt.out.empty()) append_record(opt, name, out);
    all_correct = all_correct && out.correct();
    last_json = result_json(out, opt.trace);
    std::printf("%s\n", last_json.c_str());
    std::fflush(stdout);
  }
  std::error_code ec;
  fs::remove(opt.work_dir, ec);  // only if empty
  return all_correct ? 0 : 1;
}
