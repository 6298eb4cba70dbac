// google-benchmark microbenchmarks for the cloudlens primitives that the
// analysis pipeline leans on: correlation, ECDF construction, period
// detection, pattern evaluation, classification, and allocation — plus
// thread-scaling sweeps (1/2/4/8 workers) of the parallelized hot paths.
// The parallel variants use `state.range(0)` as the thread count; outputs
// are bit-identical across the sweep by the engine's determinism contract,
// so only wall-clock changes.
#include <memory>

#include <benchmark/benchmark.h>

#include "analysis/classifier.h"
#include "analysis/context.h"
#include "analysis/spatial.h"
#include "analysis/utilization.h"
#include "cloudsim/allocator.h"
#include "cloudsim/telemetry_panel.h"
#include "cloudsim/topology.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "stats/correlation.h"
#include "stats/ecdf.h"
#include "stats/fft.h"
#include "stats/periodicity.h"
#include "workloads/generator.h"
#include "workloads/patterns.h"

namespace cloudlens {
namespace {

std::vector<double> random_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.uniform();
  return xs;
}

void BM_Pearson(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_series(n, 1);
  const auto y = random_series(n, 2);
  for (auto _ : state) benchmark::DoNotOptimize(stats::pearson(x, y));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Pearson)->Arg(2016)->Arg(1 << 14);

void BM_PearsonFused(benchmark::State& state) {
  // Single-pass co-moment kernel vs the two-pass BM_Pearson above.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_series(n, 1);
  const auto y = random_series(n, 2);
  for (auto _ : state) benchmark::DoNotOptimize(stats::pearson_fused(x, y));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PearsonFused)->Arg(2016)->Arg(1 << 14);

void BM_EcdfBuild(benchmark::State& state) {
  const auto xs = random_series(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) benchmark::DoNotOptimize(stats::Ecdf(xs));
}
BENCHMARK(BM_EcdfBuild)->Arg(1024)->Arg(1 << 16);

void BM_Periodogram(benchmark::State& state) {
  const auto xs = random_series(2016, 4);
  for (auto _ : state) benchmark::DoNotOptimize(stats::periodogram(xs));
}
BENCHMARK(BM_Periodogram);

void BM_Autocorrelation(benchmark::State& state) {
  const auto xs = random_series(2016, 5);
  for (auto _ : state) benchmark::DoNotOptimize(stats::autocorrelation(xs));
}
BENCHMARK(BM_Autocorrelation);

void BM_PatternEvaluationWeek(benchmark::State& state) {
  const workloads::DiurnalUtilization model({}, 6);
  const TimeGrid grid = week_telemetry_grid();
  for (auto _ : state) {
    double acc = 0;
    for (std::size_t i = 0; i < grid.count; ++i) acc += model.at(grid.at(i));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.count));
}
BENCHMARK(BM_PatternEvaluationWeek);

void BM_PatternSampleWeek(benchmark::State& state) {
  // Batched sample() vs the per-tick at() loop of BM_PatternEvaluationWeek:
  // same bits, hoisted envelope/noise tables, no per-tick virtual dispatch.
  const workloads::DiurnalUtilization model({}, 6);
  const TimeGrid grid = week_telemetry_grid();
  std::vector<double> row(grid.count);
  for (auto _ : state) {
    model.sample(grid, row);
    benchmark::DoNotOptimize(row.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.count));
}
BENCHMARK(BM_PatternSampleWeek);

void BM_ClassifyWeekSeries(benchmark::State& state) {
  const workloads::HourlyPeakUtilization model({}, 7);
  const TimeGrid grid = week_telemetry_grid();
  stats::TimeSeries series(grid);
  for (std::size_t i = 0; i < grid.count; ++i) series[i] = model.at(grid.at(i));
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::classify(series));
}
BENCHMARK(BM_ClassifyWeekSeries);

void BM_AliasTableSample(benchmark::State& state) {
  Rng rng(8);
  std::vector<double> w(1000);
  for (auto& x : w) x = rng.uniform(0.1, 10.0);
  const AliasTable table(w);
  for (auto _ : state) benchmark::DoNotOptimize(table.sample(rng));
}
BENCHMARK(BM_AliasTableSample);

void BM_ScenarioGeneration(benchmark::State& state) {
  // End-to-end generation + placement of a small dual-cloud week.
  workloads::ScenarioOptions options;
  options.scale = 0.02;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    options.seed = seed++;
    const auto scenario = workloads::make_scenario(options);
    benchmark::DoNotOptimize(scenario.trace->vms().size());
  }
}
BENCHMARK(BM_ScenarioGeneration)->Unit(benchmark::kMillisecond);

void BM_NodeUtilizationWeek(benchmark::State& state) {
  workloads::ScenarioOptions options;
  options.scale = 0.05;
  const auto scenario = workloads::make_scenario(options);
  // A node with several VMs.
  NodeId busiest;
  std::size_t most = 0;
  for (const auto& node : scenario.topology->nodes()) {
    const auto vms = scenario.trace->vms_on_node(node.id).size();
    if (vms > most) {
      most = vms;
      busiest = node.id;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scenario.trace->node_utilization(busiest));
  }
  state.SetLabel(std::to_string(most) + " VMs on node");
}
BENCHMARK(BM_NodeUtilizationWeek)->Unit(benchmark::kMillisecond);

void BM_AllocateRelease(benchmark::State& state) {
  TopologySpec spec;
  spec.regions = {{"r", 0}};
  spec.clusters_per_cloud = 2;
  spec.racks_per_cluster = 10;
  spec.nodes_per_rack = 16;
  const Topology topo = build_topology(spec);
  Allocator allocator(topo);
  VmRequest request;
  request.subscription = SubscriptionId(0);
  request.cloud = CloudType::kPublic;
  request.region = RegionId(0);
  request.cores = 4;
  request.memory_gb = 16;
  std::uint32_t next = 0;
  for (auto _ : state) {
    const VmId vm(next++);
    benchmark::DoNotOptimize(allocator.allocate(request, vm));
    allocator.release(vm);
  }
}
BENCHMARK(BM_AllocateRelease);

// --- Thread-scaling sweeps -------------------------------------------------
// One shared scenario for all parallel benchmarks (built once).

/// The shared scale-0.1 scenario, with its telemetry panel built the way
/// the CLI's run plan builds it: every bench below reads panel rows.
const workloads::Scenario& shared_scenario() {
  static const workloads::Scenario scenario = [] {
    workloads::ScenarioOptions options;
    options.scale = 0.1;
    auto built = workloads::make_scenario(options);
    built.trace->build_telemetry_panel();
    return built;
  }();
  return scenario;
}

/// A copy of `trace` (same records, ids and shared models) without a
/// panel, so analyses evaluate rows on demand.
std::unique_ptr<TraceStore> panel_less_copy(const TraceStore& trace) {
  auto copy = std::make_unique<TraceStore>(&trace.topology(),
                                           trace.telemetry_grid());
  for (const auto& svc : trace.services()) copy->add_service(svc);
  for (const auto& sub : trace.subscriptions()) copy->add_subscription(sub);
  for (const auto& vm : trace.vms()) copy->add_vm(vm);
  return copy;
}

void BM_ClassifyPopulationThreads(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::classify_population(
        AnalysisContext(*scenario.trace, ParallelConfig::with_threads(threads)),
        CloudType::kPrivate, 400));
  }
  state.SetLabel(std::to_string(threads) + " threads");
}
BENCHMARK(BM_ClassifyPopulationThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_NodeCorrelationsThreads(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::node_vm_correlations(
        AnalysisContext(*scenario.trace, ParallelConfig::with_threads(threads)),
        CloudType::kPrivate, 150));
  }
  state.SetLabel(std::to_string(threads) + " threads");
}
BENCHMARK(BM_NodeCorrelationsThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_UtilizationBandsThreads(benchmark::State& state) {
  const auto& scenario = shared_scenario();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::utilization_distribution(
        AnalysisContext(*scenario.trace, ParallelConfig::with_threads(threads)),
        CloudType::kPublic, 400));
  }
  state.SetLabel(std::to_string(threads) + " threads");
}
BENCHMARK(BM_UtilizationBandsThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- Repeated-analysis suite: columnar panel on vs off ---------------------
// The panel's raison d'être: one characterization run executes many
// analyses over the same VM × tick telemetry. With the panel off, every
// analysis re-derives rows through the shared fill kernel (the pre-panel
// cost model); with it on, the matrix is materialized once and every pass
// reads contiguous rows. Outputs are bit-identical either way.

double repeated_analysis_suite(const TraceStore& trace) {
  const AnalysisContext ctx(trace);
  double acc = 0;
  for (const CloudType cloud : {CloudType::kPrivate, CloudType::kPublic})
    acc += analysis::classify_population(ctx, cloud, 400).stable;
  acc += static_cast<double>(
      analysis::node_vm_correlations(ctx, CloudType::kPrivate, 150).size());
  acc += analysis::utilization_distribution(ctx, CloudType::kPublic, 400)
             .weekly.p50.front();
  acc += analysis::region_used_cores_hourly(ctx, CloudType::kPrivate,
                                            RegionId(), 400)
             .mean();
  return acc;
}

void BM_RepeatedAnalysesLegacy(benchmark::State& state) {
  const auto trace = panel_less_copy(*shared_scenario().trace);
  for (auto _ : state)
    benchmark::DoNotOptimize(repeated_analysis_suite(*trace));
  state.SetLabel("panel off");
}
BENCHMARK(BM_RepeatedAnalysesLegacy)->Unit(benchmark::kMillisecond);

void BM_RepeatedAnalysesPanel(benchmark::State& state) {
  const TraceStore& trace = *shared_scenario().trace;
  for (auto _ : state)
    benchmark::DoNotOptimize(repeated_analysis_suite(trace));
  state.SetLabel("panel on");
}
BENCHMARK(BM_RepeatedAnalysesPanel)->Unit(benchmark::kMillisecond);

void BM_PanelBuild(benchmark::State& state) {
  // Cost of materializing the columnar cache itself (parallel row fill).
  const auto& scenario = shared_scenario();
  const TraceStore& trace = *scenario.trace;
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    TelemetryPanel panel(trace, trace.telemetry_grid(),
                         ParallelConfig::with_threads(threads));
    benchmark::DoNotOptimize(panel.memory_bytes());
  }
  state.SetLabel(std::to_string(threads) + " threads");
}
BENCHMARK(BM_PanelBuild)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_GenerationThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  workloads::ScenarioOptions options;
  options.scale = 0.05;
  options.parallel = ParallelConfig::with_threads(threads);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    options.seed = seed++;
    const auto scenario = workloads::make_scenario(options);
    benchmark::DoNotOptimize(scenario.trace->vms().size());
  }
  state.SetLabel(std::to_string(threads) + " threads");
}
BENCHMARK(BM_GenerationThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cloudlens

BENCHMARK_MAIN();
