// Parallel-vs-serial equivalence suite: the engine's determinism contract,
// proven end to end. Every parallelized pipeline stage — workload
// generation, pattern classification, spatial correlation, utilization
// distribution, profile fitting — must produce *bit-identical* output at
// threads = 1 (the plain serial loops) and threads = 8, across several
// seeds. The advisor's platform evaluations are held to the same contract
// and, with the panel built or not, to the per-tick model loops they
// replaced. Comparisons use EXPECT_EQ on doubles deliberately: approximate
// equality would hide reassociated floating-point sums.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/classifier.h"
#include "analysis/figures.h"
#include "analysis/report.h"
#include "analysis/spatial.h"
#include "analysis/utilization.h"
#include "cloudsim/telemetry_panel.h"
#include "cloudsim/trace_io.h"
#include "kb/extractor.h"
#include "obs/metrics.h"
#include "policies/advisor.h"
#include "stats/descriptive.h"
#include "workloads/fit.h"
#include "workloads/generator.h"

namespace cloudlens {
namespace {

using workloads::Scenario;
using workloads::ScenarioOptions;

constexpr std::uint64_t kSeeds[] = {11, 4242, 987654321};

Scenario small_scenario(std::uint64_t seed, std::size_t threads) {
  ScenarioOptions options;
  options.seed = seed;
  options.scale = 0.05;
  options.parallel = ParallelConfig::with_threads(threads);
  return workloads::make_scenario(options);
}

/// Canonical byte-level rendering of a trace (every VM row plus sampled
/// utilization for a capped subset).
std::string render(const Scenario& s) {
  std::ostringstream out;
  export_vm_table(*s.trace, out);
  TraceExportOptions opts;
  opts.max_vms_with_utilization = 200;
  export_utilization(*s.trace, out, opts);
  return out.str();
}

TEST(ParallelEquivalenceTest, GeneratedTracesBitIdentical) {
  for (const std::uint64_t seed : kSeeds) {
    const Scenario serial = small_scenario(seed, 1);
    const Scenario parallel = small_scenario(seed, 8);
    ASSERT_EQ(serial.trace->vms().size(), parallel.trace->vms().size())
        << "seed " << seed;
    EXPECT_EQ(render(serial), render(parallel)) << "seed " << seed;
  }
}

// The remaining stages compare serial vs parallel *analysis* over one trace.
class AnalysisEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new Scenario(small_scenario(1234, 1));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  const TraceStore& trace() { return *scenario_->trace; }
  static Scenario* scenario_;
};

Scenario* AnalysisEquivalence::scenario_ = nullptr;

TEST_F(AnalysisEquivalence, ClassifierSharesBitIdentical) {
  for (const CloudType cloud : {CloudType::kPrivate, CloudType::kPublic}) {
    const auto serial = analysis::classify_population(AnalysisContext(trace(), ParallelConfig::serial()), cloud, 300, {});
    const auto parallel = analysis::classify_population(AnalysisContext(trace(), ParallelConfig::with_threads(8)), cloud, 300, {});
    EXPECT_EQ(serial.classified, parallel.classified);
    EXPECT_EQ(serial.diurnal, parallel.diurnal);
    EXPECT_EQ(serial.stable, parallel.stable);
    EXPECT_EQ(serial.irregular, parallel.irregular);
    EXPECT_EQ(serial.hourly_peak, parallel.hourly_peak);
  }
}

TEST_F(AnalysisEquivalence, NodeVmCorrelationsBitIdentical) {
  const auto serial = analysis::node_vm_correlations(AnalysisContext(trace(), ParallelConfig::serial()), CloudType::kPrivate, 120);
  const auto parallel = analysis::node_vm_correlations(AnalysisContext(trace(), ParallelConfig::with_threads(8)), CloudType::kPrivate, 120);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST_F(AnalysisEquivalence, CrossRegionCorrelationsBitIdentical) {
  const auto serial = analysis::cross_region_correlations(AnalysisContext(trace(), ParallelConfig::serial()), CloudType::kPrivate, 120, 25);
  const auto parallel = analysis::cross_region_correlations(AnalysisContext(trace(), ParallelConfig::with_threads(8)), CloudType::kPrivate, 120, 25);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST_F(AnalysisEquivalence, RegionAgnosticVerdictsBitIdentical) {
  const auto serial = analysis::detect_region_agnostic_services(AnalysisContext(trace(), ParallelConfig::serial()), CloudType::kPrivate, 0.7, 25);
  const auto parallel = analysis::detect_region_agnostic_services(AnalysisContext(trace(), ParallelConfig::with_threads(8)), CloudType::kPrivate, 0.7, 25);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].service, parallel[i].service);
    EXPECT_EQ(serial[i].regions, parallel[i].regions);
    EXPECT_EQ(serial[i].min_pair_correlation, parallel[i].min_pair_correlation);
    EXPECT_EQ(serial[i].mean_pair_correlation,
              parallel[i].mean_pair_correlation);
    EXPECT_EQ(serial[i].region_agnostic, parallel[i].region_agnostic);
  }
}

TEST_F(AnalysisEquivalence, UtilizationBandsBitIdentical) {
  const auto serial = analysis::utilization_distribution(AnalysisContext(trace(), ParallelConfig::serial()), CloudType::kPublic, 200);
  const auto parallel = analysis::utilization_distribution(AnalysisContext(trace(), ParallelConfig::with_threads(8)), CloudType::kPublic, 200);
  EXPECT_EQ(serial.vms_used, parallel.vms_used);
  EXPECT_EQ(serial.weekly.p25, parallel.weekly.p25);
  EXPECT_EQ(serial.weekly.p50, parallel.weekly.p50);
  EXPECT_EQ(serial.weekly.p75, parallel.weekly.p75);
  EXPECT_EQ(serial.weekly.p95, parallel.weekly.p95);
  EXPECT_EQ(serial.daily_p25, parallel.daily_p25);
  EXPECT_EQ(serial.daily_p50, parallel.daily_p50);
  EXPECT_EQ(serial.daily_p75, parallel.daily_p75);
  EXPECT_EQ(serial.daily_p95, parallel.daily_p95);
}

TEST_F(AnalysisEquivalence, UsedCoresReductionBitIdentical) {
  // The floating-point reduction: the fixed chunk grid must make the sum
  // reproducible at any thread count, bit for bit.
  const auto serial = analysis::region_used_cores_hourly(AnalysisContext(trace(), ParallelConfig::serial()), CloudType::kPrivate, RegionId(), 400);
  const auto parallel = analysis::region_used_cores_hourly(AnalysisContext(trace(), ParallelConfig::with_threads(8)), CloudType::kPrivate, RegionId(), 400);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "hour " << i;
  }
}

// --- Panel-vs-legacy equivalence -----------------------------------------
//
// The columnar telemetry panel is a pure cache: with the panel disabled,
// every consumer falls back to evaluating rows on demand through the same
// fill kernel. The contract is bit-identity — same doubles with the panel
// on or off, at one thread or eight, across seeds. Each seed builds one
// scenario and snapshots every panel-consuming analysis under all four
// (panel × threads) settings.

/// Flat double rendering of every panel-consuming analysis output.
std::vector<double> analysis_snapshot(const TraceStore& trace,
                                      std::size_t threads) {
  const ParallelConfig parallel = ParallelConfig::with_threads(threads);
  std::vector<double> out;
  const auto append = [&out](std::span<const double> values) {
    out.insert(out.end(), values.begin(), values.end());
  };

  for (const CloudType cloud : {CloudType::kPrivate, CloudType::kPublic}) {
    const auto shares =
        analysis::classify_population(AnalysisContext(trace, parallel), cloud, 300, {});
    out.insert(out.end(),
               {shares.diurnal, shares.stable, shares.irregular,
                shares.hourly_peak, double(shares.classified)});
  }

  append(analysis::node_vm_correlations(AnalysisContext(trace, parallel), CloudType::kPrivate, 120));
  append(analysis::cross_region_correlations(AnalysisContext(trace, parallel), CloudType::kPrivate, 120,
                                             25));

  const auto bands = analysis::utilization_distribution(AnalysisContext(trace, parallel), CloudType::kPublic, 200);
  out.push_back(double(bands.vms_used));
  append(bands.weekly.p25);
  append(bands.weekly.p50);
  append(bands.weekly.p75);
  append(bands.weekly.p95);
  append(bands.daily_p25);
  append(bands.daily_p50);
  append(bands.daily_p75);
  append(bands.daily_p95);

  for (const auto& v : analysis::detect_region_agnostic_services(AnalysisContext(trace, parallel), CloudType::kPrivate, 0.7, 25)) {
    out.insert(out.end(),
               {double(v.service.value()), double(v.regions),
                v.min_pair_correlation, v.mean_pair_correlation,
                v.region_agnostic ? 1.0 : 0.0});
  }

  append(analysis::region_used_cores_hourly(AnalysisContext(trace, parallel), CloudType::kPrivate,
                                            RegionId(), 400)
             .values());
  return out;
}

TEST(PanelEquivalenceTest, PanelVsLegacyBitIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    const Scenario scenario = small_scenario(seed, 1);
    TraceStore& trace = *scenario.trace;

    // On-demand rows first (no panel built), then the same passes over
    // the built panel.
    ASSERT_EQ(trace.telemetry_panel(), nullptr) << "seed " << seed;
    const auto legacy_serial = analysis_snapshot(trace, 1);
    const auto legacy_threads = analysis_snapshot(trace, 8);

    ASSERT_NE(trace.build_telemetry_panel(), nullptr) << "seed " << seed;
    const auto panel_serial = analysis_snapshot(trace, 1);
    const auto panel_threads = analysis_snapshot(trace, 8);

    ASSERT_FALSE(panel_serial.empty()) << "seed " << seed;
    EXPECT_EQ(panel_serial, panel_threads) << "seed " << seed;
    EXPECT_EQ(panel_serial, legacy_serial) << "seed " << seed;
    EXPECT_EQ(panel_serial, legacy_threads) << "seed " << seed;
  }
}

// Every pass reads its rows through the trace, so a resident run that
// built the panel reads every row from it: a pass that filled its own rows
// around the trace's row source would show up as a miss.
TEST(PanelEquivalenceTest, PanelRunReadsEveryRowFromThePanel) {
  const Scenario scenario = small_scenario(kSeeds[0], 1);
  TraceStore& trace = *scenario.trace;
  ASSERT_NE(trace.build_telemetry_panel(), nullptr);

  auto& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.set_enabled(true);
  const AnalysisContext ctx(trace, ParallelConfig::with_threads(4));
  std::ostringstream sink;
  analysis::write_characterization_report(ctx, sink);
  const auto open = [&sink](const std::string&) -> std::ostream& {
    return sink;
  };
  analysis::write_figure_csvs(ctx, open);
  const kb::KnowledgeBase kb(kb::extract_all(ctx, {}));
  for (const CloudType cloud : {CloudType::kPrivate, CloudType::kPublic})
    sink << policies::render_report(
        trace, policies::advise(trace, kb, cloud, ctx.parallel()));
  const auto snap = metrics.snapshot();
  metrics.set_enabled(false);
  metrics.reset();

  EXPECT_EQ(snap.counter("panel.row_misses"), 0u);
  EXPECT_GT(snap.counter("panel.row_hits"), 0u);
}

TEST_F(AnalysisEquivalence, FittedProfilesBitIdentical) {
  workloads::FitOptions serial_opts;
  serial_opts.classify_max_vms = 200;
  serial_opts.parallel = ParallelConfig::serial();
  workloads::FitOptions parallel_opts = serial_opts;
  parallel_opts.parallel = ParallelConfig::with_threads(8);

  const auto base = workloads::CloudProfile::azure_private();
  const auto serial =
      fit_profile(trace(), CloudType::kPrivate, base, serial_opts);
  const auto parallel =
      fit_profile(trace(), CloudType::kPrivate, base, parallel_opts);

  EXPECT_EQ(serial.classified_vms, parallel.classified_vms);
  EXPECT_EQ(serial.burst_hours_detected, parallel.burst_hours_detected);
  EXPECT_EQ(serial.mean_creations_per_hour_per_region,
            parallel.mean_creations_per_hour_per_region);
  const auto& sp = serial.profile;
  const auto& pp = parallel.profile;
  EXPECT_EQ(sp.pattern_mix.diurnal, pp.pattern_mix.diurnal);
  EXPECT_EQ(sp.pattern_mix.stable, pp.pattern_mix.stable);
  EXPECT_EQ(sp.pattern_mix.irregular, pp.pattern_mix.irregular);
  EXPECT_EQ(sp.pattern_mix.hourly_peak, pp.pattern_mix.hourly_peak);
  EXPECT_EQ(sp.region_agnostic_prob, pp.region_agnostic_prob);
  EXPECT_EQ(sp.diurnal_churn.base_per_hour, pp.diurnal_churn.base_per_hour);
  EXPECT_EQ(sp.diurnal_churn.weekend_scale, pp.diurnal_churn.weekend_scale);
  EXPECT_EQ(sp.burst_churn.bursts_per_week, pp.burst_churn.bursts_per_week);
  EXPECT_EQ(sp.deploy_size_mu, pp.deploy_size_mu);
  EXPECT_EQ(sp.deploy_size_sigma, pp.deploy_size_sigma);
}

// --- Advisor equivalence -------------------------------------------------
//
// The advisor's platform evaluations fan out per node and per VM and read
// telemetry rows instead of calling UtilizationModel::at tick by tick.
// Their reports must match at 1 and 8 threads, with the panel built or
// not, and match the per-tick loops below, which are the evaluations as
// they stood before the rows: model calls per tick, serial, node by node.

/// Per-tick reference for evaluate_oversubscription.
policies::OversubscriptionReport reference_oversubscription(
    const TraceStore& trace, CloudType cloud,
    const policies::OversubscriptionOptions& options = {}) {
  const TimeGrid& grid = trace.telemetry_grid();
  std::vector<std::vector<VmId>> candidates;
  for (const auto& node : trace.topology().nodes()) {
    if (node.cloud != cloud) continue;
    std::vector<VmId> vms;
    for (const VmId id : trace.vms_on_node(node.id)) {
      const auto& vm = trace.vm(id);
      if (vm.covers(grid) && vm.utilization) vms.push_back(id);
    }
    if (vms.size() >= options.min_vms_per_node)
      candidates.push_back(std::move(vms));
  }
  std::size_t stride = 1;
  if (options.max_nodes > 0 && candidates.size() > options.max_nodes)
    stride = candidates.size() / options.max_nodes;

  policies::OversubscriptionReport report;
  std::size_t violations = 0, intervals = 0;
  std::vector<double> demand(grid.count);
  for (std::size_t i = 0; i < candidates.size(); i += stride) {
    std::fill(demand.begin(), demand.end(), 0.0);
    double allocated = 0;
    for (const VmId id : candidates[i]) {
      const auto& vm = trace.vm(id);
      allocated += vm.cores;
      for (std::size_t t = 0; t < grid.count; ++t)
        demand[t] += vm.cores * vm.utilization->at(grid.at(t));
    }
    const double reservation =
        stats::quantile(demand, options.safety_quantile);
    ++report.nodes_evaluated;
    report.baseline_reserved_cores += allocated;
    report.policy_reserved_cores += reservation;
    report.mean_demand_cores += stats::mean(demand);
    for (const double d : demand) {
      if (d > reservation) ++violations;
    }
    intervals += demand.size();
  }
  if (report.policy_reserved_cores > 0 &&
      report.baseline_reserved_cores > 0) {
    report.reservation_shrink =
        1.0 - report.policy_reserved_cores / report.baseline_reserved_cores;
    report.utilization_improvement =
        report.baseline_reserved_cores / report.policy_reserved_cores - 1.0;
  }
  if (intervals > 0)
    report.violation_rate =
        static_cast<double>(violations) / static_cast<double>(intervals);
  return report;
}

/// Per-tick reference for the rebalancer's 20-minute mean utilization.
double reference_mean_util(const TraceStore& trace, const VmRecord& vm) {
  if (!vm.utilization) return 0.0;
  const TimeGrid& grid = trace.telemetry_grid();
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t t = 0; t < grid.count; t += 4) {
    const SimTime when = grid.at(t);
    if (!vm.alive_at(when)) continue;
    sum += vm.utilization->at(when);
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

/// Per-tick reference for one region's load under a VM -> region mapping.
policies::RegionLoad reference_region_load(
    const TraceStore& trace, CloudType cloud, RegionId region,
    const std::function<RegionId(const VmRecord&)>& region_of) {
  const policies::RebalanceOptions options;
  policies::RegionLoad load;
  load.region = region;
  load.total_cores = trace.topology().region_total_cores(region, cloud);
  for (const auto& vm : trace.vms()) {
    if (vm.cloud != cloud || !vm.alive_at(options.snapshot)) continue;
    if (region_of(vm) != region) continue;
    load.allocated_cores += vm.cores;
    const double mean_util = reference_mean_util(trace, vm);
    load.used_cores += mean_util * vm.cores;
    if (mean_util < options.underutilized_threshold)
      load.underutilized_core_pct += vm.cores;
  }
  if (load.total_cores > 0) {
    load.core_utilization_rate = load.allocated_cores / load.total_cores;
    load.underutilized_core_pct /= load.total_cores;
  }
  return load;
}

/// Every double of an oversubscription report, counts included.
std::vector<double> flatten(const policies::OversubscriptionReport& r) {
  return {double(r.nodes_evaluated), r.baseline_reserved_cores,
          r.policy_reserved_cores,   r.mean_demand_cores,
          r.reservation_shrink,      r.utilization_improvement,
          r.violation_rate};
}

std::vector<double> flatten(const policies::RegionLoad& l) {
  return {double(l.region.value()), l.total_cores,
          l.allocated_cores,        l.used_cores,
          l.core_utilization_rate,  l.underutilized_core_pct};
}

/// Every double of a shift outcome: the recommendation and its four loads.
std::vector<double> flatten(const policies::ShiftOutcome& o) {
  std::vector<double> out = {double(o.shift.service.value()),
                             double(o.shift.from.value()),
                             double(o.shift.to.value()), o.shift.cores_moved,
                             o.shift.service_mean_utilization};
  for (const auto* load : {&o.source_before, &o.source_after, &o.dest_before,
                           &o.dest_after}) {
    const auto v = flatten(*load);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

/// What one advisor run produces, per cloud.
struct AdvisorRun {
  std::vector<std::string> rendered;
  std::vector<std::vector<double>> oversubscription;
  std::optional<policies::ShiftOutcome> rebalance;  ///< private cloud
};

AdvisorRun run_advisor(const TraceStore& trace, const kb::KnowledgeBase& kb,
                       std::size_t threads) {
  AdvisorRun run;
  for (const CloudType cloud : {CloudType::kPrivate, CloudType::kPublic}) {
    const auto report = policies::advise(trace, kb, cloud,
                                         ParallelConfig::with_threads(threads));
    run.rendered.push_back(policies::render_report(trace, report));
    run.oversubscription.push_back(flatten(report.oversubscription));
    if (cloud == CloudType::kPrivate) run.rebalance = report.rebalance;
  }
  return run;
}

void expect_same_advice(const AdvisorRun& a, const AdvisorRun& b,
                        const char* what) {
  EXPECT_EQ(a.rendered, b.rendered) << what;
  EXPECT_EQ(a.oversubscription, b.oversubscription) << what;
  ASSERT_EQ(a.rebalance.has_value(), b.rebalance.has_value()) << what;
  if (a.rebalance) {
    EXPECT_EQ(flatten(*a.rebalance), flatten(*b.rebalance)) << what;
  }
}

class AdvisorEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new Scenario(small_scenario(1234, 1));
    kb::ExtractorOptions options;
    options.max_classified_vms = 4;
    kb_ = new kb::KnowledgeBase(
        kb::extract_all(AnalysisContext(*scenario_->trace), options));
  }
  static void TearDownTestSuite() {
    delete kb_;
    delete scenario_;
    kb_ = nullptr;
    scenario_ = nullptr;
  }
  static Scenario* scenario_;
  static kb::KnowledgeBase* kb_;
};

Scenario* AdvisorEquivalence::scenario_ = nullptr;
kb::KnowledgeBase* AdvisorEquivalence::kb_ = nullptr;

TEST_F(AdvisorEquivalence, ThreadsAndPanelBitIdentical) {
  TraceStore& trace = *scenario_->trace;
  ASSERT_EQ(trace.telemetry_panel(), nullptr);
  const AdvisorRun rows_serial = run_advisor(trace, *kb_, 1);
  const AdvisorRun rows_threads = run_advisor(trace, *kb_, 8);
  ASSERT_NE(trace.build_telemetry_panel(), nullptr);
  const AdvisorRun panel_serial = run_advisor(trace, *kb_, 1);
  const AdvisorRun panel_threads = run_advisor(trace, *kb_, 8);

  ASSERT_TRUE(rows_serial.rebalance.has_value())
      << "the scenario must exercise the private-cloud shift";
  ASSERT_GT(rows_serial.oversubscription[0][0], 0.0);
  ASSERT_GT(rows_serial.oversubscription[1][0], 0.0);
  expect_same_advice(rows_serial, rows_threads, "no panel, 1 vs 8 threads");
  expect_same_advice(rows_serial, panel_serial, "1 thread, panel vs none");
  expect_same_advice(rows_serial, panel_threads,
                     "no panel 1 thread vs panel 8 threads");
}

// Runs over whichever panel state the suite left behind;
// ThreadsAndPanelBitIdentical ties the two states to each other.
TEST_F(AdvisorEquivalence, MatchesPerTickModelLoops) {
  const TraceStore& trace = *scenario_->trace;
  for (const std::size_t threads : {1, 8}) {
    const ParallelConfig parallel = ParallelConfig::with_threads(threads);
    for (const CloudType cloud : {CloudType::kPrivate, CloudType::kPublic}) {
      EXPECT_EQ(flatten(policies::evaluate_oversubscription(trace, cloud, {},
                                                            parallel)),
                flatten(reference_oversubscription(trace, cloud)))
          << to_string(cloud) << ", threads " << threads;
    }

    const CloudType cloud = CloudType::kPrivate;
    const auto loads = policies::all_region_loads(trace, cloud, {}, parallel);
    ASSERT_EQ(loads.size(), trace.topology().regions().size());
    for (const auto& load : loads) {
      EXPECT_EQ(flatten(load),
                flatten(reference_region_load(
                    trace, cloud, load.region,
                    [](const VmRecord& vm) { return vm.region; })))
          << "region " << load.region.value() << ", threads " << threads;
    }

    const auto shift = policies::recommend_shift(trace, cloud, {}, parallel);
    ASSERT_TRUE(shift.has_value());
    // The recommended service's source footprint, from per-tick means.
    const policies::RebalanceOptions options;
    double cores = 0, used = 0;
    for (const auto& vm : trace.vms()) {
      if (vm.cloud != cloud || vm.service != shift->service) continue;
      if (vm.region != shift->from || !vm.alive_at(options.snapshot)) continue;
      cores += vm.cores;
      used += reference_mean_util(trace, vm) * vm.cores;
    }
    EXPECT_EQ(shift->cores_moved, cores);
    EXPECT_EQ(shift->service_mean_utilization, used / cores);

    const auto outcome =
        policies::evaluate_shift(trace, cloud, *shift, {}, parallel);
    const auto moved = [&](const VmRecord& vm) {
      if (vm.service == shift->service && vm.region == shift->from)
        return shift->to;
      return vm.region;
    };
    const auto own = [](const VmRecord& vm) { return vm.region; };
    EXPECT_EQ(flatten(outcome.source_before),
              flatten(reference_region_load(trace, cloud, shift->from, own)));
    EXPECT_EQ(flatten(outcome.dest_before),
              flatten(reference_region_load(trace, cloud, shift->to, own)));
    EXPECT_EQ(flatten(outcome.source_after),
              flatten(reference_region_load(trace, cloud, shift->from, moved)));
    EXPECT_EQ(flatten(outcome.dest_after),
              flatten(reference_region_load(trace, cloud, shift->to, moved)));
  }
}

}  // namespace
}  // namespace cloudlens
