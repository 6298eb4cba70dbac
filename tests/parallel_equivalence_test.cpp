// Parallel-vs-serial equivalence suite: the engine's determinism contract,
// proven end to end. Every parallelized pipeline stage — workload
// generation, pattern classification, spatial correlation, utilization
// distribution, profile fitting — must produce *bit-identical* output at
// threads = 1 (the plain serial loops) and threads = 8, across several
// seeds. Comparisons use EXPECT_EQ on doubles deliberately: approximate
// equality would hide reassociated floating-point sums.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/classifier.h"
#include "analysis/spatial.h"
#include "analysis/utilization.h"
#include "cloudsim/telemetry_panel.h"
#include "cloudsim/trace_io.h"
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

}  // namespace
}  // namespace cloudlens
