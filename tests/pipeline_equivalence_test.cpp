// End-to-end equivalence pins for the cached run plan: a snapshot-loaded
// trace must reproduce fresh generation *byte-for-byte* — same
// characterization report, same figure CSVs — at any thread count; a warm
// run must reproduce the cold run's records, panel and kb bit for bit
// from cache hits only; and a warm cache must actually skip the generate
// and kb work (observed via the pipeline.* counters, not timing).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/context.h"
#include "analysis/figures.h"
#include "analysis/report.h"
#include "cloudsim/telemetry_panel.h"
#include "obs/metrics.h"
#include "pipeline/run_plan.h"
#include "stats/kernels/kernels.h"
#include "testutil.h"

namespace cloudlens::pipeline {
namespace {

namespace fs = std::filesystem;

struct RunOutput {
  std::string report;
  std::map<std::string, std::string> figures;
  std::vector<StageReport> stages;
  bool panel = false;  ///< the resolved trace held a telemetry panel
};

RunPlanOptions plan_options(const std::string& cache_dir, bool cache_enabled,
                            std::size_t threads,
                            obs::MetricsRegistry* metrics = nullptr) {
  RunPlanOptions options;
  options.scenario.scale = 0.03;
  options.scenario.seed = 11;
  options.cache_dir = cache_dir;
  options.cache_enabled = cache_enabled;
  options.parallel = ParallelConfig::with_threads(threads);
  options.metrics = metrics;
  return options;
}

/// Resolve the plan, then render the report and every figure CSV into
/// memory so runs can be compared byte-for-byte.
RunOutput run_and_render(const RunPlanOptions& options) {
  RunOutput out;
  const ResolvedRun run = run_trace_plan(options);
  out.stages = run.reports;
  out.panel = run.trace->trace->telemetry_panel() != nullptr;

  const AnalysisContext ctx(*run.trace->trace, options.parallel);
  std::ostringstream report;
  analysis::write_characterization_report(ctx, report);
  out.report = report.str();

  std::map<std::string, std::ostringstream> streams;
  analysis::write_figure_csvs(
      ctx, [&](const std::string& name) -> std::ostream& {
        return streams[name];
      });
  for (auto& [name, stream] : streams) out.figures[name] = stream.str();
  return out;
}

StageReport::Source source_of(const RunOutput& out, const std::string& name) {
  for (const auto& report : out.stages) {
    if (report.name == name) return report.source;
  }
  ADD_FAILURE() << "no stage report for " << name;
  return StageReport::Source::kComputed;
}

class PipelineEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::path(::testing::TempDir()) /
            (std::string("cloudlens_equiv_") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(PipelineEquivalenceTest, ReportAndFiguresBitIdenticalColdWarmThreads) {
  // Uncached single-threaded run: the ground truth bytes.
  const RunOutput fresh = run_and_render(plan_options("", false, 1));
  ASSERT_FALSE(fresh.report.empty());
  ASSERT_FALSE(fresh.figures.empty());
  EXPECT_EQ(source_of(fresh, "trace"), StageReport::Source::kComputed);

  // Cold cached run at 8 threads: computes + stores, same bytes.
  const RunOutput cold = run_and_render(plan_options(dir_, true, 8));
  EXPECT_EQ(source_of(cold, "trace"), StageReport::Source::kComputedAndStored);
  EXPECT_EQ(cold.report, fresh.report);
  EXPECT_EQ(cold.figures, fresh.figures);

  // Warm run back at 1 thread: the trace comes off disk and the panel is
  // rebuilt over it; the round trip must not move a single output byte.
  const RunOutput warm = run_and_render(plan_options(dir_, true, 1));
  EXPECT_EQ(source_of(warm, "trace"), StageReport::Source::kCacheHit);
  EXPECT_EQ(warm.report, fresh.report);
  EXPECT_EQ(warm.figures, fresh.figures);
  for (const RunOutput* run : {&fresh, &cold, &warm}) {
    EXPECT_TRUE(run->panel);
    EXPECT_EQ(run->stages.size(), 1u);  // the panel is never a cached step
  }
}

/// Every VM record field, and every telemetry panel row bit, of `b`
/// equals `a`'s.
void expect_same_records_and_panel(const TraceStore& a, const TraceStore& b) {
  ASSERT_EQ(b.vms().size(), a.vms().size());
  for (std::size_t i = 0; i < a.vms().size(); ++i) {
    const VmRecord& x = a.vms()[i];
    const VmRecord& y = b.vms()[i];
    ASSERT_TRUE(x.id == y.id && x.subscription == y.subscription &&
                x.service == y.service && x.cloud == y.cloud &&
                x.party == y.party && x.region == y.region &&
                x.cluster == y.cluster && x.rack == y.rack &&
                x.node == y.node && x.created == y.created &&
                x.deleted == y.deleted &&
                std::bit_cast<std::uint64_t>(x.cores) ==
                    std::bit_cast<std::uint64_t>(y.cores) &&
                std::bit_cast<std::uint64_t>(x.memory_gb) ==
                    std::bit_cast<std::uint64_t>(y.memory_gb))
        << "vm " << i;
  }
  const TelemetryPanel* pa = a.telemetry_panel();
  const TelemetryPanel* pb = b.telemetry_panel();
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  ASSERT_EQ(pb->vm_count(), pa->vm_count());
  for (std::size_t v = 0; v < pa->vm_count(); ++v) {
    const VmId id(static_cast<VmId::underlying>(v));
    ASSERT_EQ(pb->row(id).size(), pa->row(id).size());
    ASSERT_EQ(std::memcmp(pb->row(id).data(), pa->row(id).data(),
                          pa->row(id).size_bytes()),
              0)
        << "panel row " << v;
  }
}

TEST_F(PipelineEquivalenceTest, WarmRunReproducesColdArtifactsFromHitsOnly) {
  // A warm run must be served by cache hits alone, and what it serves —
  // the VM records, the panel rebuilt over them, and the kb records —
  // must equal the cold run's bit for bit (the kb's doubles included).
  RunPlanOptions options = plan_options(dir_, true, 4);
  options.want_kb = true;
  options.kb_options.max_classified_vms = 4;
  const ResolvedRun cold = run_trace_plan(options);
  for (const StageReport& r : cold.reports)
    EXPECT_EQ(r.source, StageReport::Source::kComputedAndStored) << r.name;

  options.parallel = ParallelConfig::with_threads(1);
  const ResolvedRun warm = run_trace_plan(options);
  for (const StageReport& r : warm.reports)
    EXPECT_EQ(r.source, StageReport::Source::kCacheHit) << r.name;

  expect_same_records_and_panel(*cold.trace->trace, *warm.trace->trace);
  test::expect_same_knowledge(*cold.knowledge, *warm.knowledge);
  EXPECT_EQ(warm.knowledge->to_csv(), cold.knowledge->to_csv());
}

TEST_F(PipelineEquivalenceTest, WarmCacheSkipsGenerateAndKbWork) {
  // pipeline.* counters go to the registry the plan was handed; the
  // generator and the panel build record against the process-global
  // registry (they have no context parameter), so watch both.
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  auto& global = obs::MetricsRegistry::global();
  global.reset();
  global.set_enabled(true);

  RunPlanOptions options = plan_options(dir_, true, 2, &metrics);
  options.scenario.scale = 0.02;
  options.want_kb = true;
  options.kb_options.max_classified_vms = 4;
  const ResolvedRun cold_run = run_trace_plan(options);
  auto cold = metrics.snapshot();
  // trace, panel and kb steps; only trace and kb touch the cache, and the
  // bytes written are exactly theirs (the panel is never stored).
  EXPECT_EQ(cold.counter("pipeline.stage_runs"), 3u);
  EXPECT_EQ(cold.counter("pipeline.cache_misses"), 2u);
  EXPECT_EQ(cold.counter("pipeline.cache_stores"), 2u);
  EXPECT_EQ(cold.counter("pipeline.cache_hits"), 0u);
  EXPECT_EQ(cold.counter("pipeline.cache_bytes_written"),
            cold_run.reports.at(0).artifact_bytes +
                cold_run.reports.at(1).artifact_bytes);
  // The cold run actually generated (one run per cloud), built the panel
  // and extracted the kb.
  auto cold_global = global.snapshot();
  EXPECT_EQ(cold_global.counter("gen.runs"), 2u);
  EXPECT_EQ(cold_global.counter("panel.builds"), 1u);
  EXPECT_EQ(cold.counter("kb.extractions"), 1u);

  metrics.reset();
  global.reset();
  run_trace_plan(options);
  auto warm = metrics.snapshot();
  EXPECT_EQ(warm.counter("pipeline.stage_runs"), 3u);
  EXPECT_EQ(warm.counter("pipeline.cache_hits"), 2u);
  EXPECT_EQ(warm.counter("pipeline.cache_misses"), 0u);
  EXPECT_EQ(warm.counter("pipeline.cache_stores"), 0u);
  EXPECT_EQ(warm.counter("pipeline.cache_bytes_read"),
            cold.counter("pipeline.cache_bytes_written"));
  // Warm runs never regenerate the workload or re-extract the kb; the
  // panel is rebuilt in memory over the loaded trace.
  auto warm_global = global.snapshot();
  EXPECT_EQ(warm_global.counter("gen.runs"), 0u);
  EXPECT_EQ(warm.counter("kb.extractions"), 0u);
  EXPECT_EQ(warm_global.counter("panel.builds"), 1u);
  global.set_enabled(false);
}

/// The characterization report of a resolved run.
std::string render_report(const ResolvedRun& run) {
  const AnalysisContext ctx(*run.trace->trace, ParallelConfig{});
  std::ostringstream report;
  analysis::write_characterization_report(ctx, report);
  return report.str();
}

/// This process's record-shard spill directories in the temp dir.
std::size_t own_spill_dirs() {
  const std::string prefix =
      "cloudlens-record-shards-" + std::to_string(::getpid()) + "-";
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(fs::temp_directory_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

TEST(RunPlanTest, RecordShardedRunsAliveTogetherKeepTheirOwnSpills) {
  // Two uncached record-sharded runs held at once in one process: each
  // must page from its own spill files, match the resident report, and
  // take its spill directory with it when destroyed.
  const auto options = [](std::uint64_t seed, std::uint32_t shards) {
    RunPlanOptions o;
    o.scenario.scale = 0.02;
    o.scenario.seed = seed;
    o.cache_enabled = false;
    o.record_shards = shards;
    o.shard_budget_mib = 0;
    return o;
  };
  const std::string resident_a = render_report(run_trace_plan(options(11, 0)));
  const std::string resident_b = render_report(run_trace_plan(options(12, 0)));
  ASSERT_NE(resident_a, resident_b);
  const std::size_t dirs_before = own_spill_dirs();
  {
    const ResolvedRun a = run_trace_plan(options(11, 4));
    {
      const ResolvedRun b = run_trace_plan(options(12, 4));
      EXPECT_EQ(own_spill_dirs(), dirs_before + 2);
      EXPECT_EQ(render_report(a), resident_a);
      EXPECT_EQ(render_report(b), resident_b);
    }
    EXPECT_EQ(render_report(a), resident_a);
  }
  EXPECT_EQ(own_spill_dirs(), dirs_before);
}

/// A record-sharded plan (scale 0.02, seed 11, 4 shards, budget 0) with
/// its kb, over the cache at `cache_dir`.
RunPlanOptions sharded_plan(const std::string& cache_dir) {
  RunPlanOptions o;
  o.scenario.scale = 0.02;
  o.scenario.seed = 11;
  o.cache_dir = cache_dir;
  o.want_kb = true;
  o.kb_options.max_classified_vms = 4;
  o.record_shards = 4;
  o.shard_budget_mib = 0;
  return o;
}

/// The names of every entry in `dir`, directories marked with a '/'.
std::vector<std::string> cache_entries(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string() +
                    (entry.is_directory() ? "/" : ""));
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(RunPlanTest, RecordShardedRunStreamsTheResidentRunsSnapshot) {
  // A resident cached run stores the trace and kb; a record-sharded run
  // on the same cache stream-loads that snapshot into its own shards.
  const fs::path cache = fs::path(::testing::TempDir()) /
                         "cloudlens_runplan_sharded_hit";
  fs::remove_all(cache);
  RunPlanOptions resident_plan = sharded_plan(cache.string());
  resident_plan.record_shards = 0;
  const std::string resident = render_report(run_trace_plan(resident_plan));
  const std::vector<std::string> stored = cache_entries(cache);
  ASSERT_EQ(stored.size(), 2u);

  const std::size_t dirs_before = own_spill_dirs();
  {
    const ResolvedRun sharded = run_trace_plan(sharded_plan(cache.string()));
    ASSERT_EQ(sharded.reports.size(), 2u);
    for (const StageReport& r : sharded.reports)
      EXPECT_EQ(r.source, StageReport::Source::kCacheHit) << r.name;
    EXPECT_TRUE(sharded.trace->trace->population_sharded());
    EXPECT_EQ(own_spill_dirs(), dirs_before + 1);
    EXPECT_EQ(render_report(sharded), resident);
  }
  // The spill dir went with the run, and the cache holds what the
  // resident run stored, nothing more.
  EXPECT_EQ(own_spill_dirs(), dirs_before);
  EXPECT_EQ(cache_entries(cache), stored);
  fs::remove_all(cache);
}

TEST(RunPlanTest, RecordShardedMissStreamsAndStoresNoTrace) {
  // On an empty cache a record-sharded run streams from the generator; it
  // never holds a resident trace, so it stores no trace artifact, and it
  // leaves no spill directory in the cache. The kb is still cached.
  const fs::path cache = fs::path(::testing::TempDir()) /
                         "cloudlens_runplan_sharded_miss";
  fs::remove_all(cache);
  std::string sharded_report;
  {
    const ResolvedRun run = run_trace_plan(sharded_plan(cache.string()));
    ASSERT_EQ(run.reports.size(), 2u);
    EXPECT_EQ(run.reports[0].name, "trace");
    EXPECT_EQ(run.reports[0].source, StageReport::Source::kComputed);
    EXPECT_EQ(run.reports[0].artifact_bytes, 0u);
    EXPECT_EQ(run.reports[1].name, "kb");
    EXPECT_EQ(run.reports[1].source,
              StageReport::Source::kComputedAndStored);
    EXPECT_TRUE(run.trace->trace->population_sharded());
    sharded_report = render_report(run);
  }
  const std::vector<std::string> entries = cache_entries(cache);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rfind("kb-", 0), 0u) << entries[0];

  RunPlanOptions resident_plan = sharded_plan("");
  resident_plan.cache_enabled = false;
  resident_plan.record_shards = 0;
  EXPECT_EQ(sharded_report, render_report(run_trace_plan(resident_plan)));
  fs::remove_all(cache);
}

// --- Kernel path equivalence ---------------------------------------------

namespace kernels = stats::kernels;

TEST_F(PipelineEquivalenceTest, StrictModeBitIdenticalAcrossKernelTiers) {
  // The byte-identity contract across kernel paths: the report and every
  // figure CSV are identical whether the kernels run scalar or AVX2,
  // fresh or loaded from a snapshot, at 1 or 8 threads.
  const RunOutput reference = [] {
    const kernels::ScopedTier scalar(kernels::Tier::kScalar);
    return run_and_render(plan_options("", false, 1));
  }();
  ASSERT_FALSE(reference.report.empty());

  std::vector<kernels::Tier> tiers{kernels::Tier::kScalar};
  if (kernels::cpu_tier() == kernels::Tier::kAvx2)
    tiers.push_back(kernels::Tier::kAvx2);
  for (const auto tier : tiers) {
    const std::string name =
        tier == kernels::Tier::kAvx2 ? "avx2" : "scalar";
    SCOPED_TRACE("tier=" + name);
    const kernels::ScopedTier scoped(tier);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      // Fresh (uncached) run.
      const RunOutput fresh =
          run_and_render(plan_options("", false, threads));
      EXPECT_EQ(fresh.report, reference.report) << threads << " threads";
      EXPECT_EQ(fresh.figures, reference.figures) << threads << " threads";
    }
    // Snapshot round trip on this path: cold stores, warm loads; both
    // must reproduce the reference bytes. A per-path cache dir keeps the
    // cold/warm sequence self-contained.
    const std::string tier_dir = dir_ + "_" + name;
    fs::remove_all(tier_dir);
    const RunOutput cold = run_and_render(plan_options(tier_dir, true, 8));
    EXPECT_EQ(source_of(cold, "trace"),
              StageReport::Source::kComputedAndStored);
    EXPECT_EQ(cold.report, reference.report);
    const RunOutput warm = run_and_render(plan_options(tier_dir, true, 1));
    EXPECT_EQ(source_of(warm, "trace"), StageReport::Source::kCacheHit);
    EXPECT_EQ(warm.report, reference.report);
    EXPECT_EQ(warm.figures, reference.figures);
    fs::remove_all(tier_dir);
  }

  // Stage keys carry no kernel path: a cache the scalar path filled is a
  // warm hit on this CPU's path for the trace and kb stages.
  RunPlanOptions options = plan_options(dir_, true, 1);
  options.want_kb = true;
  {
    const kernels::ScopedTier scalar(kernels::Tier::kScalar);
    const RunOutput cold = run_and_render(options);
    EXPECT_EQ(source_of(cold, "kb"), StageReport::Source::kComputedAndStored);
  }
  const RunOutput warm = run_and_render(options);
  for (const char* stage : {"trace", "kb"})
    EXPECT_EQ(source_of(warm, stage), StageReport::Source::kCacheHit) << stage;
  EXPECT_EQ(warm.report, reference.report);
}

}  // namespace
}  // namespace cloudlens::pipeline
