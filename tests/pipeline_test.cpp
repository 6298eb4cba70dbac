// Run-plan tests: content-hash behaviour, artifact-cache atomic
// store/lookup, the cached steps' hit/miss flow and metrics, key
// derivation invariants (inputs and options change keys; thread counts
// never do), and pinned trace and kb keys.
#include "pipeline/run_plan.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "obs/metrics.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/content_hash.h"

namespace cloudlens::pipeline {
namespace {

namespace fs = std::filesystem;

/// Unique empty directory under the test temp root, removed on teardown.
class TempDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("cloudlens_") + info->test_suite_name() + "_" +
            info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }
  fs::path dir_;
};

TEST(ContentHashTest, DeterministicAndSensitive) {
  const auto key = [](auto&& fill) {
    ContentHash h;
    fill(h);
    return h.hex();
  };
  const std::string a = key([](ContentHash& h) { h.str("x"), h.u64(1); });
  EXPECT_EQ(a, key([](ContentHash& h) { h.str("x"), h.u64(1); }));
  EXPECT_EQ(a.size(), 32u);
  EXPECT_NE(a, key([](ContentHash& h) { h.str("x"), h.u64(2); }));
  EXPECT_NE(a, key([](ContentHash& h) { h.str("y"), h.u64(1); }));

  // Length-prefixed strings: concatenation cannot collide.
  EXPECT_NE(key([](ContentHash& h) { h.str("ab"), h.str("c"); }),
            key([](ContentHash& h) { h.str("a"), h.str("bc"); }));
  // Doubles hash as bit patterns: -0.0 and +0.0 are distinct inputs.
  EXPECT_NE(key([](ContentHash& h) { h.f64(0.0); }),
            key([](ContentHash& h) { h.f64(-0.0); }));
}

TEST_F(TempDirTest, ArtifactCacheStoresAndLooksUp) {
  const ArtifactCache cache(dir());
  ASSERT_TRUE(cache.enabled());
  EXPECT_EQ(cache.lookup_size("s", "k"), 0u);

  const auto bytes = cache.store(
      "s", "k", [](std::ostream& out) { out << "payload"; });
  EXPECT_EQ(bytes, 7u);
  EXPECT_EQ(cache.lookup_size("s", "k"), 7u);

  std::ifstream in(cache.path_for("s", "k"), std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "payload");

  // No temp litter after a successful store.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir())) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(ArtifactCacheTest, DisabledCacheIsInert) {
  const ArtifactCache off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.lookup_size("s", "k"), 0u);
  EXPECT_EQ(off.store("s", "k", [](std::ostream&) {}), 0u);

  const ArtifactCache flagged_off("/nonexistent", false);
  EXPECT_FALSE(flagged_off.enabled());
}

// --- run-plan key invariants (generated mode) ----------------------------

/// A small generated plan: trace only, or trace + kb with `generate`'s kb
/// options.
RunPlanOptions small_plan(const std::string& cache_dir, double scale,
                          std::uint64_t seed, std::size_t threads,
                          bool want_kb = false) {
  RunPlanOptions options;
  options.scenario.scale = scale;
  options.scenario.seed = seed;
  options.want_panel = false;
  options.want_kb = want_kb;
  options.kb_options.max_classified_vms = 4;
  options.cache_dir = cache_dir;
  options.parallel = ParallelConfig::with_threads(threads);
  return options;
}

std::vector<StageReport> plan_reports(const std::string& cache_dir,
                                      double scale, std::uint64_t seed,
                                      std::size_t threads,
                                      bool mutate_profile = false) {
  RunPlanOptions options = small_plan(cache_dir, scale, seed, threads);
  if (mutate_profile) {
    options.scenario.private_profile.pattern_mix.diurnal += 0.01;
  }
  return run_trace_plan(options).reports;
}

TEST_F(TempDirTest, ColdStoresThenWarmHits) {
  const auto cold = run_trace_plan(small_plan(dir(), 0.02, 7, 2, true));
  ASSERT_EQ(cold.reports.size(), 2u);
  for (const StageReport& r : cold.reports) {
    EXPECT_EQ(r.source, StageReport::Source::kComputedAndStored) << r.name;
    EXPECT_GT(r.artifact_bytes, 0u) << r.name;
    EXPECT_EQ(r.key_hex.size(), 32u) << r.name;
  }
  const auto warm = run_trace_plan(small_plan(dir(), 0.02, 7, 2, true));
  ASSERT_EQ(warm.reports.size(), 2u);
  for (std::size_t i = 0; i < warm.reports.size(); ++i) {
    EXPECT_EQ(warm.reports[i].name, cold.reports[i].name);
    EXPECT_EQ(warm.reports[i].source, StageReport::Source::kCacheHit);
    EXPECT_EQ(warm.reports[i].key_hex, cold.reports[i].key_hex);
    EXPECT_EQ(warm.reports[i].artifact_bytes, cold.reports[i].artifact_bytes);
  }
  // Exactly one file per cached artifact, and no panel among them.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir())) {
    const std::string name = e.path().filename().string();
    EXPECT_TRUE(name.rfind("trace-", 0) == 0 || name.rfind("kb-", 0) == 0)
        << name;
    ++files;
  }
  EXPECT_EQ(files, 2u);
}

TEST_F(TempDirTest, KeyCoversOwnOptionsAndInputKeys) {
  const auto kb_key = [&](const RunPlanOptions& options) {
    const auto reports = run_trace_plan(options).reports;
    return reports.at(1).key_hex;
  };
  const std::string base = kb_key(small_plan(dir(), 0.02, 7, 1, true));
  // The kb key shifts when the trace's key shifts...
  EXPECT_NE(kb_key(small_plan(dir(), 0.02, 8, 1, true)), base);
  // ...and when its own configuration changes...
  RunPlanOptions own = small_plan(dir(), 0.02, 7, 1, true);
  own.kb_options.oversub_p95_max += 0.01;
  EXPECT_NE(kb_key(own), base);
  // ...but never with the thread count or the panel.
  RunPlanOptions env = small_plan(dir(), 0.02, 7, 4, true);
  env.want_panel = true;
  EXPECT_EQ(kb_key(env), base);
}

TEST_F(TempDirTest, MetricsCountHitsMissesAndBytes) {
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  RunPlanOptions options = small_plan(dir(), 0.02, 7, 1);
  options.metrics = &metrics;
  const auto cold = run_trace_plan(options);
  auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counter("pipeline.stage_runs"), 1u);
  EXPECT_EQ(snap.counter("pipeline.cache_misses"), 1u);
  EXPECT_EQ(snap.counter("pipeline.cache_stores"), 1u);
  EXPECT_EQ(snap.counter("pipeline.cache_bytes_written"),
            cold.reports.at(0).artifact_bytes);
  EXPECT_EQ(snap.counter("pipeline.cache_hits"), 0u);

  metrics.reset();
  run_trace_plan(options);
  snap = metrics.snapshot();
  EXPECT_EQ(snap.counter("pipeline.cache_hits"), 1u);
  EXPECT_EQ(snap.counter("pipeline.cache_misses"), 0u);
  EXPECT_EQ(snap.counter("pipeline.cache_bytes_read"),
            cold.reports.at(0).artifact_bytes);
}

TEST_F(TempDirTest, RunPlanKeysArePinned) {
  // The trace key of `cloudlens generate --scale 0.02 --seed 7`, unchanged
  // since the cache was introduced, so caches filled by earlier builds
  // stay warm. The kb key is pinned after its layout
  // byte moved to 2 (the exact CLSN artifact).
  const auto reports = run_trace_plan(small_plan(dir(), 0.02, 7, 1, true))
                           .reports;
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].name, "trace");
  EXPECT_EQ(reports[0].key_hex, "e683202c1fef01afb08083f0436525aa");
  EXPECT_EQ(reports[1].name, "kb");
  EXPECT_EQ(reports[1].key_hex, "eea1b1f047cbbfb24a925d68ccf45991");
}

TEST_F(TempDirTest, RunPlanKeyTracksIdentityButNeverThreads) {
  const auto cold = plan_reports(dir(), 0.02, 7, 1);
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_EQ(cold[0].source, StageReport::Source::kComputedAndStored);
  const std::string base_key = cold[0].key_hex;

  // Same identity at a different thread count: warm hit, same key.
  const auto warm = plan_reports(dir(), 0.02, 7, 4);
  EXPECT_EQ(warm[0].source, StageReport::Source::kCacheHit);
  EXPECT_EQ(warm[0].key_hex, base_key);

  // Seed, scale, and profile parameters are identity: key must move.
  EXPECT_NE(plan_reports(dir(), 0.02, 8, 1)[0].key_hex, base_key);
  EXPECT_NE(plan_reports(dir(), 0.021, 7, 1)[0].key_hex, base_key);
  EXPECT_NE(plan_reports(dir(), 0.02, 7, 1, true)[0].key_hex, base_key);
}

TEST_F(TempDirTest, RunPlanCacheDisabledNeverStores) {
  RunPlanOptions options = small_plan(dir(), 0.02, 7, 1, true);
  options.cache_enabled = false;
  const auto run = run_trace_plan(options);
  ASSERT_EQ(run.reports.size(), 2u);
  for (const StageReport& r : run.reports) {
    EXPECT_EQ(r.source, StageReport::Source::kComputed) << r.name;
    EXPECT_TRUE(r.key_hex.empty()) << r.name;
  }
  EXPECT_TRUE(fs::is_empty(dir()));
}

TEST(StageTableTest, RendersOneRowPerReport) {
  StageReport hit;
  hit.name = "trace";
  hit.source = StageReport::Source::kCacheHit;
  hit.millis = 12.5;
  hit.key_hex = "0123456789abcdef0123456789abcdef";
  hit.artifact_bytes = 1234;
  StageReport computed;
  computed.name = "kb";
  const std::string table = render_stage_table({hit, computed});
  EXPECT_NE(table.find("trace"), std::string::npos);
  EXPECT_NE(table.find("hit"), std::string::npos);
  EXPECT_NE(table.find("0123456789ab.."), std::string::npos);
  EXPECT_NE(table.find("kb"), std::string::npos);
  EXPECT_NE(table.find("computed"), std::string::npos);
}

}  // namespace
}  // namespace cloudlens::pipeline
