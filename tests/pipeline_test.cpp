// Pipeline engine tests: content-hash behaviour, artifact-cache
// atomic store/lookup, runner memoization and hit/miss flow, key
// derivation invariants (inputs and options change keys; thread counts
// never do), and the run-plan stage graph end to end.
#include "pipeline/pipeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/check.h"
#include "obs/metrics.h"
#include "pipeline/run_plan.h"

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

Stage string_stage(const std::string& name, const std::string& value,
                   int* compute_count,
                   std::vector<std::string> inputs = {}) {
  Stage s;
  s.name = name;
  s.inputs = std::move(inputs);
  s.key_extra = [value](ContentHash& h) { h.str(value); };
  s.compute = [value, compute_count](const StageInputs&) {
    if (compute_count != nullptr) ++*compute_count;
    return std::make_shared<std::string>(value);
  };
  s.save = [](const std::shared_ptr<void>& artifact, const StageInputs&,
              std::ostream& out) {
    out << *std::static_pointer_cast<std::string>(artifact);
  };
  s.load = [](const StageInputs&, std::istream& in) {
    std::stringstream buffer;
    buffer << in.rdbuf();
    return std::make_shared<std::string>(buffer.str());
  };
  return s;
}

TEST_F(TempDirTest, RunnerMemoizesWithinARun) {
  int computes = 0;
  PipelineRunner runner{ArtifactCache{}};
  runner.add(string_stage("a", "va", &computes));
  const auto first = runner.resolve_as<std::string>("a");
  const auto second = runner.resolve_as<std::string>("a");
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(runner.reports().size(), 1u);
  EXPECT_EQ(runner.reports()[0].source, StageReport::Source::kComputed);
  EXPECT_TRUE(runner.reports()[0].key_hex.empty());  // cache disabled
}

TEST_F(TempDirTest, ColdStoresThenWarmHits) {
  int computes = 0;
  {
    PipelineRunner cold{ArtifactCache{dir()}};
    cold.add(string_stage("a", "va", &computes));
    EXPECT_EQ(*cold.resolve_as<std::string>("a"), "va");
    ASSERT_EQ(cold.reports().size(), 1u);
    EXPECT_EQ(cold.reports()[0].source,
              StageReport::Source::kComputedAndStored);
    EXPECT_EQ(cold.reports()[0].artifact_bytes, 2u);
    EXPECT_EQ(computes, 1);
  }
  {
    PipelineRunner warm{ArtifactCache{dir()}};
    warm.add(string_stage("a", "va", &computes));
    EXPECT_EQ(*warm.resolve_as<std::string>("a"), "va");
    ASSERT_EQ(warm.reports().size(), 1u);
    EXPECT_EQ(warm.reports()[0].source, StageReport::Source::kCacheHit);
    EXPECT_EQ(computes, 1);  // loaded, not recomputed
  }
}

TEST_F(TempDirTest, KeyCoversOwnOptionsAndInputKeys) {
  PipelineRunner r1{ArtifactCache{dir()}};
  r1.add(string_stage("base", "v1", nullptr));
  r1.add(string_stage("child", "c", nullptr, {"base"}));

  PipelineRunner r2{ArtifactCache{dir()}};
  r2.add(string_stage("base", "v2", nullptr));  // changed upstream option
  r2.add(string_stage("child", "c", nullptr, {"base"}));

  PipelineRunner r3{ArtifactCache{dir()}};
  r3.add(string_stage("base", "v1", nullptr));
  r3.add(string_stage("child", "c2", nullptr, {"base"}));  // own option

  EXPECT_NE(r1.key_hex("base"), r2.key_hex("base"));
  // The child's key shifts when an *input's* key shifts...
  EXPECT_NE(r1.key_hex("child"), r2.key_hex("child"));
  // ...and when its own configuration changes.
  EXPECT_NE(r1.key_hex("child"), r3.key_hex("child"));
  // Same graph, same keys.
  PipelineRunner r4{ArtifactCache{dir()}};
  r4.add(string_stage("base", "v1", nullptr));
  r4.add(string_stage("child", "c", nullptr, {"base"}));
  EXPECT_EQ(r1.key_hex("child"), r4.key_hex("child"));
}

TEST_F(TempDirTest, MetricsCountHitsMissesAndBytes) {
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  {
    PipelineRunner cold(ArtifactCache{dir()}, {}, &metrics);
    cold.add(string_stage("a", "va", nullptr));
    cold.resolve("a");
  }
  auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counter("pipeline.stage_runs"), 1u);
  EXPECT_EQ(snap.counter("pipeline.cache_misses"), 1u);
  EXPECT_EQ(snap.counter("pipeline.cache_stores"), 1u);
  EXPECT_EQ(snap.counter("pipeline.cache_bytes_written"), 2u);
  EXPECT_EQ(snap.counter("pipeline.cache_hits"), 0u);

  metrics.reset();
  {
    PipelineRunner warm(ArtifactCache{dir()}, {}, &metrics);
    warm.add(string_stage("a", "va", nullptr));
    warm.resolve("a");
  }
  snap = metrics.snapshot();
  EXPECT_EQ(snap.counter("pipeline.cache_hits"), 1u);
  EXPECT_EQ(snap.counter("pipeline.cache_misses"), 0u);
  EXPECT_EQ(snap.counter("pipeline.cache_bytes_read"), 2u);
}

TEST(PipelineRunnerTest, DetectsCyclesAndUndeclaredInputs) {
  PipelineRunner runner{ArtifactCache{}};
  runner.add(string_stage("a", "va", nullptr, {"b"}));
  runner.add(string_stage("b", "vb", nullptr, {"a"}));
  EXPECT_THROW(runner.resolve("a"), CheckError);

  PipelineRunner undeclared{ArtifactCache{}};
  Stage sneaky;
  sneaky.name = "sneaky";
  sneaky.compute = [](const StageInputs& inputs) {
    return inputs.get<std::string>("base");  // never declared
  };
  undeclared.add(string_stage("base", "v", nullptr));
  undeclared.add(std::move(sneaky));
  undeclared.resolve("base");
  EXPECT_THROW(undeclared.resolve("sneaky"), CheckError);
}

TEST(PipelineRunnerTest, RejectsMalformedStages) {
  PipelineRunner runner{ArtifactCache{}};
  Stage unnamed;
  unnamed.compute = [](const StageInputs&) {
    return std::make_shared<int>(0);
  };
  EXPECT_THROW(runner.add(unnamed), CheckError);

  Stage half_cacheable = string_stage("x", "v", nullptr);
  half_cacheable.load = nullptr;
  EXPECT_THROW(runner.add(std::move(half_cacheable)), CheckError);

  runner.add(string_stage("dup", "v", nullptr));
  EXPECT_THROW(runner.add(string_stage("dup", "v", nullptr)), CheckError);
  EXPECT_THROW(runner.resolve("missing"), CheckError);
}

// --- run-plan key invariants (generated mode, trace stage only) ---------

std::vector<StageReport> plan_reports(const std::string& cache_dir,
                                      double scale, std::uint64_t seed,
                                      std::size_t threads,
                                      bool mutate_profile = false) {
  RunPlanOptions options;
  options.scenario.scale = scale;
  options.scenario.seed = seed;
  options.want_panel = false;
  options.cache_dir = cache_dir;
  options.parallel = ParallelConfig::with_threads(threads);
  if (mutate_profile) {
    options.scenario.private_profile.pattern_mix.diurnal += 0.01;
  }
  return run_trace_plan(options).reports;
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
  RunPlanOptions options;
  options.scenario.scale = 0.02;
  options.scenario.seed = 7;
  options.want_panel = false;
  options.cache_dir = dir();
  options.cache_enabled = false;
  const auto run = run_trace_plan(options);
  ASSERT_EQ(run.reports.size(), 1u);
  EXPECT_EQ(run.reports[0].source, StageReport::Source::kComputed);
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
  computed.name = "panel";
  const std::string table = render_stage_table({hit, computed});
  EXPECT_NE(table.find("trace"), std::string::npos);
  EXPECT_NE(table.find("hit"), std::string::npos);
  EXPECT_NE(table.find("0123456789ab.."), std::string::npos);
  EXPECT_NE(table.find("panel"), std::string::npos);
  EXPECT_NE(table.find("computed"), std::string::npos);
}

}  // namespace
}  // namespace cloudlens::pipeline
