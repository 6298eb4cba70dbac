// Out-of-core population shard store tests: the subscription-hash router
// is a pure function of (subscription, K), conversion round-trips the
// records/subscriptions/indices bit-for-bit, the streaming build path
// (generator-order appends) produces the same router digest as
// conversion, budget-driven eviction, warm spill-file reuse, the
// TraceStore population-sharded mode contract, failure paths (unwritable
// spill dir, disk-full short write, truncated shard file), concurrent
// shard acquisition (TSan-policed in the sanitizer CI flavour), and the
// analyses staying byte-identical to the resident path at any thread
// count, both per pass and as the full rendered output set.
#include "cloudsim/population.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/classifier.h"
#include "analysis/context.h"
#include "analysis/figures.h"
#include "analysis/report.h"
#include "analysis/spatial.h"
#include "analysis/utilization.h"
#include "cloudsim/trace.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "testutil.h"
#include "workloads/generator.h"
#include "workloads/pattern_snapshot.h"

namespace cloudlens {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Unique spill directory under the system temp dir; removed on scope
/// exit unless the store already cleaned it.
class TempSpillDir {
 public:
  explicit TempSpillDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("cloudlens-poptest-" + tag))
                .string();
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ~TempSpillDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

PopulationShardingOptions spill_options(const std::string& dir,
                                        std::uint32_t shards) {
  PopulationShardingOptions opts;
  opts.shards = shards;
  opts.spill_dir = dir;
  opts.model_codec = &workloads::pattern_snapshot_codec();
  return opts;
}

/// Report + every figure CSV, concatenated — the user-visible output set.
std::string rendered_outputs(const TraceStore& trace,
                             const ParallelConfig& parallel) {
  const AnalysisContext ctx(trace, parallel);
  std::ostringstream out;
  analysis::write_characterization_report(ctx, out);
  std::ostringstream figure;
  analysis::write_figure_csvs(ctx, [&](const std::string& name) -> std::ostream& {
    figure << "\n== " << name << " ==\n";
    return figure;
  });
  out << figure.str();
  return out.str();
}

TEST(ShardRouter, IsAPureFunctionOfSubscriptionAndK) {
  for (std::uint32_t k : {1u, 2u, 7u, 16u, 101u}) {
    for (std::uint64_t raw : {0ull, 1ull, 42ull, 65535ull, 123456789ull}) {
      const SubscriptionId sub(
          static_cast<SubscriptionId::underlying>(raw));
      const std::uint32_t s = shard_of_subscription(sub, k);
      EXPECT_LT(s, k);
      EXPECT_EQ(s, shard_of_subscription(sub, k));  // stable
    }
  }
  // K=1 degenerates to a single shard.
  EXPECT_EQ(shard_of_subscription(SubscriptionId(7), 1), 0u);
  // Distinct subscriptions spread over shards (not all colliding).
  std::vector<bool> hit(16, false);
  for (std::uint64_t raw = 0; raw < 256; ++raw) {
    hit[shard_of_subscription(
        SubscriptionId(static_cast<SubscriptionId::underlying>(raw)), 16)] =
        true;
  }
  std::size_t used = 0;
  for (bool h : hit) used += h ? 1 : 0;
  EXPECT_GT(used, 8u);
}

class PopulationGeneratedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::ScenarioOptions options;
    options.scale = 0.03;
    options.seed = 17;
    scenario_ = new workloads::Scenario(workloads::make_scenario(options));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static workloads::Scenario* scenario_;
};

workloads::Scenario* PopulationGeneratedTest::scenario_ = nullptr;

TEST_F(PopulationGeneratedTest, ConversionRoundTripsRecordsAndIndices) {
  const TraceStore& trace = *scenario_->trace;
  TempSpillDir dir("roundtrip");
  auto store = PopulationShardStore::build(trace, spill_options(dir.path(), 7));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->shard_count(), 7u);
  EXPECT_EQ(store->vm_count(), trace.vms().size());
  EXPECT_EQ(store->subscription_count(), trace.subscriptions().size());

  const TimeGrid& grid = trace.telemetry_grid();
  for (std::size_t v = 0; v < trace.vms().size(); v += 13) {
    const VmRecord& a = trace.vms()[v];
    const VmRecord& b = store->record(VmId(static_cast<VmId::underlying>(v)));
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.subscription, a.subscription);
    EXPECT_EQ(b.service, a.service);
    EXPECT_EQ(b.cloud, a.cloud);
    EXPECT_EQ(b.party, a.party);
    EXPECT_EQ(b.region, a.region);
    EXPECT_EQ(b.cluster, a.cluster);
    EXPECT_EQ(b.rack, a.rack);
    EXPECT_EQ(b.node, a.node);
    EXPECT_EQ(bits(b.cores), bits(a.cores));
    EXPECT_EQ(bits(b.memory_gb), bits(a.memory_gb));
    EXPECT_EQ(b.created, a.created);
    EXPECT_EQ(b.deleted, a.deleted);
    ASSERT_EQ(b.utilization != nullptr, a.utilization != nullptr);
    if (a.utilization != nullptr) {
      // Parametric models round-trip exactly through the pattern codec:
      // identical samples at every probed tick.
      for (std::size_t i = 0; i < grid.count; i += 37) {
        const SimTime t = grid.at(i);
        EXPECT_EQ(bits(b.utilization->at(t)), bits(a.utilization->at(t)))
            << "vm " << v << " tick " << i;
      }
    }
  }

  for (std::size_t s = 0; s < trace.subscriptions().size(); ++s) {
    const SubscriptionInfo& a = trace.subscriptions()[s];
    const SubscriptionInfo& b = store->subscription(
        SubscriptionId(static_cast<SubscriptionId::underlying>(s)));
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.cloud, a.cloud);
    EXPECT_EQ(b.party, a.party);
    EXPECT_EQ(b.service, a.service);
  }

  // Per-subscription and per-node indices match the resident ones.
  for (std::size_t s = 0; s < trace.subscriptions().size(); s += 5) {
    const SubscriptionId id(static_cast<SubscriptionId::underlying>(s));
    const auto a = trace.vms_of_subscription(id);
    const auto b = store->vms_of_subscription(id);
    ASSERT_EQ(a.size(), b.size()) << "subscription " << s;
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  std::size_t nodes_checked = 0;
  for (std::size_t v = 0; v < trace.vms().size() && nodes_checked < 25;
       v += 11) {
    const NodeId node = trace.vms()[v].node;
    if (!node.valid()) continue;
    ++nodes_checked;
    const auto a = trace.vms_on_node(node);
    const auto b = store->vms_on_node(node);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  EXPECT_GT(nodes_checked, 0u);
}

TEST_F(PopulationGeneratedTest, WarmStartReusesSpillFilesWithMatchingDigest) {
  const TraceStore& trace = *scenario_->trace;
  TempSpillDir dir("warm");
  auto opts = spill_options(dir.path(), 4);
  opts.keep_files = true;

  auto& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.set_enabled(true);

  std::uint64_t digest = 0;
  {
    auto cold = PopulationShardStore::build(trace, opts);
    digest = cold->router_digest();
    EXPECT_EQ(metrics.snapshot().counter("population.shard_spills"), 4u);
  }
  // Files survived (keep_files) and the second build adopts them: no new
  // spills, identical digest, identical records.
  {
    auto warm = PopulationShardStore::build(trace, opts);
    EXPECT_EQ(warm->router_digest(), digest);
    EXPECT_EQ(metrics.snapshot().counter("population.shard_spills"), 4u);
    const VmRecord& a = trace.vms()[0];
    const VmRecord& b = warm->record(VmId(0));
    EXPECT_EQ(b.subscription, a.subscription);
    EXPECT_EQ(b.created, a.created);
  }
  metrics.set_enabled(false);
}

TEST_F(PopulationGeneratedTest, StreamingBuildMatchesConversionDigest) {
  const TraceStore& trace = *scenario_->trace;
  TempSpillDir conv_dir("digest-conv");
  auto conversion =
      PopulationShardStore::build(trace, spill_options(conv_dir.path(), 5));

  // Stream the same records through the builder path in id order — the
  // order the generator/ingest backends append them.
  TempSpillDir stream_dir("digest-stream");
  PopulationShardStore streamed(trace.telemetry_grid(),
                                spill_options(stream_dir.path(), 5));
  for (const VmRecord& vm : trace.vms()) streamed.append_vm(vm);
  streamed.finalize_spill(trace.subscriptions());

  EXPECT_EQ(streamed.router_digest(), conversion->router_digest());
  EXPECT_EQ(streamed.vm_count(), conversion->vm_count());
  EXPECT_EQ(streamed.subscription_count(), conversion->subscription_count());
  for (std::size_t v = 0; v < streamed.vm_count(); v += 17) {
    const VmId id(static_cast<VmId::underlying>(v));
    const VmRecord& a = conversion->record(id);
    const VmRecord& b = streamed.record(id);
    EXPECT_EQ(b.subscription, a.subscription);
    EXPECT_EQ(b.node, a.node);
    EXPECT_EQ(b.created, a.created);
    EXPECT_EQ(b.deleted, a.deleted);
  }
}

TEST_F(PopulationGeneratedTest, EvictionRespectsBudgetAndCountsPages) {
  const TraceStore& trace = *scenario_->trace;
  TempSpillDir dir("evict");
  auto opts = spill_options(dir.path(), 5);
  opts.budget_bytes = 0;  // at most one resident shard after eviction
  auto store = PopulationShardStore::build(trace, opts);

  auto& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.set_enabled(true);
  const auto before = metrics.snapshot();

  // Touch every shard: all five decode and stay resident until eviction.
  for (std::uint32_t s = 0; s < store->shard_count(); ++s) {
    EXPECT_FALSE(store->view(s).vms().empty());
  }
  EXPECT_GT(store->resident_bytes(), 0u);
  const std::size_t all_resident = store->resident_bytes();

  store->evict_over_budget();
  // Budget 0 keeps at most the most-recently-used shard resident.
  EXPECT_LT(store->resident_bytes(), all_resident);
  EXPECT_LE(store->resident_bytes(), all_resident / 5 + 4096);

  store->evict_all();
  EXPECT_EQ(store->resident_bytes(), 0u);

  const auto after = metrics.snapshot();
  metrics.set_enabled(false);
  EXPECT_GE(after.counter("population.shard_page_ins") -
                before.counter("population.shard_page_ins"),
            5u);
  EXPECT_GE(after.counter("population.shard_evictions") -
                before.counter("population.shard_evictions"),
            5u);
}

TEST_F(PopulationGeneratedTest, ConcurrentAcquireIsCleanAcrossEvictions) {
  const TraceStore& trace = *scenario_->trace;
  TempSpillDir dir("concurrent");
  auto store = PopulationShardStore::build(trace, spill_options(dir.path(), 6));

  // Parallel region: every worker reads records from every shard; the
  // first toucher of a shard decodes it and publishes the view with a
  // release-store. Evictions happen only at the serial points between
  // rounds. TSan polices this schedule in the sanitizer CI flavour.
  for (int round = 0; round < 3; ++round) {
    std::vector<std::thread> workers;
    std::atomic<std::uint64_t> sum{0};
    for (int w = 0; w < 8; ++w) {
      workers.emplace_back([&store, &trace, w, &sum] {
        std::uint64_t local = 0;
        for (std::size_t v = static_cast<std::size_t>(w);
             v < trace.vms().size(); v += 8) {
          const VmRecord& rec =
              store->record(VmId(static_cast<VmId::underlying>(v)));
          local += rec.subscription.value();
        }
        sum.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (auto& t : workers) t.join();
    std::uint64_t expected = 0;
    for (const VmRecord& vm : trace.vms()) expected += vm.subscription.value();
    EXPECT_EQ(sum.load(), expected);
    store->evict_all();  // serial point
  }
}

TEST_F(PopulationGeneratedTest, TraceStorePopulationShardedModeContract) {
  // Private scenario copy: set_population_sharding converts the trace
  // permanently (the resident vectors are released).
  workloads::ScenarioOptions options;
  options.scale = 0.02;
  options.seed = 23;
  auto scenario = workloads::make_scenario(options);
  TraceStore& trace = *scenario.trace;
  const std::size_t vm_count = trace.vms().size();
  const std::size_t sub_count = trace.subscriptions().size();
  const VmRecord resident_first = trace.vms()[0];

  TempSpillDir dir("mode");
  trace.set_population_sharding(spill_options(dir.path(), 3));

  EXPECT_TRUE(trace.population_sharded());
  ASSERT_NE(trace.population_shards(), nullptr);
  EXPECT_EQ(trace.population_shards()->shard_count(), 3u);
  // The resident spans are unreachable; counts and per-id accessors work.
  EXPECT_THROW(trace.vms(), CheckError);
  EXPECT_THROW(trace.subscriptions(), CheckError);
  EXPECT_EQ(trace.vm_count(), vm_count);
  EXPECT_EQ(trace.subscription_count(), sub_count);
  EXPECT_EQ(trace.vm(VmId(0)).subscription, resident_first.subscription);
  // No resident per-VM matrix of any kind in population mode.
  EXPECT_EQ(trace.telemetry_panel(), nullptr);
  EXPECT_THROW(trace.build_telemetry_panel(), CheckError);
}

TEST(PopulationLookupTest, UnknownIdsThrowCheckErrorNamingTheId) {
  const Topology topo = test::tiny_topology();
  test::TraceFixture f(topo);
  f.add_vm(CloudType::kPublic, f.public_sub,
           test::first_node(topo, CloudType::kPublic), 2, 0, kNoEnd);
  TempSpillDir dir("lookup");
  f.trace.set_population_sharding(spill_options(dir.path(), 2));
  ASSERT_TRUE(f.trace.population_sharded());
  EXPECT_EQ(f.trace.vm(VmId(0)).cores, 2);
  test::expect_unknown_id([&] { f.trace.vm(VmId(1)); }, VmId(1));
  test::expect_unknown_id([&] { f.trace.vm(VmId()); }, VmId());
  test::expect_unknown_id([&] { f.trace.subscription(SubscriptionId(2)); },
                          SubscriptionId(2));
  test::expect_unknown_id([&] { f.trace.subscription(SubscriptionId()); },
                          SubscriptionId());
}

TEST(PopulationFailure, UnwritableSpillDirThrows) {
  TempSpillDir dir("unwritable");
  std::filesystem::create_directories(dir.path());
  // A regular file where a directory component must go: create_directories
  // cannot succeed, even for root (unlike permission-bit schemes).
  const std::string blocker = dir.path() + "/blocker";
  std::ofstream(blocker).put('x');
  workloads::ScenarioOptions options;
  options.scale = 0.02;
  options.seed = 23;
  auto scenario = workloads::make_scenario(options);
  PopulationShardingOptions opts = spill_options(blocker + "/shards", 2);
  EXPECT_THROW(PopulationShardStore::build(*scenario.trace, opts), CheckError);
}

#if defined(__linux__)
TEST(PopulationFailure, ShortWriteOnSpillThrows) {
  // Simulate ENOSPC: route shard 0's record spill log to /dev/full, where
  // every flush fails. The store must surface a CheckError (at the append
  // that notices the failed flush, or at seal time) instead of sealing a
  // truncated shard.
  TempSpillDir dir("enospc");
  std::filesystem::create_directories(dir.path());
  std::filesystem::create_symlink("/dev/full",
                                  dir.path() + "/pop-shard-0.clsn.records.log");
  TimeGrid grid = week_telemetry_grid();
  PopulationShardStore store(grid, spill_options(dir.path(), 1));
  EXPECT_THROW(
      {
        // ~6000 64-byte records overflow the staging buffer mid-append;
        // smaller runs fail at the seal-time force flush.
        for (int i = 0; i < 6000; ++i) {
          VmRecord vm;
          vm.subscription = SubscriptionId(0);
          store.append_vm(vm);
        }
        std::vector<SubscriptionInfo> subs(1);
        subs[0].id = SubscriptionId(0);
        store.finalize_spill(subs);
      },
      CheckError);
}

TEST(PopulationFailure, ShortWriteOnSealThrows) {
  // Simulate ENOSPC at the seal: shard 0's temp file is /dev/full, so the
  // container's final flush fails. The seal must throw CheckError and
  // publish no shard file, not rename a torn container into place.
  TempSpillDir dir("seal-enospc");
  std::filesystem::create_directories(dir.path());
  const std::string shard0 = dir.path() + "/pop-shard-0.clsn";
  std::filesystem::create_symlink("/dev/full", shard0 + ".tmp");
  PopulationShardStore store(week_telemetry_grid(),
                             spill_options(dir.path(), 1));
  VmRecord vm;
  vm.subscription = SubscriptionId(0);
  store.append_vm(vm);
  std::vector<SubscriptionInfo> subs(1);
  subs[0].id = SubscriptionId(0);
  EXPECT_THROW(store.finalize_spill(subs), CheckError);
  EXPECT_FALSE(
      std::filesystem::exists(std::filesystem::symlink_status(shard0)));
}
#endif

TEST(PopulationFailure, TruncatedShardFileThrows) {
  workloads::ScenarioOptions options;
  options.scale = 0.02;
  options.seed = 23;
  auto scenario = workloads::make_scenario(options);
  TempSpillDir dir("truncated");
  auto store =
      PopulationShardStore::build(*scenario.trace, spill_options(dir.path(), 2));
  store->evict_all();
  // Chop a sealed shard file in half behind the store's back: the next
  // page-in must fail loudly, not decode garbage.
  const std::string shard0 = dir.path() + "/pop-shard-0.clsn";
  const auto size = std::filesystem::file_size(shard0);
  ASSERT_GT(size, 0u);
  std::filesystem::resize_file(shard0, size / 2);
  EXPECT_THROW(store->view(0), CheckError);
}

TEST(PopulationAnalyses, ByteIdenticalToResidentAtAnyThreadCount) {
  workloads::ScenarioOptions options;
  options.scale = 0.03;
  options.seed = 29;
  auto scenario = workloads::make_scenario(options);
  TraceStore& trace = *scenario.trace;

  const std::string resident =
      rendered_outputs(trace, ParallelConfig::with_threads(2));

  TempSpillDir dir("analyses");
  auto opts = spill_options(dir.path(), 6);
  opts.budget_bytes = 0;  // evict to a single shard at every serial point
  trace.set_population_sharding(opts);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    const std::string sharded =
        rendered_outputs(trace, ParallelConfig::with_threads(threads));
    EXPECT_EQ(sharded, resident);
  }
}

TEST(ShardGeneratedTest, StreamedAnalysesBitIdenticalToResident) {
  // Private scenario: set_population_sharding converts the trace for good.
  workloads::ScenarioOptions options;
  options.scale = 0.03;
  options.seed = 17;
  auto scenario = workloads::make_scenario(options);
  TraceStore& trace = *scenario.trace;
  ASSERT_NE(trace.build_telemetry_panel(), nullptr);

  // Resident reference results (panel-backed, 2 worker threads).
  const ParallelConfig two = ParallelConfig::with_threads(2);
  const auto shares_ref = analysis::classify_population(
      AnalysisContext(trace, two), CloudType::kPrivate, 150, {});
  const auto dist_ref = analysis::utilization_distribution(
      AnalysisContext(trace, two), CloudType::kPublic, 150);
  const auto corr_ref = analysis::node_vm_correlations(
      AnalysisContext(trace, two), CloudType::kPrivate, 40);
  const auto xr_ref = analysis::cross_region_correlations(
      AnalysisContext(trace, two), CloudType::kPrivate, 60, 10);

  TempSpillDir dir("per-pass");
  auto opts = spill_options(dir.path(), 6);
  opts.budget_bytes = 0;  // evict to a single shard at every serial point
  trace.set_population_sharding(opts);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    const ParallelConfig par = ParallelConfig::with_threads(threads);
    const auto shares = analysis::classify_population(
        AnalysisContext(trace, par), CloudType::kPrivate, 150, {});
    EXPECT_EQ(shares.classified, shares_ref.classified);
    EXPECT_EQ(bits(shares.diurnal), bits(shares_ref.diurnal));
    EXPECT_EQ(bits(shares.stable), bits(shares_ref.stable));
    EXPECT_EQ(bits(shares.irregular), bits(shares_ref.irregular));
    EXPECT_EQ(bits(shares.hourly_peak), bits(shares_ref.hourly_peak));

    const auto dist = analysis::utilization_distribution(
        AnalysisContext(trace, par), CloudType::kPublic, 150);
    EXPECT_EQ(dist.vms_used, dist_ref.vms_used);
    ASSERT_EQ(dist.weekly.p50.size(), dist_ref.weekly.p50.size());
    for (std::size_t i = 0; i < dist.weekly.p50.size(); ++i) {
      EXPECT_EQ(bits(dist.weekly.p25[i]), bits(dist_ref.weekly.p25[i]));
      EXPECT_EQ(bits(dist.weekly.p50[i]), bits(dist_ref.weekly.p50[i]));
      EXPECT_EQ(bits(dist.weekly.p75[i]), bits(dist_ref.weekly.p75[i]));
      EXPECT_EQ(bits(dist.weekly.p95[i]), bits(dist_ref.weekly.p95[i]));
    }
    for (std::size_t h = 0; h < 24; ++h) {
      EXPECT_EQ(bits(dist.daily_p50[h]), bits(dist_ref.daily_p50[h]));
      EXPECT_EQ(bits(dist.daily_p95[h]), bits(dist_ref.daily_p95[h]));
    }

    const auto corr = analysis::node_vm_correlations(
        AnalysisContext(trace, par), CloudType::kPrivate, 40);
    ASSERT_EQ(corr.size(), corr_ref.size());
    for (std::size_t i = 0; i < corr.size(); ++i)
      EXPECT_EQ(bits(corr[i]), bits(corr_ref[i]));

    const auto xr = analysis::cross_region_correlations(
        AnalysisContext(trace, par), CloudType::kPrivate, 60, 10);
    ASSERT_EQ(xr.size(), xr_ref.size());
    for (std::size_t i = 0; i < xr.size(); ++i)
      EXPECT_EQ(bits(xr[i]), bits(xr_ref[i]));
  }
}

}  // namespace
}  // namespace cloudlens
