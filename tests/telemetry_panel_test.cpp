// Telemetry panel suite: lifecycle (build on request, add_vm/set_vm_deleted
// invalidation, the unbuilt fallback), row semantics (model-less VMs,
// partial lifetimes, every tick written), the batched sample() == at()
// bit-identity contract, the trace's row source (telemetry_row and its
// hourly roll-up, hourly_row), concurrent readers of a built panel
// (exercised under TSan in CI), and the fused-vs-naive Pearson kernel.
#include "cloudsim/telemetry_panel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloudsim/trace_io.h"
#include "stats/correlation.h"
#include "testutil.h"
#include "workloads/patterns.h"

namespace cloudlens {
namespace {

using test::TraceFixture;

std::shared_ptr<const UtilizationModel> diurnal(std::uint64_t seed) {
  return std::make_shared<workloads::DiurnalUtilization>(
      workloads::DiurnalUtilization::Params{}, seed);
}

TEST(TelemetryPanelTest, BuildOnRequestAndStablePointer) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  f.add_vm(CloudType::kPrivate, f.private_sub, node, 4, 0, kNoEnd,
           diurnal(7));

  // Reading never builds: a trace nobody asked for a panel holds none.
  EXPECT_EQ(f.trace.telemetry_panel(), nullptr);
  const TelemetryPanel* panel = f.trace.build_telemetry_panel();
  ASSERT_NE(panel, nullptr);
  EXPECT_EQ(panel->vm_count(), 1u);
  EXPECT_EQ(panel->tick_count(), f.trace.telemetry_grid().count);
  // The built panel is what readers see, and building again keeps it.
  EXPECT_EQ(panel, f.trace.telemetry_panel());
  EXPECT_EQ(panel, f.trace.build_telemetry_panel());
  EXPECT_GT(panel->memory_bytes(), 0u);
}

TEST(TelemetryPanelTest, AddVmInvalidatesPanel) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  f.add_vm(CloudType::kPrivate, f.private_sub, node, 4, 0, kNoEnd,
           diurnal(7));
  const TelemetryPanel* before = f.trace.build_telemetry_panel();
  ASSERT_EQ(before->vm_count(), 1u);

  const VmId added = f.add_vm(CloudType::kPrivate, f.private_sub, node, 2, 0,
                              kNoEnd, diurnal(8));
  EXPECT_EQ(f.trace.telemetry_panel(), nullptr);
  const TelemetryPanel* after = f.trace.build_telemetry_panel();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->vm_count(), 2u);
  // The rebuilt panel covers the new VM with a fully evaluated row.
  const auto row = after->row(added);
  ASSERT_EQ(row.size(), f.trace.telemetry_grid().count);
  EXPECT_EQ(row[0], f.trace.vm(added).utilization->at(
                        f.trace.telemetry_grid().start));
}

// Regression (satellite): set_vm_deleted used to leave the lazy caches
// intact, so analyses after failure injection read stale rows for the
// killed VMs.
TEST(TelemetryPanelTest, SetVmDeletedInvalidatesPanel) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const TimeGrid& grid = f.trace.telemetry_grid();
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  const VmId id = f.add_vm(CloudType::kPrivate, f.private_sub, node, 4, 0,
                           kNoEnd, diurnal(7));

  const TelemetryPanel* before = f.trace.build_telemetry_panel();
  const SimTime cut = grid.start + 2 * kDay;
  const std::size_t cut_index = grid.index_of(cut);
  ASSERT_NE(before->row(id)[cut_index], 0.0)
      << "test needs a non-zero sample at the cut point";

  f.trace.set_vm_deleted(id, cut);
  EXPECT_EQ(f.trace.telemetry_panel(), nullptr);
  const TelemetryPanel* after = f.trace.build_telemetry_panel();
  ASSERT_NE(after, nullptr);
  const auto row = after->row(id);
  // Dead from the cut onwards; alive bits unchanged before it.
  for (std::size_t i = cut_index; i < grid.count; ++i)
    ASSERT_EQ(row[i], 0.0) << "tick " << i;
  EXPECT_EQ(row[0], f.trace.vm(id).utilization->at(grid.start));
  // The trace's rows reflect the shortened life too.
  std::vector<double> scratch;
  EXPECT_EQ(f.trace.telemetry_row(id, scratch)[cut_index], 0.0);
}

TEST(TelemetryPanelTest, UnbuiltPanelIsNullAndFallbackMatches) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const TimeGrid& grid = f.trace.telemetry_grid();
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  const VmId id = f.add_vm(CloudType::kPrivate, f.private_sub, node, 4,
                           grid.start + kDay, grid.start + 4 * kDay,
                           diurnal(21));

  // No panel yet: the trace fills the scratch row.
  EXPECT_EQ(f.trace.telemetry_panel(), nullptr);
  std::vector<double> scratch;
  const auto row = f.trace.telemetry_row(id, scratch);
  ASSERT_EQ(row.data(), scratch.data());

  // The fallback goes through the same fill kernel: identical bits. Once
  // the panel is built, the trace serves its row instead of the scratch.
  const TelemetryPanel* panel = f.trace.build_telemetry_panel();
  ASSERT_NE(panel, nullptr);
  std::vector<double> unused;
  const auto cached = f.trace.telemetry_row(id, unused);
  ASSERT_EQ(cached.data(), panel->row(id).data());
  EXPECT_TRUE(unused.empty());
  ASSERT_EQ(row.size(), cached.size());
  for (std::size_t i = 0; i < row.size(); ++i)
    ASSERT_EQ(row[i], cached[i]) << "tick " << i;
}

TEST(TelemetryPanelTest, EmptyTrace) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const TelemetryPanel* panel = f.trace.build_telemetry_panel();
  ASSERT_NE(panel, nullptr);
  EXPECT_EQ(panel->vm_count(), 0u);
  EXPECT_EQ(panel->memory_bytes(), 0u);
}

TEST(TelemetryPanelTest, ModelLessVmHasZeroRow) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  const VmId id = f.add_vm(CloudType::kPrivate, f.private_sub, node, 4, 0,
                           kNoEnd, nullptr);
  const TelemetryPanel* panel = f.trace.build_telemetry_panel();
  for (const double v : panel->row(id)) ASSERT_EQ(v, 0.0);
}

TEST(TelemetryPanelTest, PartialLifetimeRowZeroOutsideLife) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const TimeGrid& grid = f.trace.telemetry_grid();
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  // Mid-window life, deliberately not aligned to the grid step.
  const SimTime created = grid.start + kDay + 7 * kMinute;
  const SimTime deleted = grid.start + 3 * kDay + 11 * kMinute;
  const VmId id = f.add_vm(CloudType::kPrivate, f.private_sub, node, 4,
                           created, deleted, diurnal(42));

  const TelemetryPanel* panel = f.trace.build_telemetry_panel();
  const auto row = panel->row(id);
  const auto& vm = f.trace.vm(id);
  for (std::size_t i = 0; i < grid.count; ++i) {
    const SimTime t = grid.at(i);
    if (vm.alive_at(t)) {
      ASSERT_EQ(row[i], vm.utilization->at(t)) << "tick " << i;
    } else {
      ASSERT_EQ(row[i], 0.0) << "tick " << i;
    }
  }
}

TEST(TelemetryPanelTest, HourlyRowMatchesHourlyMeanBitwise) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const TimeGrid& grid = f.trace.telemetry_grid();
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  const VmId full = f.add_vm(CloudType::kPrivate, f.private_sub, node, 4, 0,
                             kNoEnd, diurnal(3));
  const VmId partial = f.add_vm(
      CloudType::kPrivate, f.private_sub, node, 2, grid.start + 36 * kHour,
      grid.start + 90 * kHour,
      std::make_shared<workloads::HourlyPeakUtilization>(
          workloads::HourlyPeakUtilization::Params{}, 5));

  // The roll-up of a scratch row (no panel yet) and of a panel row.
  for (const bool built : {false, true}) {
    SCOPED_TRACE(built ? "panel" : "no panel");
    const TelemetryPanel* panel =
        built ? f.trace.build_telemetry_panel() : f.trace.telemetry_panel();
    ASSERT_EQ(panel != nullptr, built);
    std::vector<double> row_scratch, hourly_scratch;
    for (const VmId id : {full, partial}) {
      const auto hourly = f.trace.hourly_row(id, row_scratch, hourly_scratch);
      std::vector<double> row(grid.count);
      TelemetryPanel::fill_row(f.trace.vm(id), grid, row);
      const auto reference =
          stats::TimeSeries(grid, std::move(row)).hourly_mean();
      ASSERT_EQ(hourly.size(), reference.size());
      for (std::size_t h = 0; h < hourly.size(); ++h)
        ASSERT_EQ(hourly[h], reference[h]) << "hour " << h;
    }
  }
}

TEST(TelemetryPanelTest, ConcurrentReadersShareTheBuiltPanel) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  for (int i = 0; i < 16; ++i)
    f.add_vm(CloudType::kPrivate, f.private_sub, node, 2, 0, kNoEnd,
             diurnal(100 + static_cast<std::uint64_t>(i)));
  // Built once by a mutator (multi-threaded fill), before any reader runs.
  const TelemetryPanel* built =
      f.trace.build_telemetry_panel(ParallelConfig::with_threads(4));

  constexpr std::size_t kReaders = 8;
  std::vector<const TelemetryPanel*> seen(kReaders, nullptr);
  std::vector<double> sums(kReaders, 0.0);
  {
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (std::size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        // Every reader fetches the panel and reads its rows concurrently
        // (a data race here => TSan report).
        const TelemetryPanel* panel = f.trace.telemetry_panel();
        seen[r] = panel;
        double sum = 0;
        const VmId vm(static_cast<std::uint32_t>(r));
        for (const double v : panel->row(vm)) sum += v;
        sums[r] = sum;
      });
    }
    for (auto& t : readers) t.join();
  }
  for (std::size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(seen[r], built);
    EXPECT_GT(sums[r], 0.0);
  }
}

// The batched sample() contract: bit-identical to the per-tick at() loop,
// for every concrete model, on the canonical analysis grid and on awkward
// grids (offset start, step that doesn't divide an hour) that force the
// models' batch fast paths to bail out or re-anchor.
class SampleContractTest : public ::testing::Test {
 public:
  static std::vector<std::shared_ptr<const UtilizationModel>> models() {
    using namespace workloads;
    std::vector<std::shared_ptr<const UtilizationModel>> out;
    out.push_back(std::make_shared<ConstantUtilization>(0.37));
    out.push_back(std::make_shared<DiurnalUtilization>(
        DiurnalUtilization::Params{}, 11));
    DiurnalUtilization::Params tz;
    tz.tz_offset_hours = -8;
    out.push_back(std::make_shared<DiurnalUtilization>(tz, 12));
    out.push_back(std::make_shared<StableUtilization>(
        StableUtilization::Params{}, 13));
    out.push_back(std::make_shared<IrregularUtilization>(
        IrregularUtilization::Params{}, 14));
    out.push_back(std::make_shared<HourlyPeakUtilization>(
        HourlyPeakUtilization::Params{}, 15));
    // Offsets whose local hour reaches [24, 48) (wrapped without fmod),
    // and offsets past a day either way (wrapped by fmod).
    std::uint64_t seed = 16;
    for (const double offset : {9.5, 13.75, 30.0, -30.0}) {
      DiurnalUtilization::Params diurnal;
      diurnal.tz_offset_hours = offset;
      out.push_back(std::make_shared<DiurnalUtilization>(diurnal, seed++));
      HourlyPeakUtilization::Params hourly;
      hourly.tz_offset_hours = offset;
      out.push_back(std::make_shared<HourlyPeakUtilization>(hourly, seed++));
    }
    // Episodes shorter than the coarse grids' step: one tick crosses
    // several episode boundaries.
    IrregularUtilization::Params short_episodes;
    short_episodes.episode = 10 * kMinute;
    short_episodes.spike_prob = 0.3;
    out.push_back(
        std::make_shared<IrregularUtilization>(short_episodes, seed++));
    // Sampled model whose source grid differs from the query grids.
    const TimeGrid src{kDay, kTelemetryInterval, 3 * 12 * 24};
    std::vector<double> samples(src.count);
    for (std::size_t i = 0; i < src.count; ++i)
      samples[i] = 0.5 + 0.4 * std::sin(static_cast<double>(i) / 17.0);
    out.push_back(std::make_shared<SampledUtilization>(src, samples));
    // Windows over a shared buffer (the serve snapshot shape): cells start
    // at an offset, and past a valid-tick cut every tick reads 0.0. With
    // the cut before the window's end the clamp past it reads 0.0 too;
    // without one it reads the last cell.
    const TimeGrid window{0, kTelemetryInterval, 4 * 12 * 24};
    auto cells = std::make_shared<std::vector<double>>(window.count + 13);
    for (std::size_t i = 0; i < cells->size(); ++i)
      (*cells)[i] = 0.3 + 0.2 * std::cos(static_cast<double>(i) / 11.0);
    out.push_back(std::make_shared<SampledUtilization>(window, cells, 7, 600));
    out.push_back(
        std::make_shared<SampledUtilization>(window, cells, 13, window.count));
    return out;
  }

 protected:
  static void expect_sample_matches_at(const UtilizationModel& model,
                                       const TimeGrid& grid) {
    std::vector<double> batched(grid.count);
    model.sample(grid, batched);
    for (std::size_t i = 0; i < grid.count; ++i)
      ASSERT_EQ(batched[i], model.at(grid.at(i)))
          << model.kind() << " tick " << i;
  }
};

TEST_F(SampleContractTest, BitIdenticalOnWeekGrid) {
  const TimeGrid grid = week_telemetry_grid();
  for (const auto& model : models()) expect_sample_matches_at(*model, grid);
}

TEST_F(SampleContractTest, BitIdenticalOnAwkwardGrids) {
  // Offset, short, and hour-misaligned grids exercise the batch loops'
  // anchor/window bookkeeping and the generic fallback.
  const TimeGrid grids[] = {
      {3 * kHour + 5 * kMinute, kTelemetryInterval, 500},  // offset start
      {-2 * kDay, kTelemetryInterval, 700},                // negative times
      {kHour, 7 * kMinute, 300},   // step doesn't divide an hour
      {0, 30 * kMinute, 200},      // coarse step
      {11 * kMinute, kMinute, 90},  // fine step
      // Negative start on neither an hour nor a 30-minute episode
      // boundary, running past t = 0.
      {-3 * kDay - 10 * kMinute, kTelemetryInterval, 1000},
      {5 * kHour + 25 * kMinute, kTelemetryInterval, 100},  // < one day
      {2 * kHour + 50 * kMinute, kTelemetryInterval, 4},    // < half hour
  };
  for (const auto& model : models())
    for (const TimeGrid& grid : grids) expect_sample_matches_at(*model, grid);
}

// The panel allocates its matrix uninitialized and relies on fill_row
// writing every tick. Each row starts as NaN, so a tick the kernel skips
// shows up here; no sanitizer in CI reports an uninitialized read.
TEST(TelemetryPanelTest, FillRowWritesEveryTick) {
  const Topology topo = test::tiny_topology();
  TraceFixture f(topo);
  const TimeGrid& grid = f.trace.telemetry_grid();
  const NodeId node = test::first_node(topo, CloudType::kPrivate);
  struct Life {
    const char* name;
    SimTime created;
    SimTime deleted;
  };
  const Life lives[] = {
      {"whole grid", grid.start, kNoEnd},
      {"created off-tick mid-grid", grid.start + kDay + 7 * kMinute, kNoEnd},
      {"deleted on a tick", grid.start, grid.start + 2 * kDay},
      {"dead before the grid", grid.start - 2 * kDay, grid.start - kDay},
      {"created at the grid end", grid.end(), kNoEnd},
      {"created after the grid end", grid.end() + kHour, grid.end() + kDay},
  };
  auto models = SampleContractTest::models();
  models.push_back(nullptr);  // model-less
  std::vector<std::string> labels;
  for (std::size_t m = 0; m < models.size(); ++m)
    for (const Life& life : lives) {
      f.add_vm(CloudType::kPrivate, f.private_sub, node, 1, life.created,
               life.deleted, models[m]);
      labels.push_back("model " + std::to_string(m) + ", " + life.name);
    }
  const TelemetryPanel* panel =
      f.trace.build_telemetry_panel(ParallelConfig::with_threads(4));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> row(grid.count);
  for (const VmRecord& vm : f.trace.vms()) {
    SCOPED_TRACE(labels[vm.id.value()]);
    std::fill(row.begin(), row.end(), nan);
    TelemetryPanel::fill_row(vm, grid, row);
    const auto built = panel->row(vm.id);
    for (std::size_t i = 0; i < grid.count; ++i) {
      ASSERT_FALSE(std::isnan(row[i])) << "tick " << i;
      ASSERT_EQ(row[i], built[i]) << "tick " << i;
    }
  }
  // created == deleted: add_vm rejects the record, so no panel holds it;
  // its alive window is empty, so the row is all zeros.
  VmRecord empty = f.trace.vm(VmId(0));
  empty.created = empty.deleted = grid.start + kDay;
  for (std::size_t m = 0; m < models.size(); ++m) {
    SCOPED_TRACE("model " + std::to_string(m) + ", created == deleted");
    empty.utilization = models[m];
    std::fill(row.begin(), row.end(), nan);
    TelemetryPanel::fill_row(empty, grid, row);
    for (std::size_t i = 0; i < grid.count; ++i)
      ASSERT_EQ(row[i], 0.0) << "tick " << i;
  }
}

// Fused single-pass Pearson vs the two-pass reference, over correlated,
// anti-correlated, noisy, constant, and short inputs.
TEST(PearsonFusedTest, MatchesTwoPassReference) {
  const auto noise = [](std::uint64_t k) {
    return workloads::hash_uniform(99, static_cast<std::int64_t>(k));
  };
  for (const std::size_t n : {2u, 3u, 17u, 168u, 2016u}) {
    std::vector<double> x(n), same(n), inverse(n), noisy(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = std::sin(static_cast<double>(i) / 9.0) + 0.3 * noise(i);
      same[i] = 2.5 * x[i] + 1.0;
      inverse[i] = -x[i];
      noisy[i] = noise(1000 + i);
    }
    for (const auto& y : {same, inverse, noisy}) {
      const double fused = stats::pearson_fused(x, y);
      const double reference = stats::pearson(x, y);
      EXPECT_NEAR(fused, reference, 1e-12) << "n=" << n;
      EXPECT_LE(std::abs(fused), 1.0);
    }
  }
  // Exact invariants the analyses rely on.
  std::vector<double> x{0.1, 0.4, 0.2, 0.9};
  EXPECT_EQ(stats::pearson_fused(x, x), 1.0);
  std::vector<double> flat(4, 0.5);
  EXPECT_EQ(stats::pearson_fused(x, flat), 0.0);
  std::vector<double> one{1.0};
  EXPECT_EQ(stats::pearson_fused(one, one), 0.0);
}

}  // namespace
}  // namespace cloudlens
