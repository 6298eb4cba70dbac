// Unit pins for the serve subsystem: the event-stream format, the
// engine's ingest validation, epoch/cutoff accounting, and query-surface
// edges. The byte-for-byte streamed-vs-batch contract lives in
// serve_equivalence_test.cpp; these tests cover the pieces in isolation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "cloudsim/trace_io.h"
#include "serve/engine.h"
#include "serve/stream.h"
#include "testutil.h"

namespace cloudlens::serve {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

class ServeStreamTest : public ::testing::Test {
 protected:
  ServeStreamTest() : topo_(test::tiny_topology()), fx_(topo_) {}
  Topology topo_;
  test::TraceFixture fx_;
};

TEST_F(ServeStreamTest, StreamLayoutHeaderGridTopoEventsEnd) {
  const TimeGrid& grid = fx_.trace.telemetry_grid();
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub,
             test::first_node(topo_, CloudType::kPrivate), 4, 0, kNoEnd,
             std::make_shared<ConstantUtilization>(0.25));
  fx_.add_vm(CloudType::kPublic, fx_.public_sub,
             test::first_node(topo_, CloudType::kPublic), 2, kHour,
             5 * kHour);  // no model: never sampled

  std::ostringstream out;
  write_event_stream(topo_, fx_.trace, out);
  const auto lines = split_lines(out.str());

  EXPECT_EQ(lines.front(), "cloudlens-stream,v1");
  EXPECT_EQ(lines[1], "grid,0,300,2016");
  std::size_t topo_rows = 0, vm_rows = 0, del_rows = 0, sample_rows = 0;
  for (const auto& line : lines) {
    if (line.rfind("topo,", 0) == 0) ++topo_rows;
    if (line.rfind("vm,", 0) == 0) ++vm_rows;
    if (line.rfind("del,", 0) == 0) ++del_rows;
    if (line.rfind("sample,", 0) == 0) ++sample_rows;
  }
  EXPECT_EQ(topo_rows, topo_.nodes().size());
  EXPECT_EQ(vm_rows, 2u);
  EXPECT_EQ(del_rows, 1u);
  // Only the modeled VM gets samples; a constant 0.25 is never elided, so
  // it reads at every alive tick of the grid.
  EXPECT_EQ(sample_rows, grid.count);
  EXPECT_EQ(lines.back(), "end");

  // Timestamps are non-decreasing across every event line.
  SimTime last = std::numeric_limits<SimTime>::min();
  for (const auto& line : lines) {
    const auto ts = event_timestamp(line);
    if (!ts) continue;
    EXPECT_GE(*ts, last) << line;
    last = *ts;
  }
}

TEST_F(ServeStreamTest, ZeroSamplesElidedExceptFirstAliveTick) {
  const TimeGrid& grid = fx_.trace.telemetry_grid();
  std::vector<double> cells(grid.count, 0.0);
  cells[5] = 0.75;  // one nonzero reading
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub,
             test::first_node(topo_, CloudType::kPrivate), 4, 0, kNoEnd,
             std::make_shared<SampledUtilization>(grid, cells));

  std::ostringstream out;
  write_event_stream(topo_, fx_.trace, out);
  std::vector<std::string> samples;
  for (const auto& line : split_lines(out.str())) {
    if (line.rfind("sample,", 0) == 0) samples.push_back(line);
  }
  // First alive tick (a zero, kept so the reader knows the VM has
  // telemetry) plus the single nonzero tick.
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0], "sample,0,0,0");
  EXPECT_EQ(samples[1], "sample,0," + std::to_string(grid.at(5)) + ",0.75");
}

TEST(ServeStreamTimestampTest, EventTimestampPerLineKind) {
  EXPECT_EQ(event_timestamp("vm,3,0,,private,first-party,0,0,0,0,4,16,1200"),
            std::optional<SimTime>(1200));
  EXPECT_EQ(event_timestamp("sample,3,600,0.5"), std::optional<SimTime>(600));
  EXPECT_EQ(event_timestamp("del,3,900"), std::optional<SimTime>(900));
  EXPECT_EQ(event_timestamp("cloudlens-stream,v1"), std::nullopt);
  EXPECT_EQ(event_timestamp("grid,0,300,2016"), std::nullopt);
  EXPECT_EQ(event_timestamp("topo,0,0,0,0,0,east,-5,private,16,64"),
            std::nullopt);
  EXPECT_EQ(event_timestamp("end"), std::nullopt);
}

class ServeEngineTest : public ::testing::Test {
 protected:
  ServeEngineTest() : topo_(test::tiny_topology()), fx_(topo_) {}

  /// Stream the fixture trace and return its lines.
  std::vector<std::string> stream_lines() {
    std::ostringstream out;
    write_event_stream(topo_, fx_.trace, out);
    return split_lines(out.str());
  }

  Topology topo_;
  test::TraceFixture fx_;
};

TEST_F(ServeEngineTest, IngestTracksEpochWatermarkAndResidency) {
  const TimeGrid& grid = fx_.trace.telemetry_grid();
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub,
             test::first_node(topo_, CloudType::kPrivate), 4, 0, 10 * kHour,
             std::make_shared<ConstantUtilization>(0.5));

  ServeEngine engine;
  for (const auto& line : stream_lines()) engine.ingest_line(line);
  EXPECT_GT(engine.events_ingested(), 0u);
  EXPECT_EQ(engine.resident_vms(), 1u);
  // The deletion at 10h is the stream's last event; ten hours of ticks
  // are complete.
  EXPECT_EQ(engine.watermark(), 10 * kHour);
  EXPECT_EQ(engine.epoch(), static_cast<std::size_t>(10 * kHour / grid.step));
  EXPECT_EQ(engine.cutoff(), 10 * kHour);
  EXPECT_EQ(engine.window_rolls(), 0u);

  // The snapshot carries the VM with its streamed metadata and samples —
  // but the deletion sits at exactly the cutoff, inside the tick that is
  // not yet complete, so the epoch-aligned snapshot excludes it (exactly
  // as a batch import of the event prefix would).
  const auto snap = engine.snapshot_trace();
  ASSERT_EQ(snap->vms().size(), 1u);
  EXPECT_EQ(snap->vms()[0].created, 0);
  EXPECT_EQ(snap->vms()[0].deleted, kNoEnd);
  EXPECT_DOUBLE_EQ(snap->vms()[0].cores, 4);
  ASSERT_NE(snap->vms()[0].utilization, nullptr);
  EXPECT_DOUBLE_EQ(snap->vms()[0].utilization->at(kHour), 0.5);

  // A later event completes that tick and the deletion becomes visible —
  // while the new creation, itself mid-tick, stays out of the snapshot.
  engine.ingest_line("vm,1,1,,public,third-party,0,1,2,16,2,8,39600");
  EXPECT_EQ(engine.epoch(), static_cast<std::size_t>(39600 / grid.step));
  EXPECT_EQ(engine.resident_vms(), 2u);
  const auto later = engine.snapshot_trace();
  ASSERT_EQ(later->vms().size(), 1u);
  EXPECT_EQ(later->vms()[0].deleted, 10 * kHour);
}

TEST_F(ServeEngineTest, MalformedAndOutOfOrderInputThrows) {
  ServeEngine engine;
  const auto lines = stream_lines();
  for (const auto& line : lines) engine.ingest_line(line);

  EXPECT_THROW(engine.ingest_line("flux,1,2"), CheckError);
  EXPECT_THROW(engine.ingest_line("sample,99,600,0.5"), CheckError);
  EXPECT_THROW(engine.ingest_line("del,99,600"), CheckError);
  EXPECT_THROW(engine.ingest_line("vm,7,0"), CheckError);

  // Events must be fed before a second grid line, and timestamps must
  // never regress.
  ServeEngine strict;
  strict.ingest_line("cloudlens-stream,v1");
  strict.ingest_line("grid,0,300,2016");
  for (const auto& line : lines) {
    if (line.rfind("topo,", 0) == 0) strict.ingest_line(line);
  }
  strict.ingest_line("vm,0,0,,private,first-party,0,0,0,0,4,16,600");
  EXPECT_THROW(
      strict.ingest_line("vm,1,0,,private,first-party,0,0,0,0,4,16,300"),
      CheckError);
  // Duplicate creation of a live VM id is rejected.
  EXPECT_THROW(
      strict.ingest_line("vm,0,0,,private,first-party,0,0,0,0,4,16,600"),
      CheckError);
  // Samples must land on the declared grid.
  EXPECT_THROW(strict.ingest_line("sample,0,601,0.5"), CheckError);
}

/// The CheckError message `fn` throws ("" when it throws none).
std::string check_error(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST_F(ServeEngineTest, MalformedFieldsFailWithLocatedCheckError) {
  // Stream fields parse with the CSV importer's strict parser: trailing
  // garbage, negative or out-of-range ids and non-numeric grid fields
  // fail with a CheckError naming the line and column, and a rejected
  // line moves no engine state.
  ServeEngine engine;
  std::size_t fed = 0;
  const auto feed = [&](const std::string& line) {
    ++fed;
    engine.ingest_line(line);
  };
  feed("cloudlens-stream,v1");
  const std::string bad_grid =
      check_error([&] { feed("grid,x,300,2016"); });
  EXPECT_NE(bad_grid.find("serve stream:2: column 2"), std::string::npos)
      << bad_grid;
  feed("grid,0,300,2016");
  for (const auto& line : stream_lines()) {
    if (line.rfind("topo,", 0) == 0) feed(line);
  }
  feed("vm,0,0,,private,first-party,0,0,0,0,4,16,0");

  const std::string bad_sample =
      check_error([&] { feed("sample,0,600,0.5x"); });
  EXPECT_NE(bad_sample.find("serve stream:" + std::to_string(fed) +
                            ": column 4"),
            std::string::npos)
      << bad_sample;
  EXPECT_EQ(engine.watermark(), 0);

  const std::string negative_id = check_error(
      [&] { feed("vm,-1,0,,private,first-party,0,0,0,0,4,16,600"); });
  EXPECT_NE(negative_id.find("column 2"), std::string::npos) << negative_id;
  EXPECT_THROW(
      feed("vm,4294967296,0,,private,first-party,0,0,0,0,4,16,600"),
      CheckError);
  EXPECT_THROW(feed("vm,1,0,,privat,first-party,0,0,0,0,4,16,600"),
               CheckError);
  EXPECT_EQ(engine.resident_vms(), 1u);
  EXPECT_EQ(engine.watermark(), 0);

  // Well-formed lines still land after the rejected ones.
  feed("sample,0,600,0.5");
  EXPECT_EQ(engine.watermark(), 600);
}

TEST_F(ServeEngineTest, RestoreRejectsMalformedMetaLines) {
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub,
             test::first_node(topo_, CloudType::kPrivate), 4, 0, kNoEnd,
             std::make_shared<ConstantUtilization>(0.5));
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "cloudlens_serve_restore")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServeOptions options;
  options.checkpoint_dir = dir;
  ServeEngine engine(options);
  for (const auto& line : stream_lines()) engine.ingest_line(line);
  const std::string path = engine.checkpoint();
  const std::string meta = path + ".meta";
  std::vector<std::string> lines;
  {
    std::ifstream in(meta);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }

  // Each sidecar line loses its value (the error names its line), or the
  // window starts past the grid (the error names the sidecar).
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"window_start", "window_start"},
      {"epoch", "epoch"},
      {"rolls", "rolls"},
      {"window_start", "window_start,4294967296"}};
  for (const auto& [key, replacement] : cases) {
    SCOPED_TRACE(replacement);
    std::size_t number = 0;
    {
      std::ofstream out(meta, std::ios::trunc);
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const bool target = lines[i].rfind(key + ",", 0) == 0;
        if (target) number = i + 1;
        out << (target ? replacement : lines[i]) << '\n';
      }
    }
    ASSERT_GT(number, 0u);
    const std::string where = replacement == key
                                  ? meta + ":" + std::to_string(number) + ":"
                                  : meta + ": window_start";
    ServeEngine fresh;
    const std::string error =
        check_error([&] { fresh.restore_checkpoint(path); });
    EXPECT_NE(error.find(where), std::string::npos) << error;
  }

  // The untouched sidecar still restores.
  {
    std::ofstream out(meta, std::ios::trunc);
    for (const auto& line : lines) out << line << '\n';
  }
  ServeEngine fresh;
  fresh.restore_checkpoint(path);
  EXPECT_EQ(fresh.resident_vms(), engine.resident_vms());
  std::filesystem::remove_all(dir);
}

TEST_F(ServeEngineTest, StatsCheckpointAndUnknownQueryEdges) {
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub,
             test::first_node(topo_, CloudType::kPrivate), 4, 0, kNoEnd,
             std::make_shared<ConstantUtilization>(0.5));
  ServeEngine engine;
  for (const auto& line : stream_lines()) engine.ingest_line(line);

  const auto stats = engine.query("stats");
  EXPECT_NE(stats.find("events="), std::string::npos);
  EXPECT_NE(stats.find("vms=1"), std::string::npos);
  EXPECT_THROW(engine.query("no-such-kind"), CheckError);
  // Checkpointing is disabled without a directory.
  EXPECT_THROW(engine.query("checkpoint"), CheckError);
  EXPECT_THROW(engine.checkpoint(), CheckError);
}

TEST_F(ServeEngineTest, CheckpointFailsWhenMetaCannotBeWritten) {
  // The sidecar goes to /dev/full: checkpoint() must throw, not hand back
  // a path whose .meta is empty.
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub,
             test::first_node(topo_, CloudType::kPrivate), 4, 0, 10 * kHour,
             std::make_shared<ConstantUtilization>(0.5));
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "cloudlens_serve_meta")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServeOptions options;
  options.checkpoint_dir = dir;
  ServeEngine engine(options);
  for (const auto& line : stream_lines()) engine.ingest_line(line);
  const std::string bin =
      dir + "/serve-epoch-" + std::to_string(engine.epoch()) + ".bin";
  std::filesystem::create_symlink("/dev/full", bin + ".meta");
  EXPECT_THROW(engine.checkpoint(), CheckError);
  std::filesystem::remove_all(dir);
}

// Checkpoint bytes are pinned. The fixture stream's last events sit on the
// final grid tick, so the engine checkpoints with that tick in flight: the
// sample buffers already hold cells the snapshot must store as 0.0, and an
// encoder that read them would change the digest.
TEST_F(ServeEngineTest, MidTickCheckpointBytesArePinned) {
  const TimeGrid& grid = fx_.trace.telemetry_grid();
  std::vector<double> cells(grid.count);
  for (std::size_t i = 0; i < cells.size(); ++i)
    cells[i] = 0.2 + 0.001 * static_cast<double>(i % 97);
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub,
             test::first_node(topo_, CloudType::kPrivate), 4, 0, kNoEnd,
             std::make_shared<SampledUtilization>(grid, cells));
  fx_.add_vm(CloudType::kPublic, fx_.public_sub,
             test::first_node(topo_, CloudType::kPublic), 2, kHour, 2 * kDay,
             std::make_shared<ConstantUtilization>(0.5));
  fx_.add_vm(CloudType::kPublic, fx_.public_sub,
             test::first_node(topo_, CloudType::kPublic), 1, kDay, kNoEnd);
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "cloudlens_serve_pin")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServeOptions options;
  options.checkpoint_dir = dir;
  ServeEngine engine(options);
  for (const auto& line : stream_lines()) engine.ingest_line(line);
  ASSERT_EQ(engine.epoch(), grid.count - 1);

  const std::string path = engine.checkpoint();
  EXPECT_EQ(test::fnv1a(test::read_file(path)), 0x2a055916cb50edb2ULL);
  EXPECT_EQ(test::fnv1a(test::read_file(path + ".meta")),
            0x5c320d835052dd8fULL);
  std::filesystem::remove_all(dir);
}

// The snapshot clamp: a mid-stream snapshot must read 0.0 at the in-flight
// tick E even though the live buffer already holds a sample there, through
// both at() and sample(); the snapshot trace holds no panel.
TEST_F(ServeEngineTest, SnapshotModelReadsZeroAtTheInFlightTick) {
  const TimeGrid& grid = fx_.trace.telemetry_grid();
  ServeEngine engine;
  for (const auto& line : stream_lines()) engine.ingest_line(line);
  engine.ingest_line("vm,0,0,,private,first-party,0,0,0,0,4,16,0");
  constexpr std::size_t kEpoch = 6;
  for (std::size_t i = 0; i <= kEpoch; ++i)
    engine.ingest_line("sample,0," + std::to_string(grid.at(i)) + ",0.5");
  ASSERT_EQ(engine.epoch(), kEpoch);

  const auto snap = engine.snapshot_trace();
  EXPECT_EQ(snap->telemetry_panel(), nullptr);
  ASSERT_EQ(snap->vm_count(), 1u);
  const UtilizationModel& model = *snap->vm(VmId(0)).utilization;
  EXPECT_EQ(model.at(grid.at(kEpoch - 1)), 0.5);
  EXPECT_EQ(model.at(grid.at(kEpoch)), 0.0);
  std::vector<double> cells(grid.count);
  model.sample(grid, cells);
  EXPECT_EQ(cells[kEpoch - 1], 0.5);
  EXPECT_EQ(cells[kEpoch], 0.0);
  // The batched read matches at() tick for tick, on the window's own grid,
  // on sub-grids (the shape every row read uses, including one running past
  // the window's end) and off the tick phase.
  const TimeGrid grids[] = {grid,
                            {grid.at(kEpoch - 2), grid.step, 5},
                            {grid.at(grid.count - 2), grid.step, 4},
                            {grid.start + 7, grid.step, 12}};
  for (const TimeGrid& g : grids) {
    std::vector<double> batched(g.count);
    model.sample(g, batched);
    for (std::size_t i = 0; i < g.count; ++i)
      ASSERT_EQ(batched[i], model.at(g.at(i))) << "tick " << i;
  }
}

// A kb record extracted while one of its subscription's events is still
// past the cutoff must not be reused once that event becomes visible, even
// when no later event touches the subscription.
TEST_F(ServeEngineTest, KbRecordRefreshesWhenAnInFlightEventBecomesVisible) {
  std::vector<std::string> lines = stream_lines();
  lines.pop_back();  // the "end" trailer
  lines.push_back("vm,0,0,,private,first-party,0,0,0,0,4,16,0");
  lines.push_back("vm,1,1,,public,third-party,0,1,2,16,2,8,3600");
  lines.push_back("del,0,3700");  // inside the in-flight tick [3600, 3900)
  ServeEngine engine;
  for (const auto& line : lines) engine.ingest_line(line);
  const std::string in_flight = engine.query("kb");
  // Completing the tick (an event of the other subscription) makes the
  // deletion visible.
  lines.push_back("vm,2,1,,public,third-party,0,1,2,16,2,8,7200");
  engine.ingest_line(lines.back());
  ServeEngine fresh;
  for (const auto& line : lines) fresh.ingest_line(line);
  const std::string want = fresh.query("kb");
  EXPECT_NE(want, in_flight);
  EXPECT_EQ(engine.query("kb"), want);
}

TEST_F(ServeEngineTest, QueriesAtUnchangedEpochReuseTheSnapshot) {
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub,
             test::first_node(topo_, CloudType::kPrivate), 4, 0, kNoEnd,
             std::make_shared<ConstantUtilization>(0.5));
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  ServeOptions options;
  options.metrics = &metrics;
  ServeEngine engine(options);
  for (const auto& line : stream_lines()) engine.ingest_line(line);

  const auto first = engine.query("shares,private");
  const auto builds = metrics.snapshot().counter("serve.snapshots_built");
  const auto second = engine.query("shares,private");
  EXPECT_EQ(first, second);
  // Same epoch: the snapshot (and the rendered result) are reused.
  EXPECT_EQ(metrics.snapshot().counter("serve.snapshots_built"), builds);
  EXPECT_GT(metrics.snapshot().counter("serve.snapshot_reuses"), 0u);
}

}  // namespace
}  // namespace cloudlens::serve
