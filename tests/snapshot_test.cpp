// CLSN container tests: every section reconstructs exactly (doubles as
// bit patterns), shared models stay shared, custom models round-trip
// through the pattern codec, container bytes are pinned, the writer
// refuses a section that misses its declared size, and both reader
// constructors reject malformed containers rather than misread them.
#include "cloudsim/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string_view>
#include <vector>

#include "cloudsim/population.h"
#include "cloudsim/trace_io.h"
#include "common/check.h"
#include "testutil.h"
#include "workloads/generator.h"
#include "workloads/pattern_snapshot.h"

namespace cloudlens {
namespace {

using test::TraceFixture;
using test::tiny_topology;

std::string save_to_string(const Topology& topo, const TraceStore& trace,
                           const SnapshotModelCodec* codec = nullptr) {
  std::ostringstream out(std::ios::binary);
  save_trace_snapshot(topo, trace, out, codec);
  return out.str();
}

LoadedSnapshot load_from_string(const std::string& bytes,
                                const SnapshotModelCodec* codec = nullptr) {
  std::istringstream in(bytes, std::ios::binary);
  return load_trace_snapshot(in, codec);
}

TEST(SnapshotCodec, PrimitivesRoundTripBitExact) {
  std::string buf;
  snapshot_codec::append_u8(buf, 0xAB);
  snapshot_codec::append_u32(buf, 0xDEADBEEFu);
  snapshot_codec::append_u64(buf, 0x0123456789ABCDEFull);
  snapshot_codec::append_i64(buf, -42);
  snapshot_codec::append_f64(buf, -0.0);
  snapshot_codec::append_f64(buf, std::nan(""));
  snapshot_codec::append_string(buf, "hello");

  snapshot_codec::Reader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(SnapshotCodec, ReaderRejectsTruncation) {
  std::string buf;
  snapshot_codec::append_u32(buf, 7);
  snapshot_codec::Reader r(buf);
  r.u32();
  EXPECT_THROW(r.u8(), CheckError);
}

class SnapshotHandBuiltTest : public ::testing::Test {
 protected:
  SnapshotHandBuiltTest() : topo_(tiny_topology()), fx_(topo_) {
    shared_model_ = std::make_shared<ConstantUtilization>(0.25);
    std::vector<double> samples(fx_.trace.telemetry_grid().count);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      samples[i] = 0.1 + 0.001 * static_cast<double>(i);
    }
    sampled_model_ = std::make_shared<SampledUtilization>(
        fx_.trace.telemetry_grid(), std::move(samples));

    const auto nodes = topo_.nodes();
    fx_.add_vm(CloudType::kPrivate, fx_.private_sub, nodes[0].id, 4, 0,
               2 * kDay, shared_model_);
    fx_.add_vm(CloudType::kPrivate, fx_.private_sub, nodes[1].id, 8, kHour,
               kNoEnd, shared_model_);
    fx_.add_vm(CloudType::kPublic, fx_.public_sub, nodes[16].id, 2, kDay,
               3 * kDay, sampled_model_);
    fx_.add_vm(CloudType::kPublic, fx_.public_sub, nodes[17].id, 1, 0, kHour,
               nullptr);
  }

  Topology topo_;
  TraceFixture fx_;
  std::shared_ptr<ConstantUtilization> shared_model_;
  std::shared_ptr<SampledUtilization> sampled_model_;
};

TEST_F(SnapshotHandBuiltTest, RoundTripsEverySection) {
  const auto loaded = load_from_string(save_to_string(topo_, fx_.trace));

  const Topology& t2 = *loaded.topology;
  ASSERT_EQ(t2.regions().size(), topo_.regions().size());
  for (std::size_t i = 0; i < topo_.regions().size(); ++i) {
    EXPECT_EQ(t2.regions()[i].name, topo_.regions()[i].name);
    EXPECT_EQ(t2.regions()[i].tz_offset_hours,
              topo_.regions()[i].tz_offset_hours);
  }
  ASSERT_EQ(t2.clusters().size(), topo_.clusters().size());
  for (std::size_t i = 0; i < topo_.clusters().size(); ++i) {
    EXPECT_EQ(t2.clusters()[i].cloud, topo_.clusters()[i].cloud);
    EXPECT_EQ(t2.clusters()[i].node_sku.name,
              topo_.clusters()[i].node_sku.name);
  }
  EXPECT_EQ(t2.racks().size(), topo_.racks().size());
  EXPECT_EQ(t2.nodes().size(), topo_.nodes().size());

  const TraceStore& trace2 = *loaded.trace;
  EXPECT_EQ(trace2.telemetry_grid().start, fx_.trace.telemetry_grid().start);
  EXPECT_EQ(trace2.telemetry_grid().step, fx_.trace.telemetry_grid().step);
  EXPECT_EQ(trace2.telemetry_grid().count, fx_.trace.telemetry_grid().count);

  ASSERT_EQ(trace2.subscriptions().size(), fx_.trace.subscriptions().size());
  for (std::size_t i = 0; i < trace2.subscriptions().size(); ++i) {
    EXPECT_EQ(trace2.subscriptions()[i].cloud,
              fx_.trace.subscriptions()[i].cloud);
    EXPECT_EQ(trace2.subscriptions()[i].party,
              fx_.trace.subscriptions()[i].party);
  }

  ASSERT_EQ(trace2.vms().size(), fx_.trace.vms().size());
  for (std::size_t i = 0; i < trace2.vms().size(); ++i) {
    const VmRecord& a = fx_.trace.vms()[i];
    const VmRecord& b = trace2.vms()[i];
    EXPECT_EQ(b.subscription, a.subscription);
    EXPECT_EQ(b.cloud, a.cloud);
    EXPECT_EQ(b.party, a.party);
    EXPECT_EQ(b.region, a.region);
    EXPECT_EQ(b.cluster, a.cluster);
    EXPECT_EQ(b.rack, a.rack);
    EXPECT_EQ(b.node, a.node);
    EXPECT_EQ(b.cores, a.cores);
    EXPECT_EQ(b.memory_gb, a.memory_gb);
    EXPECT_EQ(b.created, a.created);
    EXPECT_EQ(b.deleted, a.deleted);
    EXPECT_EQ(b.utilization == nullptr, a.utilization == nullptr);
  }
}

TEST_F(SnapshotHandBuiltTest, SharedModelsStaySharedAndExact) {
  const auto loaded = load_from_string(save_to_string(topo_, fx_.trace));
  const auto& vms = loaded.trace->vms();
  // VMs 0 and 1 shared one ConstantUtilization; the round trip must keep
  // one instance, not clone per VM.
  ASSERT_NE(vms[0].utilization, nullptr);
  EXPECT_EQ(vms[0].utilization.get(), vms[1].utilization.get());
  EXPECT_EQ(vms[0].utilization->at(kHour), 0.25);
  // The sampled model reproduces every stored tick bit-for-bit.
  const TimeGrid& grid = fx_.trace.telemetry_grid();
  for (std::size_t i = 0; i < grid.count; i += 97) {
    EXPECT_EQ(vms[2].utilization->at(grid.at(i)),
              sampled_model_->at(grid.at(i)));
  }
}

TEST_F(SnapshotHandBuiltTest, SaveIsDeterministic) {
  EXPECT_EQ(save_to_string(topo_, fx_.trace), save_to_string(topo_, fx_.trace));
}

/// FNV-1a over `bytes`: pins container bytes without checking them in.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The container bytes are part of the format (kSnapshotFormatVersion 1):
// a trace snapshot, a panel snapshot and the sealed shard files of this
// fixed trace must keep these exact digests. A deliberate layout change
// bumps the version and re-pins them.
TEST_F(SnapshotHandBuiltTest, ContainerBytesArePinned) {
  EXPECT_EQ(fnv1a(save_to_string(topo_, fx_.trace)), 0xe8a93675f5eccfd4ULL);

  const std::string dir = (std::filesystem::temp_directory_path() /
                           "cloudlens-snapshot-pin-shards")
                              .string();
  std::filesystem::remove_all(dir);
  {
    PopulationShardingOptions options;
    options.shards = 2;
    options.spill_dir = dir;
    const auto store = PopulationShardStore::build(fx_.trace, options);
    EXPECT_EQ(fnv1a(read_file(dir + "/pop-shard-0.clsn")),
              0x6e0811da83eef870ULL);
    EXPECT_EQ(fnv1a(read_file(dir + "/pop-shard-1.clsn")),
              0x5cf2fe1ebeebd0c9ULL);
  }
  std::filesystem::remove_all(dir);

  std::ostringstream panel(std::ios::binary);
  save_panel_snapshot(*fx_.trace.build_telemetry_panel(), panel);
  EXPECT_EQ(fnv1a(panel.str()), 0x92351a1f45f4ed1eULL);
}

TEST(SnapshotContainer, RejectsBadMagicVersionAndTruncation) {
  Topology topo = tiny_topology();
  TraceFixture fx(topo);
  std::string bytes = save_to_string(topo, fx.trace);

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(load_from_string(bad_magic), CheckError);

  std::string bad_version = bytes;
  bad_version[4] = static_cast<char>(0xEE);
  EXPECT_THROW(load_from_string(bad_version), CheckError);

  const std::string truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW(load_from_string(truncated), CheckError);

  EXPECT_THROW(load_from_string(std::string()), CheckError);
}

class SnapshotGeneratedTest : public ::testing::Test {
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

workloads::Scenario* SnapshotGeneratedTest::scenario_ = nullptr;

TEST_F(SnapshotGeneratedTest, PatternModelsRoundTripBitExactEverywhere) {
  const std::string bytes = save_to_string(
      *scenario_->topology, *scenario_->trace,
      &workloads::pattern_snapshot_codec());
  const auto loaded =
      load_from_string(bytes, &workloads::pattern_snapshot_codec());

  const auto& before = scenario_->trace->vms();
  const auto& after = loaded.trace->vms();
  ASSERT_EQ(after.size(), before.size());
  // Parametric models must agree at *arbitrary* times (including
  // off-grid ones), not just stored ticks — that is what makes
  // snapshot-loaded analyses byte-identical to fresh generation.
  const SimTime probes[] = {0,           kMinute + 7, kHour + 13,
                            kDay - 1,    3 * kDay,    kWeek - kMinute};
  for (std::size_t i = 0; i < before.size(); i += 11) {
    if (before[i].utilization == nullptr) {
      EXPECT_EQ(after[i].utilization, nullptr);
      continue;
    }
    ASSERT_NE(after[i].utilization, nullptr);
    EXPECT_EQ(after[i].utilization->kind(), before[i].utilization->kind());
    for (const SimTime t : probes) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(after[i].utilization->at(t)),
                std::bit_cast<std::uint64_t>(before[i].utilization->at(t)))
          << "vm " << i << " at t=" << t;
    }
  }
}

TEST_F(SnapshotGeneratedTest, WithoutCodecDegradesToGridExactSamples) {
  // No codec on either side: pattern models fall back to sampled series
  // over the telemetry grid — exact at every grid tick by construction.
  const std::string bytes =
      save_to_string(*scenario_->topology, *scenario_->trace);
  const auto loaded = load_from_string(bytes);
  const TimeGrid& grid = scenario_->trace->telemetry_grid();
  const auto& before = scenario_->trace->vms();
  const auto& after = loaded.trace->vms();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); i += 101) {
    if (before[i].utilization == nullptr) continue;
    for (std::size_t g = 0; g < grid.count; g += 499) {
      EXPECT_EQ(after[i].utilization->at(grid.at(g)),
                before[i].utilization->at(grid.at(g)));
    }
  }
}

/// Every sampled row and every hourly row of `b` is bit-identical to `a`.
void expect_panels_bit_identical(const TelemetryPanel& a,
                                 const TelemetryPanel& b) {
  ASSERT_EQ(b.vm_count(), a.vm_count());
  ASSERT_EQ(b.grid().count, a.grid().count);
  for (std::size_t v = 0; v < a.vm_count(); v += 37) {
    const VmId id(static_cast<VmId::underlying>(v));
    const auto ra = a.row(id);
    const auto rb = b.row(id);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); i += 53) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ra[i]),
                std::bit_cast<std::uint64_t>(rb[i]));
    }
    const auto ha = a.hourly_row(id);
    const auto hb = b.hourly_row(id);
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ha[i]),
                std::bit_cast<std::uint64_t>(hb[i]));
    }
  }
}

std::unique_ptr<TelemetryPanel> panel_round_trip(const TelemetryPanel& panel) {
  std::ostringstream out(std::ios::binary);
  save_panel_snapshot(panel, out);
  std::istringstream in(out.str(), std::ios::binary);
  return load_panel_snapshot(in);
}

TEST_F(SnapshotGeneratedTest, PanelSectionRoundTripsBitIdentical) {
  // The warm pipeline path: the trace snapshot carries no PANEL section,
  // so the loaded trace gets its panel by adopting the panel snapshot's.
  const TelemetryPanel* panel = scenario_->trace->build_telemetry_panel();
  ASSERT_NE(panel, nullptr);
  const auto loaded = load_from_string(
      save_to_string(*scenario_->topology, *scenario_->trace,
                     &workloads::pattern_snapshot_codec()),
      &workloads::pattern_snapshot_codec());
  EXPECT_EQ(loaded.trace->telemetry_panel(), nullptr);

  ASSERT_TRUE(loaded.trace->adopt_telemetry_panel(panel_round_trip(*panel)));
  const TelemetryPanel* adopted = loaded.trace->telemetry_panel();
  ASSERT_NE(adopted, nullptr);
  expect_panels_bit_identical(*panel, *adopted);
}

TEST_F(SnapshotGeneratedTest, PanelOnlySnapshotRoundTrips) {
  const TelemetryPanel* panel = scenario_->trace->build_telemetry_panel();
  ASSERT_NE(panel, nullptr);
  expect_panels_bit_identical(*panel, *panel_round_trip(*panel));
}

TEST_F(SnapshotGeneratedTest, AdoptRejectsMismatchedPanel) {
  // A panel from a different trace (wrong vm count) must be refused.
  workloads::ScenarioOptions options;
  options.scale = 0.02;
  options.seed = 5;
  auto other = workloads::make_scenario(options);
  const TelemetryPanel* panel = other.trace->build_telemetry_panel();
  ASSERT_NE(panel, nullptr);
  EXPECT_FALSE(
      scenario_->trace->adopt_telemetry_panel(panel_round_trip(*panel)));
}

// ---- SnapshotMapping: mmap'd read path + error handling -----------------

/// Writes `bytes` to a unique file under the system temp dir; removes it
/// on destruction.
class TempSnapshotFile {
 public:
  explicit TempSnapshotFile(const std::string& bytes,
                           const std::string& tag = "snap") {
    path_ = (std::filesystem::temp_directory_path() /
             ("cloudlens-maptest-" + tag + "-" +
              std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                .string();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ~TempSnapshotFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Both reader constructors must refuse `bytes`: from a file (mmap'd)
/// and from a stream (the buffered read).
void expect_both_constructors_reject(const std::string& bytes,
                                     const std::string& tag) {
  TempSnapshotFile file(bytes, tag);
  EXPECT_THROW(SnapshotMapping{file.path()}, CheckError);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(SnapshotMapping{in}, CheckError);
}

TEST(SnapshotMappingTest, MappedReadIsByteIdenticalToBufferedRead) {
  Topology topo = tiny_topology();
  TraceFixture fx(topo);
  const std::string bytes = save_to_string(topo, fx.trace);
  TempSnapshotFile file(bytes, "roundtrip");

  SnapshotMapping mapped(file.path());
  EXPECT_TRUE(mapped.mapped());
  ASSERT_EQ(mapped.bytes().size(), bytes.size());
  EXPECT_EQ(std::string(mapped.bytes()), bytes);

  std::ifstream in(file.path(), std::ios::binary);
  SnapshotMapping buffered(in);
  EXPECT_FALSE(buffered.mapped());
  ASSERT_EQ(buffered.bytes().size(), bytes.size());
  EXPECT_EQ(std::string(buffered.bytes()), std::string(mapped.bytes()));
  for (const std::uint32_t id : {1u, 2u, 3u, 4u, 5u, 6u}) {
    EXPECT_EQ(buffered.section(id), mapped.section(id)) << "section " << id;
  }
  EXPECT_THROW(mapped.section(7), CheckError);
  EXPECT_THROW(buffered.section(7), CheckError);
}

TEST(SnapshotMappingTest, RejectsTruncatedFile) {
  Topology topo = tiny_topology();
  TraceFixture fx(topo);
  const std::string bytes = save_to_string(topo, fx.trace);
  expect_both_constructors_reject(bytes.substr(0, bytes.size() / 2), "trunc");
}

TEST(SnapshotMappingTest, RejectsBadMagic) {
  Topology topo = tiny_topology();
  TraceFixture fx(topo);
  std::string bytes = save_to_string(topo, fx.trace);
  bytes[0] = 'X';
  expect_both_constructors_reject(bytes, "magic");
}

TEST(SnapshotMappingTest, RejectsSectionTablePastEof) {
  Topology topo = tiny_topology();
  TraceFixture fx(topo);
  std::string bytes = save_to_string(topo, fx.trace);
  // First table entry: [u32 id][u32 pad][u64 offset][u64 size] at byte 16.
  // Blow up its size so offset+size runs past EOF; the open-time parse
  // must reject it instead of handing out a wild span.
  ASSERT_GT(bytes.size(), 40u);
  for (std::size_t i = 32; i < 40; ++i) bytes[i] = static_cast<char>(0xFF);
  expect_both_constructors_reject(bytes, "pasteof");
}

TEST(SnapshotMappingTest, RejectsEmptyAndMissingFile) {
  expect_both_constructors_reject(std::string(), "empty");
  EXPECT_THROW(SnapshotMapping{"/nonexistent/cloudlens-snapshot.clsn"},
               CheckError);
}

// ---- write_container ----------------------------------------------------

TEST(SnapshotWriterTest, RejectsSectionThatMissesItsDeclaredSize) {
  const std::string payload = "twelve bytes";
  for (const std::uint64_t declared :
       {payload.size() - 1, payload.size() + 1}) {
    std::ostringstream out(std::ios::binary);
    EXPECT_THROW(write_container(out, {{1, declared,
                                        [&](SectionSink& sink) {
                                          sink.write(payload);
                                        }}}),
                 CheckError)
        << "declared " << declared;
  }
  // The declared size matching the bytes written is a valid container.
  std::ostringstream out(std::ios::binary);
  write_container(out, {staged_section(1, payload)});
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_EQ(SnapshotMapping(in).section(1), payload);
}

}  // namespace
}  // namespace cloudlens
