// Ingest layer tests: the hardened chunked CSV decoder and the three
// trace backends (cloudlens / azure / google).
//
// The azure/google suites pin the checked-in fixtures under
// tests/fixtures/ (regenerated by tools/make_ingest_fixtures.py) down to
// exact fidelity-counter values, so any drift in decode or mapping
// semantics is loud.
#include "ingest/backend.h"
#include "ingest/csv.h"
#include "ingest/ingest.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cloudsim/trace_io.h"
#include "common/check.h"
#include "common/rng.h"
#include "testutil.h"

namespace cloudlens::ingest {
namespace {

namespace fs = std::filesystem;

std::string fixture_dir(const std::string& backend) {
  return std::string(CLOUDLENS_FIXTURE_DIR) + "/" + backend;
}

/// Message of the CheckError thrown by `fn` ("" when nothing throws).
template <typename Fn>
std::string check_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

struct TestRow {
  std::uint64_t a = 0;
  double b = 0;
  std::string c;
  std::uint64_t line = 0;
};

std::vector<TestRow> decode_all(const std::string& text,
                                const CsvDecodeOptions& options) {
  std::istringstream in(text);
  std::vector<TestRow> out;
  decode_csv<TestRow>(
      in, options,
      [](const CsvRow& row) {
        row.expect_fields(3);
        TestRow r;
        r.a = row.u64(0);
        r.b = row.f64(1);
        r.c = std::string(row.field(2));
        r.line = row.line();
        return r;
      },
      [&](TestRow&& r) { out.push_back(std::move(r)); });
  return out;
}

bool rows_equal(const std::vector<TestRow>& x, const std::vector<TestRow>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].a != y[i].a || x[i].b != y[i].b || x[i].c != y[i].c ||
        x[i].line != y[i].line) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- CSV core

TEST(IngestCsv, CrlfAndLfDecodeIdentically) {
  CsvDecodeOptions opt;
  opt.file = "test.csv";
  const auto lf = decode_all("1,2.5,east\n2,3.5,west\n", opt);
  const auto crlf = decode_all("1,2.5,east\r\n2,3.5,west\r\n", opt);
  ASSERT_EQ(lf.size(), 2u);
  EXPECT_TRUE(rows_equal(lf, crlf));
  // The carriage return must not leak into the *last* field.
  EXPECT_EQ(crlf[1].c, "west");
}

TEST(IngestCsv, SplitFieldsKeepsEmptyTrailingField) {
  std::vector<std::string_view> fields;
  split_fields("a,b,", fields);
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[2], "");
  split_fields("", fields);
  ASSERT_EQ(fields.size(), 1u);  // one empty field, not zero fields
}

TEST(IngestCsv, TrailingGarbageRejectedWithFileLineColumn) {
  CsvDecodeOptions opt;
  opt.file = "test.csv";
  // "3x" must not silently parse as 3 (the old std::stoul behaviour).
  const std::string msg =
      check_error_of([&] { decode_all("1,2.5,ok\n3x,4.5,bad\n", opt); });
  EXPECT_NE(msg.find("test.csv:2: column 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("3x"), std::string::npos) << msg;
}

TEST(IngestCsv, MalformedFloatNamesFileLineColumn) {
  CsvDecodeOptions opt;
  opt.file = "vmtable.csv";
  const std::string msg = check_error_of(
      [&] { decode_all("1,2.5,ok\n2,3.5,ok\n3,oops,bad\n", opt); });
  EXPECT_NE(msg.find("vmtable.csv:3: column 2"), std::string::npos) << msg;
}

TEST(IngestCsv, EmptyNumericFieldRejected) {
  CsvDecodeOptions opt;
  opt.file = "test.csv";
  const std::string msg =
      check_error_of([&] { decode_all("1,,empty\n", opt); });
  EXPECT_NE(msg.find("test.csv:1: column 2"), std::string::npos) << msg;
}

TEST(IngestCsv, OutOfRangeIntegerRejected) {
  CsvDecodeOptions opt;
  opt.file = "test.csv";
  const std::string msg = check_error_of(
      [&] { decode_all("99999999999999999999999,1.0,big\n", opt); });
  EXPECT_NE(msg.find("test.csv:1: column 1"), std::string::npos) << msg;
}

TEST(IngestCsv, WrongFieldCountRejected) {
  CsvDecodeOptions opt;
  opt.file = "test.csv";
  const std::string msg =
      check_error_of([&] { decode_all("1,2.5\n", opt); });
  EXPECT_NE(msg.find("test.csv:1"), std::string::npos) << msg;
}

TEST(IngestCsv, BlankLinesSkippedButStillNumbered) {
  CsvDecodeOptions opt;
  opt.file = "test.csv";
  const auto rows = decode_all("1,1.0,a\n\n2,2.0,b\n", opt);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].line, 1u);
  EXPECT_EQ(rows[1].line, 3u);  // physical numbering survives the blank
}

TEST(IngestCsv, NoTrailingNewlineStillDecodesLastRow) {
  CsvDecodeOptions opt;
  opt.file = "test.csv";
  const auto rows = decode_all("1,1.0,a\n2,2.0,b", opt);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].c, "b");
}

TEST(IngestCsv, TinySuperblocksSpanRowsCorrectly) {
  // A superblock boundary lands mid-row; the partial tail must carry into
  // the next block without loss or duplication.
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += std::to_string(i) + ",0.5,row-" + std::to_string(i) + "\n";
  }
  CsvDecodeOptions whole;
  whole.file = "test.csv";
  CsvDecodeOptions tiny = whole;
  tiny.block_bytes = 64;  // many superblocks
  tiny.chunk_lines = 3;   // many chunks per block
  const auto a = decode_all(text, whole);
  const auto b = decode_all(text, tiny);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_TRUE(rows_equal(a, b));
}

TEST(IngestCsv, ParallelDecodeBitIdenticalAcrossSeedsAndThreads) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 1234567ULL}) {
    SplitMix64 rng(seed);
    std::string text;
    const std::size_t lines = 500 + rng.next() % 500;
    for (std::size_t i = 0; i < lines; ++i) {
      text += std::to_string(rng.next() % 1000000) + "," +
              std::to_string(double(rng.next() % 1000) / 999.0) + ",vm-" +
              std::to_string(rng.next() % 4096) + "\n";
    }
    CsvDecodeOptions serial;
    serial.file = "gen.csv";
    serial.parallel = ParallelConfig::serial();
    serial.block_bytes = 1024;
    serial.chunk_lines = 16;
    CsvDecodeOptions threaded = serial;
    threaded.parallel = ParallelConfig::with_threads(8);
    EXPECT_TRUE(rows_equal(decode_all(text, serial),
                           decode_all(text, threaded)))
        << "seed " << seed;
  }
}

TEST(IngestCsv, LowestLineErrorWinsAcrossParallelChunks) {
  // Two malformed rows land in different chunks; the rethrown error must
  // be the earlier one no matter how the chunks were scheduled.
  std::string text;
  for (int i = 0; i < 64; ++i) {
    text += (i == 10 || i == 50) ? "bad,1.0,x\n"
                                 : "1,1.0,x\n";
  }
  CsvDecodeOptions opt;
  opt.file = "test.csv";
  opt.chunk_lines = 4;
  opt.parallel = ParallelConfig::with_threads(8);
  for (int repeat = 0; repeat < 5; ++repeat) {
    const std::string msg = check_error_of([&] { decode_all(text, opt); });
    EXPECT_NE(msg.find("test.csv:11: column 1"), std::string::npos) << msg;
  }
}

// ------------------------------------------------------------- registry

TEST(IngestBackendRegistry, ResolvesKnownNamesAndRejectsUnknown) {
  EXPECT_EQ(find_backend(""), &cloudlens_backend());  // historical default
  EXPECT_EQ(find_backend("cloudlens"), &cloudlens_backend());
  EXPECT_EQ(find_backend("azure"), &azure_backend());
  EXPECT_EQ(find_backend("google"), &google_backend());
  EXPECT_EQ(find_backend("aws"), nullptr);
  EXPECT_EQ(backend_names().size(), 3u);
}

// ------------------------------------------------------------- fixtures

class IngestTempDir : public ::testing::Test {
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
  void write(const std::string& name, const std::string& text) {
    std::ofstream out(dir_ / name, std::ios::binary);
    out << text;
  }
  fs::path dir_;
};

TEST(IngestAzure, FixturePinsExactCounts) {
  const auto result = azure_backend().import_dir(fixture_dir("azure"), {});
  const IngestReport& r = result.report;
  EXPECT_EQ(r.backend, "azure");
  EXPECT_EQ(r.rows, 645u);  // 40 vmtable + 605 readings
  EXPECT_EQ(r.vms, 40u);
  EXPECT_EQ(r.subscriptions, 8u);
  EXPECT_EQ(r.samples, 600u);
  EXPECT_EQ(r.skipped_rows, 5u);
  EXPECT_EQ(r.violations, 2u);
  EXPECT_EQ(r.fidelity_count("missing_cpu_summary"), 1u);
  EXPECT_EQ(r.fidelity_count("deleted_before_created"), 1u);
  EXPECT_EQ(r.fidelity_count("capacity_bucketed"), 2u);
  EXPECT_EQ(r.fidelity_count("capacity_unknown"), 1u);
  EXPECT_EQ(r.fidelity_count("cpu_out_of_range"), 1u);
  EXPECT_EQ(r.fidelity_count("reading_out_of_window"), 3u);
  EXPECT_EQ(r.fidelity_count("reading_unknown_vm"), 2u);
  EXPECT_EQ(r.fidelity_count("reading_gaps_filled"), 29965u);

  ASSERT_EQ(result.trace->vms().size(), 40u);
  EXPECT_EQ(result.topology->nodes().size(), 12u);
  for (const auto& vm : result.trace->vms()) {
    EXPECT_EQ(vm.cloud, CloudType::kPublic);
    EXPECT_EQ(vm.party, PartyType::kThirdParty);
    EXPECT_LT(vm.created, vm.deleted);
  }
  // The ">24" v2 bucket resolves to 24 cores, "Unknown" to the 2-core
  // fallback (both counted above).
  EXPECT_DOUBLE_EQ(result.trace->vms()[10].cores, 24.0);
  EXPECT_DOUBLE_EQ(result.trace->vms()[33].cores, 2.0);
}

TEST(IngestAzure, ParallelImportBitIdenticalToSerial) {
  IngestOptions serial;
  serial.parallel = ParallelConfig::serial();
  serial.block_bytes = 2048;  // force many superblocks from the fixture
  serial.chunk_lines = 16;
  IngestOptions threaded = serial;
  threaded.parallel = ParallelConfig::with_threads(8);
  const auto a = azure_backend().import_dir(fixture_dir("azure"), serial);
  const auto b = azure_backend().import_dir(fixture_dir("azure"), threaded);
  ASSERT_EQ(a.trace->vms().size(), b.trace->vms().size());
  ASSERT_EQ(a.report.fidelity, b.report.fidelity);
  const TimeGrid& grid = a.trace->telemetry_grid();
  for (std::size_t i = 0; i < a.trace->vms().size(); ++i) {
    const auto& va = a.trace->vms()[i];
    const auto& vb = b.trace->vms()[i];
    EXPECT_EQ(va.created, vb.created);
    EXPECT_EQ(va.deleted, vb.deleted);
    EXPECT_EQ(va.node, vb.node);
    ASSERT_EQ(va.utilization != nullptr, vb.utilization != nullptr);
    if (va.utilization == nullptr) continue;
    for (std::size_t s = 0; s < grid.count; s += 97) {
      ASSERT_EQ(va.utilization->at(grid.at(s)), vb.utilization->at(grid.at(s)))
          << "vm " << i << " slot " << s;
    }
  }
}

TEST_F(IngestTempDir, AzureCrlfAndLfFilesImportIdentically) {
  // Re-write the (CRLF) fixture with bare LF endings; decode must agree.
  for (const std::string name : {"vmtable.csv", "vm_cpu_readings.csv"}) {
    std::ifstream in(fixture_dir("azure") + "/" + name, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    std::string lf;
    lf.reserve(text.size());
    for (const char c : text) {
      if (c != '\r') lf.push_back(c);
    }
    write(name, lf);
  }
  const auto a = azure_backend().import_dir(fixture_dir("azure"), {});
  const auto b = azure_backend().import_dir(dir(), {});
  ASSERT_EQ(a.trace->vms().size(), b.trace->vms().size());
  EXPECT_EQ(a.report.fidelity, b.report.fidelity);
  for (std::size_t i = 0; i < a.trace->vms().size(); ++i) {
    EXPECT_EQ(a.trace->vms()[i].created, b.trace->vms()[i].created);
    EXPECT_EQ(a.trace->vms()[i].cores, b.trace->vms()[i].cores);
  }
}

TEST_F(IngestTempDir, AzureMalformedRowNamesFileAndLine) {
  write("vmtable.csv",
        "vm1,sub1,dep1,0,100,50.0,25.0,40.0,Interactive,4,16\n"
        "vm2,sub1,dep1,3x,100,50.0,25.0,40.0,Interactive,4,16\n");
  const std::string msg =
      check_error_of([&] { azure_backend().import_dir(dir(), {}); });
  EXPECT_NE(msg.find("vmtable.csv:2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("column 4"), std::string::npos) << msg;
}

TEST_F(IngestTempDir, AzureMissingVmtableIsCleanError) {
  const std::string msg =
      check_error_of([&] { azure_backend().import_dir(dir(), {}); });
  EXPECT_NE(msg.find("vmtable.csv"), std::string::npos) << msg;
}

TEST(IngestGoogle, FixturePinsExactCounts) {
  const auto result = google_backend().import_dir(fixture_dir("google"), {});
  const IngestReport& r = result.report;
  EXPECT_EQ(r.backend, "google");
  EXPECT_EQ(r.rows, 193u);  // 68 events + 125 usage
  EXPECT_EQ(r.vms, 26u);    // 24 tasks + marked-schedule + missing-machine
  EXPECT_EQ(r.subscriptions, 6u);  // jobs
  EXPECT_EQ(r.samples, 120u);
  EXPECT_EQ(r.skipped_rows, 5u);
  EXPECT_EQ(r.violations, 4u);
  EXPECT_EQ(r.fidelity_count("request_out_of_range"), 1u);
  EXPECT_EQ(r.fidelity_count("schedule_without_submit_marked"), 1u);
  EXPECT_EQ(r.fidelity_count("terminal_without_schedule"), 1u);
  EXPECT_EQ(r.fidelity_count("schedule_missing_machine"), 1u);
  EXPECT_EQ(r.fidelity_count("reschedule"), 1u);
  EXPECT_EQ(r.fidelity_count("out_of_order_event"), 1u);
  EXPECT_EQ(r.fidelity_count("request_update"), 1u);
  EXPECT_EQ(r.fidelity_count("usage_above_allocation"), 1u);
  EXPECT_EQ(r.fidelity_count("usage_unknown_task"), 2u);
  EXPECT_EQ(r.fidelity_count("usage_out_of_window"), 3u);
  EXPECT_EQ(r.fidelity_count("usage_gaps_filled"), 18330u);

  // 10 machines + the "<missing>" placeholder, racks of 8.
  EXPECT_EQ(result.topology->nodes().size(), 11u);
  EXPECT_EQ(result.topology->racks().size(), 2u);
  for (const auto& vm : result.trace->vms()) {
    EXPECT_EQ(vm.cloud, CloudType::kPrivate);
    EXPECT_EQ(vm.party, PartyType::kFirstParty);
    EXPECT_TRUE(vm.service.valid());  // users became first-party services
    EXPECT_LT(vm.created, vm.deleted);
  }
}

TEST(IngestGoogle, ParallelImportBitIdenticalToSerial) {
  IngestOptions serial;
  serial.parallel = ParallelConfig::serial();
  serial.block_bytes = 1024;
  serial.chunk_lines = 8;
  IngestOptions threaded = serial;
  threaded.parallel = ParallelConfig::with_threads(8);
  const auto a = google_backend().import_dir(fixture_dir("google"), serial);
  const auto b = google_backend().import_dir(fixture_dir("google"), threaded);
  ASSERT_EQ(a.report.fidelity, b.report.fidelity);
  ASSERT_EQ(a.trace->vms().size(), b.trace->vms().size());
  for (std::size_t i = 0; i < a.trace->vms().size(); ++i) {
    EXPECT_EQ(a.trace->vms()[i].created, b.trace->vms()[i].created);
    EXPECT_EQ(a.trace->vms()[i].deleted, b.trace->vms()[i].deleted);
    EXPECT_EQ(a.trace->vms()[i].subscription, b.trace->vms()[i].subscription);
    EXPECT_EQ(a.trace->vms()[i].node, b.trace->vms()[i].node);
  }
}

TEST_F(IngestTempDir, CloudlensBackendRoundTripsAnExportedTrace) {
  // Export a hand-built trace through trace_io and read it back through
  // the backend's directory entry point (the path the pipeline uses).
  Topology topo = test::tiny_topology();
  test::TraceFixture fx(topo);
  const NodeId priv_node = test::first_node(topo, CloudType::kPrivate);
  const NodeId pub_node = test::first_node(topo, CloudType::kPublic);
  fx.add_vm(CloudType::kPrivate, fx.private_sub, priv_node, 4, -kDay, kNoEnd,
            std::make_shared<ConstantUtilization>(0.4));
  fx.add_vm(CloudType::kPublic, fx.public_sub, pub_node, 2, kHour, 5 * kHour);

  std::ostringstream topo_csv, vm_csv, util_csv;
  export_topology(topo, topo_csv);
  export_vm_table(fx.trace, vm_csv);
  export_utilization(fx.trace, util_csv);
  write("topology.csv", topo_csv.str());
  write("vmtable.csv", vm_csv.str());
  write("utilization.csv", util_csv.str());

  const auto result = cloudlens_backend().import_dir(dir(), {});
  EXPECT_EQ(result.report.backend, "cloudlens");
  ASSERT_EQ(result.trace->vms().size(), 2u);
  EXPECT_EQ(result.trace->vms()[0].cloud, CloudType::kPrivate);
  EXPECT_EQ(result.trace->vms()[0].created, -kDay);
  EXPECT_FALSE(result.trace->vms()[0].ended());
  EXPECT_EQ(result.trace->vms()[1].deleted, 5 * kHour);
  EXPECT_EQ(result.report.vms, 2u);
  EXPECT_GT(result.report.samples, 0u);
}

TEST(IngestStreams, ImportTraceWrapperStillWorks) {
  // The pre-backend stream-level entry point (kept for tests and the
  // serve engine) still decodes the cloudlens schema.
  const std::string topo_csv =
      "node,rack,cluster,datacenter,region,region_name,tz_offset_hours,"
      "cloud,node_cores,node_memory_gb\n"
      "0,0,0,0,0,east,-5,private,16,64\n";
  const std::string vm_header =
      "vm,subscription,service,cloud,party,region,cluster,rack,node,cores,"
      "memory_gb,created,deleted,pattern\n";
  std::istringstream topo_in(topo_csv);
  std::istringstream vm_in(
      vm_header + "0,0,0,private,first-party,0,0,0,0,4,16,0,3600,unknown\n");
  const auto imported = import_trace(topo_in, vm_in, nullptr);
  ASSERT_EQ(imported.trace->vms().size(), 1u);
  EXPECT_EQ(imported.trace->vms()[0].deleted, 3600);

  // Owner ids are strict 32-bit ids: a subscription id past the id space
  // fails with its row and column instead of wrapping.
  std::istringstream topo_again(topo_csv);
  std::istringstream bad_vm(
      vm_header +
      "0,4294967296,0,private,first-party,0,0,0,0,4,16,0,3600,unknown\n");
  const std::string msg =
      check_error_of([&] { import_trace(topo_again, bad_vm, nullptr); });
  EXPECT_NE(msg.find("vmtable.csv:2: column 2"), std::string::npos) << msg;
}

TEST(IngestStreams, PlacementAndUtilizationIdsPastTheIdSpaceFail) {
  // Placement and utilization vm ids are 32-bit too: 4294967296 fails
  // with its row and column instead of wrapping to 0, while 4294967295,
  // the invalid id export_vm_table writes for an unplaced VM, imports.
  const std::string topo_csv =
      "node,rack,cluster,datacenter,region,region_name,tz_offset_hours,"
      "cloud,node_cores,node_memory_gb\n"
      "0,0,0,0,0,east,-5,private,16,64\n";
  const std::string vm_header =
      "vm,subscription,service,cloud,party,region,cluster,rack,node,cores,"
      "memory_gb,created,deleted,pattern\n";
  const std::string util_header = "vm,timestamp,avg_cpu\n";
  const auto import = [&](const std::string& vm_rows,
                          const std::string& util_rows) {
    std::istringstream topo_in(topo_csv);
    std::istringstream vm_in(vm_header + vm_rows);
    std::istringstream util_in(util_header + util_rows);
    return import_trace(topo_in, vm_in, &util_in);
  };

  const auto unplaced = import(
      "0,0,0,private,first-party,0,4294967295,4294967295,4294967295,4,16,0,"
      "3600,unknown\n",
      "0,0,0.5\n");
  ASSERT_EQ(unplaced.trace->vms().size(), 1u);
  EXPECT_FALSE(unplaced.trace->vms()[0].placed());
  EXPECT_FALSE(unplaced.trace->vms()[0].cluster.valid());

  const std::string node_msg = check_error_of([&] {
    import("0,0,0,private,first-party,0,0,0,4294967296,4,16,0,3600,unknown\n",
           "");
  });
  EXPECT_NE(node_msg.find("vmtable.csv:2: column 9"), std::string::npos)
      << node_msg;
  const std::string region_msg = check_error_of([&] {
    import("0,0,0,private,first-party,4294967296,0,0,0,4,16,0,3600,unknown\n",
           "");
  });
  EXPECT_NE(region_msg.find("vmtable.csv:2: column 6"), std::string::npos)
      << region_msg;

  const std::string util_msg = check_error_of([&] {
    import("0,0,0,private,first-party,0,0,0,0,4,16,0,3600,unknown\n",
           "0,0,0.5\n4294967296,300,0.5\n");
  });
  EXPECT_NE(util_msg.find("utilization.csv:3: column 1"), std::string::npos)
      << util_msg;
}

}  // namespace
}  // namespace cloudlens::ingest
