// The serve determinism contract, pinned to bytes: a trace replayed
// through the streaming engine answers every query — characterization
// report, insight verdicts, classifier shares, figure CSVs, knowledge
// base — byte-identically to the batch pipeline over the same data, at
// any thread count; mid-stream queries see epoch-aligned snapshots that
// match a batch import of the same event prefix; checkpoints resume
// byte-identically; and concurrent ingest + queries stay consistent
// (this file runs under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/classifier.h"
#include "analysis/context.h"
#include "analysis/figures.h"
#include "analysis/insights.h"
#include "analysis/report.h"
#include "cloudsim/trace.h"
#include "cloudsim/trace_io.h"
#include "ingest/ingest.h"
#include "kb/extractor.h"
#include "kb/refresh.h"
#include "kb/store.h"
#include "serve/engine.h"
#include "serve/stream.h"
#include "workloads/generator.h"

namespace cloudlens::serve {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (;;) {
    const auto comma = line.find(',', pos);
    if (comma == std::string::npos) {
      out.push_back(line.substr(pos));
      return out;
    }
    out.push_back(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
}

/// A `shares,private` answer: the header, then the private row with five
/// numbers. Never throws, so a live ingester thread can still be joined.
void expect_private_shares_csv(const std::string& csv) {
  const auto lines = split_lines(csv);
  EXPECT_EQ(lines.size(), 2u) << csv;
  if (lines.size() != 2) return;
  EXPECT_EQ(lines[0], "cloud,diurnal,stable,irregular,hourly_peak,classified");
  const auto fields = split_fields(lines[1]);
  EXPECT_EQ(fields.size(), 6u) << csv;
  EXPECT_EQ(fields[0], "private");
  for (std::size_t f = 1; f < fields.size(); ++f) {
    char* end = nullptr;
    std::strtod(fields[f].c_str(), &end);
    EXPECT_TRUE(end != fields[f].c_str() && *end == '\0') << csv;
  }
}

/// Everything a serve query can return, rendered from a batch trace with
/// the exact recipe the engine uses (same options, same framing).
struct Products {
  std::string report;
  std::string insights;
  std::string shares_private;
  std::string shares_public;
  std::string figures;
  std::string kb;
};

std::string render_shares(const AnalysisContext& ctx, CloudType cloud) {
  const auto s = analysis::classify_population(ctx, cloud, 800);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s,%.17g,%.17g,%.17g,%.17g,%zu\n",
                std::string(to_string(cloud)).c_str(), s.diurnal, s.stable,
                s.irregular, s.hourly_peak, s.classified);
  return std::string("cloud,diurnal,stable,irregular,hourly_peak,classified\n") +
         buf;
}

std::string render_figures(const AnalysisContext& ctx) {
  std::ostringstream current;
  std::string name_open;
  std::ostringstream all;
  const auto open = [&](const std::string& name) -> std::ostream& {
    if (!name_open.empty())
      all << "== " << name_open << " ==\n" << current.str();
    current.str({});
    current.clear();
    name_open = name;
    return current;
  };
  analysis::write_figure_csvs(ctx, open);
  if (!name_open.empty()) all << "== " << name_open << " ==\n" << current.str();
  return all.str();
}

Products render_batch(const TraceStore& trace, std::size_t threads) {
  const AnalysisContext ctx(trace, ParallelConfig::with_threads(threads));
  Products p;
  {
    std::ostringstream os;
    analysis::write_characterization_report(ctx, os);
    p.report = os.str();
  }
  p.insights = analysis::render_insights(analysis::evaluate_insights(ctx));
  p.shares_private = render_shares(ctx, CloudType::kPrivate);
  p.shares_public = render_shares(ctx, CloudType::kPublic);
  p.figures = render_figures(ctx);
  p.kb = kb::KnowledgeBase(kb::extract_all(ctx)).to_csv();
  return p;
}

void expect_queries_match(ServeEngine& engine, const Products& want) {
  EXPECT_EQ(engine.query("report"), want.report);
  EXPECT_EQ(engine.query("insights"), want.insights);
  EXPECT_EQ(engine.query("shares,private"), want.shares_private);
  EXPECT_EQ(engine.query("shares,public"), want.shares_public);
  EXPECT_EQ(engine.query("figures"), want.figures);
  EXPECT_EQ(engine.query("kb"), want.kb);
}

/// Shared fixture: one generated scenario exported to CSVs (with a lossy
/// utilization cap, as real exports are), re-imported as the batch trace,
/// and rendered as the event stream. Built once per suite — the analyses
/// behind render_batch are the expensive part.
class ServeEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::ScenarioOptions options;
    options.scale = 0.04;
    options.seed = 7;
    const auto scenario = workloads::make_scenario(options);
    {
      std::ostringstream topo, vmt, util;
      export_topology(*scenario.topology, topo);
      export_vm_table(*scenario.trace, vmt);
      TraceExportOptions ex;
      ex.max_vms_with_utilization = 400;
      export_utilization(*scenario.trace, util, ex);
      topo_csv_ = new std::string(topo.str());
      vm_csv_ = new std::string(vmt.str());
      util_csv_ = new std::string(util.str());
    }
    std::istringstream topo_in(*topo_csv_), vm_in(*vm_csv_), util_in(*util_csv_);
    batch_ = new ImportedTrace(import_trace(topo_in, vm_in, &util_in));
    std::ostringstream stream;
    write_event_stream(*batch_->topology, *batch_->trace, stream);
    lines_ = new std::vector<std::string>(split_lines(stream.str()));
    reference_ = new Products(render_batch(*batch_->trace, 1));
  }
  static void TearDownTestSuite() {
    delete batch_;
    delete lines_;
    delete reference_;
    delete topo_csv_;
    delete vm_csv_;
    delete util_csv_;
    batch_ = nullptr;
    lines_ = nullptr;
    reference_ = nullptr;
    topo_csv_ = vm_csv_ = util_csv_ = nullptr;
  }

  static void feed_all(ServeEngine& engine) {
    for (const auto& line : *lines_) engine.ingest_line(line);
  }

  static ImportedTrace* batch_;
  static std::vector<std::string>* lines_;
  static Products* reference_;
  static std::string* topo_csv_;
  static std::string* vm_csv_;
  static std::string* util_csv_;
};

ImportedTrace* ServeEquivalenceTest::batch_ = nullptr;
std::vector<std::string>* ServeEquivalenceTest::lines_ = nullptr;
Products* ServeEquivalenceTest::reference_ = nullptr;
std::string* ServeEquivalenceTest::topo_csv_ = nullptr;
std::string* ServeEquivalenceTest::vm_csv_ = nullptr;
std::string* ServeEquivalenceTest::util_csv_ = nullptr;

TEST_F(ServeEquivalenceTest, FullStreamByteMatchesBatchAtAnyThreadCount) {
  // The batch side itself is thread-invariant (regression guard for the
  // context-first analysis entry points).
  EXPECT_EQ(render_batch(*batch_->trace, 8).report, reference_->report);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ServeOptions options;
    options.parallel = ParallelConfig::with_threads(threads);
    ServeEngine engine(options);
    feed_all(engine);
    EXPECT_EQ(engine.epoch(), batch_->trace->telemetry_grid().count);
    expect_queries_match(engine, *reference_);

    // Structural identity, not just rendered outputs: the snapshot's VM
    // table and every utilization sample byte-match the batch trace.
    const auto snap = engine.snapshot_trace();
    std::ostringstream got_vm, want_vm, got_util, want_util;
    export_vm_table(*snap, got_vm);
    export_vm_table(*batch_->trace, want_vm);
    EXPECT_EQ(got_vm.str(), want_vm.str());
    TraceExportOptions all_vms;
    all_vms.max_vms_with_utilization = 0;
    export_utilization(*snap, got_util, all_vms);
    export_utilization(*batch_->trace, want_util, all_vms);
    EXPECT_EQ(got_util.str(), want_util.str());
  }
}

TEST_F(ServeEquivalenceTest, MidStreamQueriesAreEpochAlignedPrefixSnapshots) {
  const TimeGrid& grid = batch_->trace->telemetry_grid();
  const std::size_t target_epoch = grid.count / 2;
  const SimTime cut = grid.at(target_epoch);

  // Feed every event before the cutoff, then exactly one event at or past
  // it: the engine is now mid-tick at epoch `target_epoch`.
  ServeEngine engine;
  std::size_t i = 0;
  for (; i < lines_->size(); ++i) {
    const auto ts = event_timestamp((*lines_)[i]);
    if (ts && *ts >= cut) break;
    engine.ingest_line((*lines_)[i]);
  }
  ASSERT_LT(i, lines_->size());
  engine.ingest_line((*lines_)[i]);
  ++i;
  ASSERT_EQ(engine.epoch(), target_epoch);
  ASSERT_EQ(engine.cutoff(), cut);
  const std::string mid_report = engine.query("report");
  const std::string mid_kb = engine.query("kb");

  // Epoch isolation: more events from the same (incomplete) tick must not
  // move a byte of any answer.
  std::size_t same_tick_events = 0;
  for (; i < lines_->size(); ++i) {
    const auto ts = event_timestamp((*lines_)[i]);
    if (ts && *ts >= cut + grid.step) break;
    if (ts) ++same_tick_events;
    engine.ingest_line((*lines_)[i]);
  }
  ASSERT_GT(same_tick_events, 0u);
  EXPECT_EQ(engine.epoch(), target_epoch);
  EXPECT_EQ(engine.query("report"), mid_report);
  EXPECT_EQ(engine.query("kb"), mid_kb);

  // The mid-stream snapshot is exactly what the batch importer builds
  // from the same event prefix: vmtable rows created before the cutoff
  // (deletions at or past it blanked), utilization rows before it.
  // Surviving VMs are renumbered densely in original-id order (the
  // importer demands dense ids; the engine snapshot renumbers the same
  // way), and utilization rows follow the remap.
  std::ostringstream prefix_vm, prefix_util;
  std::map<std::string, std::size_t> renumber;
  {
    const auto rows = split_lines(*vm_csv_);
    prefix_vm << rows.front() << '\n';
    for (std::size_t r = 1; r < rows.size(); ++r) {
      auto f = split_fields(rows[r]);
      if (std::stoll(f[11]) >= cut) continue;
      if (!f[12].empty() && std::stoll(f[12]) >= cut) f[12].clear();
      const std::size_t dense = renumber.size();
      renumber[f[0]] = dense;
      f[0] = std::to_string(dense);
      for (std::size_t c = 0; c < f.size(); ++c) {
        if (c) prefix_vm << ',';
        prefix_vm << f[c];
      }
      prefix_vm << '\n';
    }
  }
  {
    const auto rows = split_lines(*util_csv_);
    prefix_util << rows.front() << '\n';
    for (std::size_t r = 1; r < rows.size(); ++r) {
      auto f = split_fields(rows[r]);
      if (std::stoll(f[1]) >= cut) continue;
      const auto it = renumber.find(f[0]);
      if (it == renumber.end()) continue;  // VM not created before the cut
      prefix_util << it->second << ',' << f[1] << ',' << f[2] << '\n';
    }
  }
  std::istringstream topo_in(*topo_csv_);
  std::istringstream vm_in(prefix_vm.str());
  std::istringstream util_in(prefix_util.str());
  const auto prefix = import_trace(topo_in, vm_in, &util_in, grid);
  const Products want = render_batch(*prefix.trace, 1);
  EXPECT_EQ(mid_report, want.report);
  EXPECT_EQ(mid_kb, want.kb);
  EXPECT_EQ(engine.query("figures"), want.figures);
}

TEST_F(ServeEquivalenceTest, RefreshFromServeSnapshotIsThreadInvariant) {
  // Satellite pin: kb::refresh driven by an ingest-built snapshot is
  // byte-identical at 1 and 8 threads (the context overload is the only
  // refresh path left after the API migration).
  ServeEngine engine;
  feed_all(engine);
  const auto snap = engine.snapshot_trace();

  std::string csv_by_threads[2];
  const std::size_t thread_counts[2] = {1, 8};
  for (int t = 0; t < 2; ++t) {
    kb::KnowledgeBase kb;
    const AnalysisContext ctx(*snap,
                              ParallelConfig::with_threads(thread_counts[t]));
    kb::refresh(kb, ctx);
    csv_by_threads[t] = kb.to_csv();
  }
  EXPECT_EQ(csv_by_threads[0], csv_by_threads[1]);
  EXPECT_FALSE(csv_by_threads[0].empty());
}

TEST_F(ServeEquivalenceTest, CheckpointRestoreResumesByteIdentically) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / "cloudlens_serve_ckpt").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  ServeOptions options;
  options.checkpoint_dir = dir;
  ServeEngine primary(options);
  const std::size_t half = lines_->size() / 2;
  for (std::size_t i = 0; i < half; ++i)
    primary.ingest_line((*lines_)[i]);
  const SimTime cut = primary.cutoff();
  const std::string path = primary.checkpoint();

  // A fresh engine restores the checkpoint, then replays every event at
  // or past the checkpoint's cutoff (including those the primary had
  // already seen from the incomplete tick).
  ServeEngine restored;
  restored.restore_checkpoint(path);
  for (const auto& line : *lines_) {
    const auto ts = event_timestamp(line);
    if (ts && *ts >= cut) restored.ingest_line(line);
  }
  for (std::size_t i = half; i < lines_->size(); ++i)
    primary.ingest_line((*lines_)[i]);

  EXPECT_EQ(primary.epoch(), restored.epoch());
  EXPECT_EQ(restored.query("report"), reference_->report);
  EXPECT_EQ(restored.query("kb"), reference_->kb);
  EXPECT_EQ(primary.query("report"), restored.query("report"));
  fs::remove_all(dir);
}

TEST(ServeConcurrencyTest, ConcurrentQueriesDuringIngestStayConsistent) {
  // Exercised under TSan in CI: one thread drains the stream while
  // another fires queries. Every answer must be a well-formed product of
  // some complete epoch, and the final answers must match batch. A small
  // dedicated scenario keeps each mid-flight query cheap enough to fire
  // many of them while ingestion is genuinely in progress.
  workloads::ScenarioOptions scenario_options;
  scenario_options.scale = 0.015;
  scenario_options.seed = 3;
  const auto scenario = workloads::make_scenario(scenario_options);
  std::ostringstream topo, vmt, util;
  export_topology(*scenario.topology, topo);
  export_vm_table(*scenario.trace, vmt);
  TraceExportOptions ex;
  ex.max_vms_with_utilization = 100;
  export_utilization(*scenario.trace, util, ex);
  std::istringstream topo_in(topo.str()), vm_in(vmt.str()), util_in(util.str());
  const auto batch = import_trace(topo_in, vm_in, &util_in);
  std::ostringstream stream;
  write_event_stream(*batch.topology, *batch.trace, stream);
  const auto lines = split_lines(stream.str());
  const AnalysisContext batch_ctx(*batch.trace);
  const std::string want_kb =
      kb::KnowledgeBase(kb::extract_all(batch_ctx)).to_csv();

  const std::string dir =
      (fs::path(::testing::TempDir()) / "cloudlens_serve_live_ckpt").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  ServeOptions options;
  options.parallel = ParallelConfig::with_threads(2);
  options.checkpoint_dir = dir;
  ServeEngine engine(options);

  std::atomic<bool> done{false};
  std::thread ingester([&] {
    for (const auto& line : lines) engine.ingest_line(line);
    done.store(true);
  });
  // Queries are defined once the first telemetry tick completes; spin on
  // the (cheap, lock-protected) epoch counter until the engine is live.
  while (engine.epoch() == 0 && !done.load()) {}
  // One checkpoint while the ingester writes the in-flight tick's cells:
  // under TSan this polices the encoder's reads of the sample buffers.
  const std::string checkpoint = engine.query("checkpoint");
  EXPECT_EQ(checkpoint.rfind(dir + "/serve-epoch-", 0), 0u) << checkpoint;
  std::size_t queries = 0;
  while (!done.load()) {
    const auto kb_csv = engine.knowledge().to_csv();
    // Well-formed mid-flight: the CSV round-trips through the parser.
    const auto parsed = kb::KnowledgeBase::from_csv(kb_csv);
    EXPECT_EQ(parsed.to_csv(), kb_csv);
    expect_private_shares_csv(engine.query("shares,private"));
    EXPECT_EQ(engine.query("stats").rfind("events=", 0), 0u);
    ++queries;
  }
  ingester.join();
  EXPECT_GT(queries, 0u);
  EXPECT_EQ(engine.query("kb"), want_kb);
  fs::remove_all(dir);
}

TEST(ServeWindowRollTest, RollingWindowFoldsEvictedWeeksIntoLongTermKb) {
  workloads::ScenarioOptions options;
  options.scale = 0.02;
  options.seed = 13;
  options.horizon = 2 * kWeek;
  const auto scenario = workloads::make_scenario(options);
  const TimeGrid& grid = scenario.trace->telemetry_grid();

  std::ostringstream topo, vmt, util;
  export_topology(*scenario.topology, topo);
  export_vm_table(*scenario.trace, vmt);
  TraceExportOptions ex;
  ex.max_vms_with_utilization = 150;
  export_utilization(*scenario.trace, util, ex);
  std::istringstream topo_in(topo.str()), vm_in(vmt.str()), util_in(util.str());
  const auto batch = import_trace(topo_in, vm_in, &util_in, grid);
  std::ostringstream stream;
  write_event_stream(*batch.topology, *batch.trace, stream);
  const auto lines = split_lines(stream.str());

  const auto run = [&lines] {
    ServeOptions o;
    o.window_weeks = 1;
    auto engine = std::make_unique<ServeEngine>(std::move(o));
    for (const auto& line : lines) engine->ingest_line(line);
    return engine;
  };
  const auto engine = run();
  EXPECT_EQ(engine->window_rolls(), 1u);
  // The evicted first week lives on in the long-term knowledge base.
  EXPECT_GT(engine->long_term_knowledge().size(), 0u);
  // Eviction actually frees state: VMs that ended strictly inside week
  // one are gone. (A deletion at exactly the boundary applies after the
  // roll — the triggering event is never evicted by it — so it stays.)
  std::size_t ended_week_one = 0;
  for (const auto& vm : batch.trace->vms()) {
    if (vm.ended() && vm.deleted < kWeek) ++ended_week_one;
  }
  ASSERT_GT(ended_week_one, 0u);
  EXPECT_EQ(engine->resident_vms(),
            batch.trace->vms().size() - ended_week_one);
  // The post-roll window is week two, fully complete.
  EXPECT_EQ(engine->epoch(), static_cast<std::size_t>(kWeek / grid.step));
  EXPECT_FALSE(engine->query("report").empty());

  // Determinism: an identical replay produces identical long-term bytes.
  const auto replay = run();
  EXPECT_EQ(replay->query("kb-longterm"), engine->query("kb-longterm"));
  EXPECT_EQ(replay->query("kb"), engine->query("kb"));
}

}  // namespace
}  // namespace cloudlens::serve
