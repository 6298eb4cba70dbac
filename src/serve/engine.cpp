#include "serve/engine.h"

#include <chrono>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
#include <utility>

#include "analysis/classifier.h"
#include "analysis/context.h"
#include "analysis/figures.h"
#include "analysis/report.h"
#include "cloudsim/snapshot.h"
#include "cloudsim/trace.h"
#include "cloudsim/trace_io.h"
#include "ingest/csv.h"
#include "ingest/ingest.h"
#include "common/check.h"
#include "kb/refresh.h"

namespace cloudlens::serve {

namespace {

constexpr SimTime kWatermarkUnset = std::numeric_limits<SimTime>::min();
/// first_sample sentinel meaning "never streamed a sample".
constexpr SimTime kNoSample = std::numeric_limits<SimTime>::max();

/// File name the located parse errors of ingest_line carry.
const std::string kStreamFile = "serve stream";

/// The three grid fields of a `grid,start,step,count` line.
TimeGrid parse_grid(const ingest::CsvRow& row) {
  row.expect_fields(4);
  TimeGrid grid;
  grid.start = row.i64(1);
  grid.step = row.i64(2);
  grid.count = row.u64(3);
  CL_CHECK_MSG(grid.step > 0 && grid.count > 0,
               row.file() << ":" << row.line() << ": empty grid");
  return grid;
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

/// One resident VM: its record (id = original stream id) plus the
/// full-grid sample buffer, allocated (shared) on first sample so epoch
/// snapshots can view it without copying.
struct ServeEngine::VmState {
  VmRecord rec;
  std::shared_ptr<std::vector<double>> samples;
  SimTime first_sample = kNoSample;
};

/// An immutable published view: everything a query needs, detached from
/// engine state the moment it is built.
struct ServeEngine::Snapshot {
  std::size_t epoch = 0;
  std::uint64_t roll_gen = 0;
  std::shared_ptr<const Topology> topology;
  std::shared_ptr<const TraceStore> trace;
  /// Dense snapshot VM id -> original stream id (checkpoint sidecar).
  std::vector<std::uint32_t> original_ids;
  /// Rendered query results for this snapshot (guarded by query_mu_).
  std::map<std::string, std::string> results;
};

ServeEngine::ServeEngine(ServeOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::MetricsRegistry::global()),
      watermark_(kWatermarkUnset) {}

ServeEngine::~ServeEngine() = default;

// --- ingest ---------------------------------------------------------------

void ServeEngine::ingest_line(std::string_view line) {
  std::lock_guard<std::mutex> lock(mu_);
  ++lines_;
  if (line.empty()) return;
  // Every field of a line parses before the line changes any state.
  ingest::split_fields(line, fields_);
  const ingest::CsvRow row(fields_, &kStreamFile, lines_);
  const std::string_view tag = row.field(0);
  if (tag == "cloudlens-stream") {
    CL_CHECK_MSG(row.size() == 2 && row.field(1) == "v1",
                 "unsupported stream header: " << line);
    return;
  }
  if (tag == "grid") {
    CL_CHECK_MSG(vms_.empty() && events_ == 0,
                 "grid must precede all events");
    grid_ = parse_grid(row);
    window_start_tick_ = 0;
    return;
  }
  if (tag == "topo") {
    CL_CHECK_MSG(topology_ == nullptr, "topo rows after first event");
    topo_rows_.emplace_back(line.substr(5));
    return;
  }
  if (tag == "end") return;

  // Lifecycle / telemetry events.
  finalize_topology();
  if (tag == "vm") {
    apply_vm_line(row);
    metrics_->add(obs::Counter::kServeVmsCreated);
  } else if (tag == "sample") {
    row.expect_fields(4);
    const std::uint32_t id = ingest::parse_id(row, 1);
    const SimTime t = row.i64(2);
    const double value = row.f64(3);
    advance_watermark(t);
    const auto it = vms_.find(id);
    CL_CHECK_MSG(it != vms_.end(), "sample for unknown vm " << id);
    CL_CHECK_MSG(grid_.contains(t) && (t - grid_.start) % grid_.step == 0,
                 "sample off the grid: " << line);
    VmState& vm = it->second;
    if (vm.samples == nullptr)
      vm.samples = std::make_shared<std::vector<double>>(grid_.count, 0.0);
    (*vm.samples)[grid_.index_of(t)] = value;
    if (t < vm.first_sample) vm.first_sample = t;
    metrics_->add(obs::Counter::kServeSamplesIngested);
  } else if (tag == "del") {
    row.expect_fields(3);
    const std::uint32_t id = ingest::parse_id(row, 1);
    const SimTime t = row.i64(2);
    advance_watermark(t);
    const auto it = vms_.find(id);
    CL_CHECK_MSG(it != vms_.end(), "del for unknown vm " << id);
    CL_CHECK_MSG(t > it->second.rec.created,
                 "vm " << id << " deleted before creation");
    it->second.rec.deleted = t;
    metrics_->add(obs::Counter::kServeVmsDeleted);
  } else {
    CL_CHECK_MSG(false, "unknown stream line: " << line);
  }
  ++events_;
  metrics_->add(obs::Counter::kServeEventsIngested);
  if (metrics_->enabled()) {
    const TimeGrid win = window_grid_locked();
    const std::size_t e = epoch_locked();
    metrics_->set(obs::Gauge::kServeEpoch, static_cast<double>(e));
    const SimTime complete = win.start + static_cast<SimTime>(e) * win.step;
    metrics_->set(obs::Gauge::kServeIngestLagSeconds,
                  watermark_ > complete
                      ? static_cast<double>(watermark_ - complete)
                      : 0.0);
    metrics_->set(obs::Gauge::kServeVmsResident,
                  static_cast<double>(vms_.size()));
  }
}

void ServeEngine::ingest(std::istream& in) {
  const auto start = std::chrono::steady_clock::now();
  std::string line;
  while (std::getline(in, line)) ingest_line(line);
  metrics_->observe_seconds(obs::Histogram::kServeIngestBatchSeconds,
                            elapsed_seconds(start));
}

void ServeEngine::apply_vm_line(const ingest::CsvRow& row) {
  row.expect_fields(13);
  const std::uint32_t id = ingest::parse_id(row, 1);
  VmState st;
  VmRecord& rec = st.rec;
  rec.id = VmId(id);
  rec.subscription = SubscriptionId(ingest::parse_id(row, 2));
  if (!row.field(3).empty())
    rec.service = ServiceId(ingest::parse_id(row, 3));
  rec.cloud = ingest::parse_cloud(row, 4);
  rec.party = ingest::parse_party(row, 5);
  rec.region = RegionId(ingest::parse_id(row, 6));
  rec.cluster = ClusterId(ingest::parse_id(row, 7));
  rec.rack = RackId(ingest::parse_id(row, 8));
  rec.node = NodeId(ingest::parse_id(row, 9));
  rec.cores = row.f64(10);
  rec.memory_gb = row.f64(11);
  rec.created = row.i64(12);
  rec.deleted = kNoEnd;
  advance_watermark(rec.created);
  CL_CHECK_MSG(vms_.find(id) == vms_.end(), "duplicate vm id " << id);
  vms_.emplace(id, std::move(st));
}

void ServeEngine::advance_watermark(SimTime t) {
  CL_CHECK_MSG(t >= watermark_ || watermark_ == kWatermarkUnset,
               "stream timestamps must be non-decreasing");
  CL_CHECK_MSG(grid_.count > 0, "grid line must precede events");
  // Watermark first: an event at t >= window end proves every window tick
  // is complete, so the roll's fold sees the full window.
  watermark_ = t;
  maybe_roll_window();
}

void ServeEngine::maybe_roll_window() {
  if (options_.window_weeks == 0) return;
  const std::size_t week_ticks =
      static_cast<std::size_t>(kWeek / grid_.step);
  for (;;) {
    const TimeGrid win = window_grid_locked();
    // Roll only while the watermark lies beyond the current window and
    // there is grid left to roll into.
    if (watermark_ < win.end() || win.end() >= grid_.end()) return;
    // Fold the full current window into the long-term knowledge base
    // before any of it is evicted.
    {
      const auto snap = snapshot_locked();
      const AnalysisContext ctx(*snap->trace, options_.parallel, metrics_);
      kb::RefreshOptions refresh;
      refresh.extractor = options_.kb_options;
      kb::refresh(long_term_, ctx, refresh);
    }
    window_start_tick_ += week_ticks;
    const SimTime new_start = grid_.start + static_cast<SimTime>(
        window_start_tick_) * grid_.step;
    for (auto it = vms_.begin(); it != vms_.end();) {
      const VmRecord& rec = it->second.rec;
      if (rec.deleted != kNoEnd && rec.deleted <= new_start) {
        it = vms_.erase(it);
      } else {
        ++it;
      }
    }
    cached_snapshot_.reset();
    ++rolls_;
    metrics_->add(obs::Counter::kServeWindowRolls);
  }
}

void ServeEngine::finalize_topology() {
  if (topology_ != nullptr) return;
  CL_CHECK_MSG(grid_.count > 0, "grid line must precede events");
  topology_ = parse_topology_locked();
  topo_rows_.clear();
  topo_rows_.shrink_to_fit();
}

std::shared_ptr<const Topology> ServeEngine::parse_topology_locked() const {
  CL_CHECK_MSG(!topo_rows_.empty(), "no topology before first event");
  std::string topo_csv =
      "node,rack,cluster,datacenter,region,region_name,tz_offset_hours,"
      "cloud,node_cores,node_memory_gb\n";
  for (const auto& row : topo_rows_) {
    topo_csv += row;
    topo_csv += '\n';
  }
  // Reuse the CSV importer's validated topology parser by importing an
  // empty vmtable alongside the rows.
  std::istringstream topo_in(topo_csv);
  std::istringstream vm_in(
      "vm,subscription,service,cloud,party,region,cluster,rack,node,"
      "cores,memory_gb,created,deleted,pattern\n");
  auto imported = import_trace(topo_in, vm_in, nullptr, grid_);
  return std::shared_ptr<const Topology>(std::move(imported.topology));
}

// --- progress -------------------------------------------------------------

std::uint64_t ServeEngine::events_ingested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t ServeEngine::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_locked();
}

SimTime ServeEngine::watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return watermark_;
}

SimTime ServeEngine::cutoff() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cutoff_locked();
}

std::size_t ServeEngine::resident_vms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return vms_.size();
}

std::uint64_t ServeEngine::window_rolls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rolls_;
}

std::size_t ServeEngine::epoch_locked() const {
  if (grid_.count == 0 || watermark_ == kWatermarkUnset) return 0;
  const TimeGrid win = window_grid_locked();
  if (watermark_ <= win.start) return 0;
  const auto ticks =
      static_cast<std::size_t>((watermark_ - win.start) / win.step);
  return ticks < win.count ? ticks : win.count;
}

SimTime ServeEngine::cutoff_locked() const {
  const TimeGrid win = window_grid_locked();
  const std::size_t e = epoch_locked();
  if (e >= win.count) return kNoEnd;  // fully complete: include everything
  return win.start + static_cast<SimTime>(e) * win.step;
}

TimeGrid ServeEngine::window_grid_locked() const {
  TimeGrid win;
  win.step = grid_.step;
  win.start =
      grid_.start + static_cast<SimTime>(window_start_tick_) * grid_.step;
  const std::size_t remaining = grid_.count > window_start_tick_
                                    ? grid_.count - window_start_tick_
                                    : 0;
  if (options_.window_weeks == 0) {
    win.count = remaining;
  } else {
    const auto window_ticks = static_cast<std::size_t>(
        options_.window_weeks * static_cast<std::uint64_t>(kWeek / grid_.step));
    win.count = window_ticks < remaining ? window_ticks : remaining;
  }
  return win;
}

// --- snapshots ------------------------------------------------------------

std::shared_ptr<ServeEngine::Snapshot> ServeEngine::snapshot_locked() {
  const std::size_t e = epoch_locked();
  if (cached_snapshot_ != nullptr && cached_snapshot_->epoch == e &&
      cached_snapshot_->roll_gen == rolls_) {
    metrics_->add(obs::Counter::kServeSnapshotReuses);
    return cached_snapshot_;
  }
  const auto start = std::chrono::steady_clock::now();
  CL_CHECK_MSG(grid_.count > 0, "query before the stream's grid line");
  // A query may land while topology rows are still streaming in (before
  // the first event latches them); parse without latching so the
  // remaining topo rows stay legal to ingest.
  const std::shared_ptr<const Topology> topo =
      topology_ != nullptr ? topology_ : parse_topology_locked();
  const TimeGrid win = window_grid_locked();
  const SimTime cut = cutoff_locked();
  CL_CHECK_MSG(win.count > 0, "window has no ticks");

  auto snap = std::make_shared<Snapshot>();
  snap->epoch = e;
  snap->roll_gen = rolls_;
  snap->topology = topo;

  // Included VMs are those created before the cutoff, in ascending
  // original-id order — exactly the importer's row order, so the snapshot
  // and a CSV import of the same prefix agree byte-for-byte. First the
  // importer's placeholder ownership universe over them.
  ingest::PlaceholderUniverse universe;
  std::size_t included = 0;
  for (const auto& [id, st] : vms_) {
    const VmRecord& rec = st.rec;
    if (rec.created >= cut) continue;
    ++included;
    universe.add(rec.subscription, rec.service, rec.cloud, rec.party);
  }

  // Then a plain resident trace with no panel (analyses evaluate rows on
  // demand, bit-identical by the panel contract), holding each included
  // record as of the cutoff: a deletion or first sample at or past it is
  // not visible yet, and its sample cells are read up to the epoch only.
  auto trace = std::make_shared<TraceStore>(topo.get(), win);
  universe.install(*trace);
  trace->reserve_vms(included);
  snap->original_ids.reserve(included);
  for (const auto& [id, st] : vms_) {
    if (st.rec.created >= cut) continue;
    VmRecord rec = st.rec;
    if (rec.deleted != kNoEnd && rec.deleted >= cut) rec.deleted = kNoEnd;
    if (st.first_sample < cut) {
      rec.utilization = std::make_shared<SampledUtilization>(
          win, st.samples, window_start_tick_, e);
    }
    snap->original_ids.push_back(id);
    trace->add_vm(std::move(rec));
  }
  snap->trace = std::move(trace);
  metrics_->add(obs::Counter::kServeSnapshotsBuilt);
  metrics_->observe_seconds(obs::Histogram::kServeSnapshotBuildSeconds,
                            elapsed_seconds(start));
  cached_snapshot_ = snap;
  return snap;
}

std::shared_ptr<ServeEngine::Snapshot> ServeEngine::current_snapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_locked();
}

std::shared_ptr<const TraceStore> ServeEngine::snapshot_trace() {
  auto snap = current_snapshot();
  // Aliasing share: keeps the whole snapshot (incl. topology) alive.
  return std::shared_ptr<const TraceStore>(snap, snap->trace.get());
}

// --- knowledge base -------------------------------------------------------

kb::KnowledgeBase ServeEngine::window_knowledge(const Snapshot& snap) const {
  const AnalysisContext ctx(*snap.trace, options_.parallel, metrics_);
  return kb::KnowledgeBase(kb::extract_all(ctx, options_.kb_options));
}

kb::KnowledgeBase ServeEngine::knowledge() {
  std::lock_guard<std::mutex> qlock(query_mu_);
  return window_knowledge(*current_snapshot());
}

kb::KnowledgeBase ServeEngine::long_term_knowledge() const {
  std::lock_guard<std::mutex> lock(mu_);
  return long_term_;
}

// --- queries --------------------------------------------------------------

std::string ServeEngine::query(const std::string& what) {
  const auto start = std::chrono::steady_clock::now();
  metrics_->add(obs::Counter::kServeQueries);
  std::lock_guard<std::mutex> qlock(query_mu_);

  if (what == "stats") {
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os << "events=" << events_ << " epoch=" << epoch_locked() << "/"
       << window_grid_locked().count << " watermark="
       << (watermark_ == kWatermarkUnset ? 0 : watermark_)
       << " vms=" << vms_.size() << " rolls=" << rolls_
       << " long_term_kb=" << long_term_.size() << "\n";
    metrics_->observe_seconds(obs::Histogram::kServeQuerySeconds,
                              elapsed_seconds(start));
    return os.str();
  }
  if (what == "checkpoint") {
    auto path = write_checkpoint();
    metrics_->observe_seconds(obs::Histogram::kServeQuerySeconds,
                              elapsed_seconds(start));
    return path + "\n";
  }

  const auto snap = current_snapshot();
  if (const auto it = snap->results.find(what); it != snap->results.end()) {
    metrics_->observe_seconds(obs::Histogram::kServeQuerySeconds,
                              elapsed_seconds(start));
    return it->second;
  }

  const AnalysisContext ctx(*snap->trace, options_.parallel, metrics_);
  std::string result;
  if (what == "report") {
    std::ostringstream os;
    analysis::ReportOptions report;
    report.insights = options_.insights;
    analysis::write_characterization_report(ctx, os, report);
    result = os.str();
  } else if (what == "insights") {
    result =
        analysis::render_insights(analysis::evaluate_insights(ctx, options_.insights));
  } else if (what == "shares,private" || what == "shares,public") {
    const CloudType cloud = what == "shares,private" ? CloudType::kPrivate
                                                     : CloudType::kPublic;
    const auto shares =
        analysis::classify_population(ctx, cloud,
                                      options_.insights.classify_max_vms);
    result = render_shares(cloud, shares);
  } else if (what == "figures") {
    std::ostringstream current;
    std::string name_open;
    std::ostringstream all;
    const auto open = [&](const std::string& name) -> std::ostream& {
      if (!name_open.empty()) {
        all << "== " << name_open << " ==\n" << current.str();
      }
      current.str({});
      current.clear();
      name_open = name;
      return current;
    };
    analysis::write_figure_csvs(ctx, open);
    if (!name_open.empty()) {
      all << "== " << name_open << " ==\n" << current.str();
    }
    result = all.str();
  } else if (what == "kb") {
    result = window_knowledge(*snap).to_csv();
  } else if (what == "kb-longterm") {
    kb::KnowledgeBase blended;
    {
      std::lock_guard<std::mutex> lock(mu_);
      blended = long_term_;
    }
    kb::RefreshOptions refresh;
    refresh.extractor = options_.kb_options;
    kb::refresh(blended, ctx, refresh);
    result = blended.to_csv();
  } else {
    CL_CHECK_MSG(false, "unknown query: " << what);
  }
  snap->results.emplace(what, result);
  metrics_->observe_seconds(obs::Histogram::kServeQuerySeconds,
                            elapsed_seconds(start));
  return result;
}

std::string ServeEngine::render_shares(CloudType cloud,
                                       const analysis::PatternShares& s) {
  std::string out =
      "cloud,diurnal,stable,irregular,hourly_peak,classified\n";
  out += std::string(to_string(cloud));
  out += ',';
  append_double(out, s.diurnal);
  out += ',';
  append_double(out, s.stable);
  out += ',';
  append_double(out, s.irregular);
  out += ',';
  append_double(out, s.hourly_peak);
  out += ',';
  out += std::to_string(s.classified);
  out += '\n';
  return out;
}

// --- checkpoint / restore -------------------------------------------------

std::string ServeEngine::checkpoint() {
  std::lock_guard<std::mutex> qlock(query_mu_);
  return write_checkpoint();
}

std::string ServeEngine::write_checkpoint() {
  CL_CHECK_MSG(!options_.checkpoint_dir.empty(),
               "serve: no --checkpoint-dir configured");
  const auto snap = current_snapshot();
  const std::string path = options_.checkpoint_dir + "/serve-epoch-" +
                           std::to_string(snap->epoch) + ".bin";
  {
    std::ofstream out(path, std::ios::binary);
    CL_CHECK_MSG(out.good(), "cannot write checkpoint " << path);
    save_trace_snapshot(*snap->topology, *snap->trace, out);
  }
  std::ofstream meta(path + ".meta");
  CL_CHECK_MSG(meta.good(), "cannot write checkpoint meta " << path);
  std::uint64_t rolls;
  TimeGrid grid;
  std::size_t window_start;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rolls = rolls_;
    grid = grid_;
    window_start = window_start_tick_;
  }
  meta << "serve-checkpoint,v1\n";
  meta << "grid," << grid.start << ',' << grid.step << ',' << grid.count
       << '\n';
  meta << "window_start," << window_start << '\n';
  meta << "epoch," << snap->epoch << '\n';
  meta << "rolls," << rolls << '\n';
  meta << "ids";
  for (const auto id : snap->original_ids) meta << ',' << id;
  meta << '\n';
  meta.flush();
  CL_CHECK_MSG(meta.good(),
               "checkpoint meta write failed: " << path << ".meta");
  metrics_->add(obs::Counter::kServeCheckpoints);
  return path;
}

void ServeEngine::restore_checkpoint(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  CL_CHECK_MSG(events_ == 0 && vms_.empty(),
               "restore requires a fresh engine");

  const std::string meta_path = path + ".meta";
  std::ifstream meta_in(meta_path);
  CL_CHECK_MSG(meta_in.good(), "cannot read checkpoint meta " << path);
  std::string line;
  CL_CHECK(std::getline(meta_in, line) && line == "serve-checkpoint,v1");
  std::size_t epoch = 0;
  std::vector<std::uint32_t> ids;
  std::vector<std::string_view> fields;
  for (std::uint64_t number = 2; std::getline(meta_in, line); ++number) {
    if (line.empty()) continue;
    ingest::split_fields(line, fields);
    const ingest::CsvRow row(fields, &meta_path, number);
    const std::string_view tag = row.field(0);
    if (tag == "grid") {
      grid_ = parse_grid(row);
    } else if (tag == "window_start") {
      row.expect_fields(2);
      window_start_tick_ = row.u64(1);
    } else if (tag == "epoch") {
      row.expect_fields(2);
      epoch = row.u64(1);
    } else if (tag == "rolls") {
      row.expect_fields(2);
      rolls_ = row.u64(1);
    } else if (tag == "ids") {
      for (std::size_t i = 1; i < row.size(); ++i)
        ids.push_back(ingest::parse_id(row, i));
    }
  }
  CL_CHECK_MSG(grid_.count > 0, "checkpoint meta missing grid");
  CL_CHECK_MSG(window_start_tick_ < grid_.count,
               meta_path << ": window_start " << window_start_tick_
                         << " is past the grid");

  std::ifstream in(path, std::ios::binary);
  CL_CHECK_MSG(in.good(), "cannot read checkpoint " << path);
  auto loaded = load_trace_snapshot(in);
  topology_ = std::shared_ptr<const Topology>(std::move(loaded.topology));
  const TraceStore& trace = *loaded.trace;
  CL_CHECK_MSG(ids.size() == trace.vms().size(),
               "checkpoint meta/vm count mismatch");

  const TimeGrid win = window_grid_locked();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const VmRecord& rec = trace.vm(VmId(static_cast<VmId::underlying>(i)));
    VmState st;
    st.rec = rec;
    st.rec.id = VmId(ids[i]);
    if (rec.utilization != nullptr) {
      const auto* sampled =
          dynamic_cast<const SampledUtilization*>(rec.utilization.get());
      CL_CHECK_MSG(sampled != nullptr,
                   "checkpoint vm carries a non-sampled model");
      const TimeGrid& cells = sampled->grid();
      CL_CHECK_MSG(cells.count <= grid_.count - window_start_tick_,
                   "checkpoint vm samples overrun the grid");
      st.samples = std::make_shared<std::vector<double>>(grid_.count, 0.0);
      sampled->sample(cells, std::span<double>(*st.samples)
                                 .subspan(window_start_tick_, cells.count));
      // The exact first-sample time is not recorded; anything before the
      // restored cutoff keeps the model included, matching pre-checkpoint
      // state.
      st.first_sample = std::numeric_limits<SimTime>::min();
    }
    st.rec.utilization = nullptr;
    vms_.emplace(ids[i], std::move(st));
  }
  // Resume exactly at the checkpoint's cutoff: events with t >= cutoff
  // replay on top.
  watermark_ = epoch >= win.count
                   ? win.end()
                   : win.start + static_cast<SimTime>(epoch) * win.step;
}

}  // namespace cloudlens::serve
