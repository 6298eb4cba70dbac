// ServeEngine: streaming ingest + incremental analysis over a rolling
// telemetry window — the library behind `cloudlens serve`.
//
// The engine consumes the event stream of serve/stream.h one line at a
// time and keeps enough state — VM records, per-VM sample buffers, the
// current watermark — to answer every batch query (characterization
// report, insight verdicts, classifier shares, figure CSVs, knowledge
// base) at any moment during ingestion.
//
// ## Determinism contract
//
// Queries are answered against an immutable *snapshot* that is a pure
// function of (stream content, epoch), where the epoch is the number of
// completed telemetry ticks: tick i is complete once the watermark
// reaches grid.at(i+1)... conservatively, once an event with a strictly
// later timestamp has arrived. A snapshot at epoch E contains exactly the
// events with timestamp < grid.at(E) (every event, once the window is
// fully complete), materialized as a TraceStore with the CSV importer's
// placeholder subscription/service universe (ingest::PlaceholderUniverse)
// and full-window SampledUtilization models whose not-yet-streamed cells
// read 0.0 — byte-for-byte what import_trace would build from CSVs holding
// the same prefix of rows. Consequently, once the stream is fully
// ingested, every query byte-matches the batch pipeline over the same
// data, at any thread count (serve_equivalence_test pins this).
//
// ## Concurrency
//
// Ingestion mutates engine state under one mutex. A query at a new epoch
// builds the snapshot under that mutex as an ordinary resident
// TraceStore: services and subscriptions, then one add_vm per included
// VM, each record copied as of the cutoff. The trace holds no telemetry
// panel — analyses evaluate rows on demand, with the same bits. The
// snapshot is published as a shared_ptr and the analyses run outside any
// engine lock. Sample cells are not copied: each record's utilization
// model is a SampledUtilization window over the VM's live sample buffer,
// cut at the snapshot epoch so every tick at or past it reads 0.0 without
// touching the buffer. That is safe because stream timestamps are
// non-decreasing: a cell can only be written while its tick is
// incomplete, i.e. at or past the epoch, so no snapshot (nor a checkpoint
// of one) ever reads a cell the ingester may still write. Snapshots and
// per-(epoch, query) results are cached, so repeated queries at an
// unchanged epoch are reuses, not recomputations. Queries serialize among
// themselves but never block ingestion for longer than the snapshot
// build.
//
// ## Knowledge base
//
// The kb query runs the batch extractor, kb::extract_all, over the
// snapshot at the engine's ParallelConfig, so its records are the batch
// kb's by construction; like every query result, the rendered CSV is
// cached per snapshot.
//
// ## Rolling window
//
// With window_weeks > 0, the analysis window holds that many weeks of
// ticks. When the watermark crosses the window's end, the engine folds a
// full-window KB extraction into the long-term knowledge base
// (kb::fold_record's EWMA blend), advances the window by whole weeks, and
// evicts VMs that ended before the new window start (freeing their sample
// buffers — resident state is bounded by the window, not the stream).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/insights.h"
#include "common/parallel.h"
#include "common/sim_time.h"
#include "kb/extractor.h"
#include "kb/store.h"
#include "obs/metrics.h"

namespace cloudlens {
class Topology;
class TraceStore;
namespace ingest {
class CsvRow;
}
}  // namespace cloudlens

namespace cloudlens::serve {

struct ServeOptions {
  /// Rolling window width in whole weeks; 0 = never roll (the window is
  /// the stream's full grid).
  std::uint64_t window_weeks = 0;
  /// Parallelism for the analyses behind queries (results are
  /// bit-identical at any setting, as everywhere in cloudlens).
  ParallelConfig parallel;
  /// Metrics registry for serve.* instrumentation (null = process global).
  obs::MetricsRegistry* metrics = nullptr;
  /// Extractor knobs for the kb queries and window-roll folds.
  kb::ExtractorOptions kb_options;
  /// Analysis knobs for report/insights queries; the shares query takes
  /// its classifier sample cap (classify_max_vms) from here too, so serve
  /// shares line up with batch evaluate_insights.
  analysis::InsightOptions insights;
  /// Where `checkpoint()` writes snapshot files (empty = checkpointing
  /// disabled).
  std::string checkpoint_dir;
};

class ServeEngine {
 public:
  explicit ServeEngine(ServeOptions options = {});
  ~ServeEngine();
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  // --- ingest ------------------------------------------------------------

  /// Apply one stream line (header, grid, topo, vm, sample, del, end;
  /// blank lines are ignored). Fields parse with the CSV importer's strict
  /// parser. Throws CheckError on malformed input (naming the line's
  /// position among the lines handed to this engine, and the column) or
  /// a timestamp regression. Safe to call while queries run.
  void ingest_line(std::string_view line);

  /// Drain a whole stream; one serve.ingest_batch_seconds observation.
  void ingest(std::istream& in);

  // --- progress ----------------------------------------------------------

  std::uint64_t events_ingested() const;
  /// Completed ticks in the current window.
  std::size_t epoch() const;
  /// Largest event timestamp seen (kNoEnd sentinel never appears).
  SimTime watermark() const;
  /// Exclusive upper bound on event timestamps a snapshot at the current
  /// epoch includes.
  SimTime cutoff() const;
  std::size_t resident_vms() const;
  std::uint64_t window_rolls() const;

  // --- queries -----------------------------------------------------------

  /// Render one query against the current epoch's snapshot. Kinds:
  ///   report            markdown characterization report
  ///   insights          rendered four-insight verdicts
  ///   shares,<cloud>    classifier shares CSV for private|public
  ///   figures           every figure CSV, framed by "== name ==" lines
  ///   kb                current-window knowledge base CSV
  ///   kb-longterm       rolled long-term KB blended with current window
  ///   stats             ingest progress counters
  ///   checkpoint        write a snapshot file; returns its path
  /// Unknown kinds throw CheckError.
  std::string query(const std::string& what);

  /// The current epoch's immutable snapshot trace (shared with any
  /// concurrent queries). Never returns null; the trace holds no
  /// telemetry panel (analyses use on-demand rows — identical bits).
  std::shared_ptr<const TraceStore> snapshot_trace();

  /// Current-window KB: kb::extract_all over the current snapshot.
  kb::KnowledgeBase knowledge();

  /// Long-term KB: window-roll folds only (no current-window blend).
  kb::KnowledgeBase long_term_knowledge() const;

  // --- checkpoint / restore ----------------------------------------------

  /// Write the current snapshot as a binary trace snapshot plus a small
  /// .meta sidecar (epoch, window position, original VM ids) into
  /// checkpoint_dir. Returns the snapshot path.
  std::string checkpoint();

  /// Rebuild engine state from a checkpoint() artifact. Must be called
  /// before any ingest; continue feeding events with timestamp >= the
  /// checkpoint's cutoff.
  void restore_checkpoint(const std::string& path);

 private:
  struct VmState;
  struct Snapshot;

  // All pre-locked helpers expect mu_ held.
  /// Parses a `vm` line completely, then advances the watermark to its
  /// creation time and adds the VM.
  void apply_vm_line(const ingest::CsvRow& row);
  void advance_watermark(SimTime t);
  void maybe_roll_window();
  void finalize_topology();
  /// Parses the topo rows streamed so far into a Topology without
  /// latching them — queries may arrive mid-topology-section.
  std::shared_ptr<const Topology> parse_topology_locked() const;
  /// Expects query_mu_ held; takes mu_ internally for the state copy.
  std::string write_checkpoint();
  static std::string render_shares(CloudType cloud,
                                   const analysis::PatternShares& shares);
  std::size_t epoch_locked() const;
  SimTime cutoff_locked() const;
  TimeGrid window_grid_locked() const;
  std::shared_ptr<Snapshot> snapshot_locked();
  std::shared_ptr<Snapshot> current_snapshot();
  kb::KnowledgeBase window_knowledge(const Snapshot& snap) const;

  ServeOptions options_;
  obs::MetricsRegistry* metrics_;

  mutable std::mutex mu_;           // engine state below
  std::vector<std::string> topo_rows_;
  std::shared_ptr<const Topology> topology_;
  TimeGrid grid_{};                 // full stream grid (count 0 = unset)
  SimTime watermark_;
  std::uint64_t lines_ = 0;         // lines handed to ingest_line
  /// ingest_line's field buffer, reused across lines; its views point
  /// into the line being parsed and are read only during that call.
  std::vector<std::string_view> fields_;
  std::uint64_t events_ = 0;
  std::uint64_t rolls_ = 0;
  std::size_t window_start_tick_ = 0;
  /// Resident VMs keyed by original stream id (ascending iteration order
  /// gives the importer's row order).
  std::map<std::uint32_t, VmState> vms_;
  kb::KnowledgeBase long_term_;
  std::shared_ptr<Snapshot> cached_snapshot_;

  std::mutex query_mu_;             // serializes queries (result caches)
};

}  // namespace cloudlens::serve
