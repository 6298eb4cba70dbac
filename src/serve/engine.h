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
// fully complete), materialized as a TraceStore with the same placeholder
// subscription/service semantics as the CSV importer and full-window
// SampledUtilization models whose not-yet-streamed cells read 0.0 —
// byte-for-byte what import_trace would build from CSVs holding the same
// prefix of rows. Consequently, once the stream is fully ingested, every
// query byte-matches the batch pipeline over the same data, at any thread
// count (serve_equivalence_test pins this).
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
// model is a zero-copy window over the VM's live sample buffer that reads
// 0.0 at every tick at or past the snapshot epoch. That is safe because
// stream timestamps are non-decreasing: a cell can only be written while
// its tick is incomplete, i.e. at or past the epoch, so no snapshot ever
// reads a cell the ingester may still write. Snapshots and per-(epoch,
// query) results are cached, so repeated queries at an unchanged epoch
// are reuses, not recomputations. Queries serialize among themselves but
// never block ingestion for longer than the snapshot build.
//
// ## Incremental knowledge base
//
// KB records are cached per subscription with a dirty generation bumped
// by every event touching the subscription; a query re-extracts only
// dirty subscriptions, plus those touched at or past the snapshot's
// cutoff, whose events the snapshot cannot see yet and which therefore
// never enter the cache (serve.kb_records_{reused,recomputed} count the
// split). Reuse is byte-safe because extraction is a pure function of the
// subscription's VM rows and sample cells, and the snapshot grid is the
// whole window at every epoch.
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
#include <unordered_map>
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
  /// Classifier sample cap for the shares query (matches the insight
  /// default so serve shares line up with batch evaluate_insights).
  std::size_t classify_max_vms = 800;
  /// Analysis knobs for report/insights queries.
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
  /// blank lines are ignored). Throws CheckError on malformed input or a
  /// timestamp regression. Safe to call while queries run.
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
  ///   kb                current-window knowledge base CSV (incremental)
  ///   kb-longterm       rolled long-term KB blended with current window
  ///   stats             ingest progress counters
  ///   checkpoint        write a snapshot file; returns its path
  /// Unknown kinds throw CheckError.
  std::string query(const std::string& what);

  /// The current epoch's immutable snapshot trace (shared with any
  /// concurrent queries). Never returns null; the trace holds no
  /// telemetry panel (analyses use on-demand rows — identical bits).
  std::shared_ptr<const TraceStore> snapshot_trace();

  /// Current-window KB records via the incremental per-subscription cache.
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
  void apply_vm_line(const std::vector<std::string>& f, SimTime t);
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
  void touch_subscription(std::uint32_t sub, SimTime t);
  std::shared_ptr<Snapshot> snapshot_locked();
  std::shared_ptr<Snapshot> current_snapshot();
  std::vector<kb::SubscriptionKnowledge> knowledge_records(
      const Snapshot& snap);

  ServeOptions options_;
  obs::MetricsRegistry* metrics_;

  mutable std::mutex mu_;           // engine state below
  std::vector<std::string> topo_rows_;
  std::shared_ptr<const Topology> topology_;
  TimeGrid grid_{};                 // full stream grid (count 0 = unset)
  bool header_seen_ = false;
  SimTime watermark_;
  std::uint64_t events_ = 0;
  std::uint64_t rolls_ = 0;
  std::size_t window_start_tick_ = 0;
  /// Resident VMs keyed by original stream id (ascending iteration order
  /// gives the importer's row order).
  std::map<std::uint32_t, VmState> vms_;
  /// Per-subscription dirty generation and time of the newest touching
  /// event (both grow with the id universe).
  std::vector<std::uint64_t> sub_generation_;
  std::vector<SimTime> sub_touched_at_;
  kb::KnowledgeBase long_term_;
  std::shared_ptr<Snapshot> cached_snapshot_;

  std::mutex query_mu_;             // serializes query-side caches
  struct KbCacheEntry {
    kb::SubscriptionKnowledge record;
    std::uint64_t generation = 0;
    bool has_record = false;        // extraction returned a record
  };
  std::unordered_map<std::uint32_t, KbCacheEntry> kb_cache_;
  std::uint64_t checkpoints_ = 0;
};

}  // namespace cloudlens::serve
