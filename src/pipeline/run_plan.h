// The CLI's shared run plan: one straight line with two cached artifacts.
//
// Every cloudlens command needs some prefix of the same line:
//
//   trace   Topology + TraceStore (cached). Two source modes:
//             generated — make_scenario(seed, scale, horizon, profiles);
//               keyed by the profiles' canonical config bytes
//               (CloudProfile::append_config_bytes) + seed + scale +
//               horizon. Cached as a binary snapshot whose parametric
//               models round-trip exactly, so a cache hit reproduces
//               generation bit-for-bit.
//             csv — an ingest backend (ingest/backend.h) decodes the
//               backend's input files from `trace_dir`; keyed by the
//               backend name + the raw bytes of those files (editing any
//               row is a new key) + the telemetry grid.
//           An out-of-core run (record_shards > 0) streams the records
//           into population shards in a temp spill dir of its own from
//           whichever producer resolves the trace: a hit stream-loads
//           the stored snapshot; a miss streams from the generator or
//           backend and stores no trace, since the run never holds a
//           resident one. Spill files are never cached.
//   panel   the in-memory TelemetryPanel of a resident run that asked for
//           one (want_panel), built by TraceStore::build_telemetry_panel
//           once the trace resolves (never cached). It is a pure function
//           of the trace, so it is rebuilt rather than stored.
//   kb      SubscriptionKnowledge records (cached), keyed by the trace key
//           and every ExtractorOptions field; stored exactly as a CLSN
//           container (kb/store.h).
//
// Cache keys:
//
//   key(stage) = H(key-derivation version, snapshot format version, stage
//                  name, the trace key (kb only), the stage's own bytes)
//
//   * Everything that can change the artifact's *content* must reach the
//     key (profile bytes, seed, scale, horizon, grid, options).
//   * Nothing that cannot change content may reach it: thread counts,
//     shard budgets, observability switches, output paths. A warm cache
//     must hit across `--threads 1` and `--threads 8` precisely because
//     results are bit-identical at any thread count.
//   * Format evolution is handled by versioning, not invalidation: a new
//     kSnapshotFormatVersion, kPipelineKeyVersion or per-stage layout byte
//     shifts the keys, so old entries become unreachable rather than
//     misread.
//
// Observability: each step records `pipeline.stage_runs` +
// `pipeline.stage_seconds` (span "pipeline.<stage>"), and the cache path
// records hit/miss/store counters plus `pipeline.snapshot_io_seconds`
// (spans "pipeline.<stage>.load" / ".store") around artifact IO. Metrics
// are write-only; caching decisions never read them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloudsim/topology.h"
#include "cloudsim/trace.h"
#include "common/parallel.h"
#include "common/sim_time.h"
#include "ingest/backend.h"
#include "kb/extractor.h"
#include "kb/store.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "workloads/generator.h"

namespace cloudlens::pipeline {

/// Bump when the key-derivation scheme itself changes (what gets hashed,
/// or in what order) so stale cache entries become unreachable.
inline constexpr std::uint32_t kPipelineKeyVersion = 1;

struct RunPlanOptions {
  /// CSV mode when non-empty: import from this directory. Otherwise
  /// generated mode using `scenario`.
  std::string trace_dir;
  /// Ingest backend for CSV mode: "cloudlens" (default), "azure", or
  /// "google" (see ingest/backend.h). The backend name and its input
  /// files' raw bytes form the trace stage's cache key — except for the
  /// default backend, whose key layout predates backends and is kept
  /// byte-identical so existing caches stay warm.
  std::string trace_backend;
  /// Generated-mode scenario (its `parallel` member is ignored in favour
  /// of `parallel` below, which is also what keeps threads out of keys).
  workloads::ScenarioOptions scenario;
  /// CSV-mode telemetry grid (generated mode derives its own from the
  /// scenario horizon).
  TimeGrid csv_grid = week_telemetry_grid();

  /// Build the telemetry panel (the VM × tick matrix) in memory once the
  /// trace resolves; resident runs only. Without it analyses compute rows
  /// on demand (identical bits). Commands that read few rows turn it off.
  bool want_panel = true;
  /// The one out-of-core mode: when > 0 the trace runs population-sharded
  /// (cloudsim/population.h) with this many record shards. The records
  /// stream straight into the shards from the producer — the generator,
  /// the backend, or the cached snapshot on a hit — so the resident
  /// record vector never materializes, and a miss stores no trace. A
  /// record-sharded run builds no panel: telemetry rows are computed from
  /// the models on demand. Outputs are byte-identical to a resident run.
  std::uint32_t record_shards = 0;
  /// Residency budget for the decoded population shards, in MiB. Like
  /// thread counts it is execution environment, never part of a cache key.
  std::size_t shard_budget_mib = 256;
  /// Resolve the kb stage.
  bool want_kb = false;
  kb::ExtractorOptions kb_options;

  /// Artifact cache root; empty disables caching (as does enabled=false,
  /// the CLI's --no-cache).
  std::string cache_dir;
  bool cache_enabled = true;

  ParallelConfig parallel;
  obs::MetricsRegistry* metrics = nullptr;  ///< null = process-global
  obs::TraceSink* sink = nullptr;           ///< null = process-global
};

/// The trace stage's artifact. Mutable TraceStore so the run can build the
/// panel into it.
struct TraceArtifact {
  std::unique_ptr<Topology> topology;
  std::unique_ptr<TraceStore> trace;
  /// What the import saw (CSV mode, cache miss only — a warm hit loads
  /// the snapshot without re-decoding, so `ingest.rows == 0` then).
  ingest::IngestReport ingest;
};

/// What one run did for one reported step (trace, kb), for the CLI's
/// per-stage table and the pipeline tests. The in-memory panel is never
/// cached and has no report.
struct StageReport {
  enum class Source {
    kComputed,           ///< computed; not stored (caching off, or a
                         ///< record-sharded trace miss)
    kCacheHit,           ///< loaded the cached artifact
    kComputedAndStored,  ///< computed and published to the cache
  };
  std::string name;
  Source source = Source::kComputed;
  /// Wall time of the step (load or compute+store).
  double millis = 0.0;
  /// Content key looked up; empty when caching is off.
  std::string key_hex;
  /// Serialized artifact size (0 when not cached).
  std::uint64_t artifact_bytes = 0;
};

const char* to_string(StageReport::Source source);

/// Render the per-stage hit/miss + timing table the CLI prints after a
/// run.
std::string render_stage_table(const std::vector<StageReport>& reports);

struct ResolvedRun {
  std::shared_ptr<TraceArtifact> trace;
  /// Non-null iff want_kb.
  std::shared_ptr<const kb::KnowledgeBase> knowledge;
  /// One entry per reported step, in run order.
  std::vector<StageReport> reports;
};

/// Run the line for `options`: resolve the trace (resident or streamed
/// into record shards), then the panel, then the kb, and return them with
/// the step reports.
ResolvedRun run_trace_plan(const RunPlanOptions& options);

}  // namespace cloudlens::pipeline
