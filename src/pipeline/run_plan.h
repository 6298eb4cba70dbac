// The CLI's shared run plan: trace -> panel -> kb as pipeline stages.
//
// Every cloudlens command needs some prefix of the same three artifacts:
//
//   trace   Topology + TraceStore. Two source modes:
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
//   panel   The materialized TelemetryPanel for the trace (input: trace),
//           built by TraceStore::build_telemetry_panel — the only place a
//           run builds one. Cached as a GRID+PANEL snapshot and adopted
//           back into the TraceStore on a hit, so warm analysis commands
//           skip the panel build entirely.
//   kb      SubscriptionKnowledge records (input: trace), keyed by every
//           ExtractorOptions field; cached as the kb CSV.
//
// Thread counts, metrics, and cache location are execution environment,
// not identity: none of them reach any key (results are bit-identical at
// any thread count, so a warm cache must hit across --threads values).
#pragma once

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
#include "pipeline/pipeline.h"
#include "workloads/generator.h"

namespace cloudlens::pipeline {

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

  /// Resolve the panel stage (materialized telemetry matrices). Without
  /// it the trace holds no panel and analyses compute rows on demand
  /// (identical bits).
  bool want_panel = true;
  /// The one out-of-core mode: when > 0 the trace runs population-sharded
  /// (cloudsim/population.h) with this many record shards. With caching
  /// enabled the trace stage stays a cached resident snapshot and a
  /// "pop-shards" stage converts it (warm-reusing spill files via the
  /// router digest); with caching disabled the records stream straight
  /// into the shards during generation/import and the resident record
  /// vector never materializes. A record-sharded run has no panel stage:
  /// telemetry rows are computed from the models on demand. Outputs are
  /// byte-identical either way; only K reaches the stage key.
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

/// The trace stage's artifact. Mutable TraceStore so the panel stage can
/// build the panel into it or adopt cached matrices.
struct TraceArtifact {
  std::unique_ptr<Topology> topology;
  std::unique_ptr<TraceStore> trace;
  /// What the import saw (CSV mode, cache miss only — a warm hit loads
  /// the snapshot without re-decoding, so `ingest.rows == 0` then).
  ingest::IngestReport ingest;
};

struct ResolvedRun {
  std::shared_ptr<TraceArtifact> trace;
  /// Non-null iff want_kb.
  std::shared_ptr<const kb::KnowledgeBase> knowledge;
  std::vector<StageReport> reports;
};

/// Build the stage graph for `options`, resolve the requested artifacts,
/// and return them with the per-stage reports.
ResolvedRun run_trace_plan(const RunPlanOptions& options);

}  // namespace cloudlens::pipeline
