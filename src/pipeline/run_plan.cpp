#include "pipeline/run_plan.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "analysis/context.h"
#include "cloudsim/population.h"
#include "cloudsim/snapshot.h"
#include "common/check.h"
#include "common/table.h"
#include "ingest/backend.h"
#include "obs/phase_timer.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/content_hash.h"
#include "workloads/pattern_snapshot.h"
#include "workloads/profiles.h"

namespace cloudlens::pipeline {
namespace {

/// Where one run caches, counts and reports its steps.
struct Line {
  ArtifactCache cache;
  obs::MetricsRegistry* metrics;
  obs::TraceSink* sink;
  std::vector<StageReport>* reports;
};

/// Times one step under its "pipeline.<name>" phase and appends its
/// report; `body` fills the report's source and bytes.
template <typename Body>
void timed_step(const Line& line, const std::string& name,
                const std::string& key_hex, Body&& body) {
  StageReport report;
  report.name = name;
  report.key_hex = key_hex;
  const auto t0 = std::chrono::steady_clock::now();
  {
    obs::PhaseTimer phase("pipeline." + name,
                          obs::Histogram::kPipelineStageSeconds,
                          obs::Counter::kPipelineStageRuns, line.metrics,
                          line.sink);
    body(report);
  }
  report.millis = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  line.reports->push_back(std::move(report));
}

/// The one cache path: loads the artifact stored under (name, key_hex)
/// when there is one, else computes it and, when `key_hex` is non-empty
/// and `store` holds, stores it. An empty key (caching off) just
/// computes. Appends the step's report either way.
template <typename T, typename Compute, typename Save, typename Load>
std::shared_ptr<T> cached_step(const Line& line, const std::string& name,
                               const std::string& key_hex, bool store,
                               Compute&& compute, Save&& save, Load&& load) {
  std::shared_ptr<T> artifact;
  timed_step(line, name, key_hex, [&](StageReport& report) {
    if (key_hex.empty()) {
      artifact = compute();
      return;
    }
    const std::uint64_t size = line.cache.lookup_size(name, key_hex);
    if (size > 0) {
      obs::PhaseTimer io("pipeline." + name + ".load",
                         obs::Histogram::kPipelineSnapshotIoSeconds,
                         obs::Counter::kPipelineCacheHits, line.metrics,
                         line.sink);
      std::ifstream in(line.cache.path_for(name, key_hex), std::ios::binary);
      CL_CHECK_MSG(in.good(), "cannot open cached artifact");
      artifact = load(in);
      report.source = StageReport::Source::kCacheHit;
      report.artifact_bytes = size;
      line.metrics->add(obs::Counter::kPipelineCacheBytesRead, size);
      return;
    }
    line.metrics->add(obs::Counter::kPipelineCacheMisses);
    artifact = compute();
    if (!store) return;
    obs::PhaseTimer io("pipeline." + name + ".store",
                       obs::Histogram::kPipelineSnapshotIoSeconds,
                       obs::Counter::kPipelineCacheStores, line.metrics,
                       line.sink);
    const std::uint64_t bytes = line.cache.store(
        name, key_hex, [&](std::ostream& out) { save(*artifact, out); });
    if (bytes > 0) {
      report.source = StageReport::Source::kComputedAndStored;
      report.artifact_bytes = bytes;
      line.metrics->add(obs::Counter::kPipelineCacheBytesWritten, bytes);
    }
  });
  return artifact;
}

/// The key prefix every stage shares: versions, then the stage name.
ContentHash stage_hash(const char* name) {
  ContentHash h;
  h.u32(kPipelineKeyVersion);
  h.u32(kSnapshotFormatVersion);
  h.str(name);
  return h;
}

/// Stream a file's bytes into the hash (length first, so consecutive
/// files cannot collide by shifting bytes across the boundary). Absent
/// files hash as a marker — "no utilization.csv" is a distinct identity.
void hash_file(ContentHash& h, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    h.str("absent");
    return;
  }
  h.str("present");
  char buffer[1 << 16];
  std::uint64_t total = 0;
  while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
    const std::streamsize n = in.gcount();
    h.bytes(buffer, static_cast<std::size_t>(n));
    total += static_cast<std::uint64_t>(n);
    if (in.eof()) break;
  }
  h.u64(total);
}

const ingest::IngestBackend& csv_backend(const RunPlanOptions& options) {
  const ingest::IngestBackend* backend =
      ingest::find_backend(options.trace_backend);
  CL_CHECK_MSG(backend != nullptr,
               "unknown ingest backend: " << options.trace_backend);
  return *backend;
}

std::string trace_key(const RunPlanOptions& options) {
  ContentHash h = stage_hash("trace");
  if (options.trace_dir.empty()) {
    const workloads::ScenarioOptions& scenario = options.scenario;
    h.str("generated");
    h.u8(1);  // key layout version for this stage
    std::string config;
    scenario.private_profile.append_config_bytes(config);
    scenario.public_profile.append_config_bytes(config);
    h.str(config);
    h.u64(scenario.seed);
    h.f64(scenario.scale);
    h.i64(scenario.horizon);
    return h.hex();
  }
  const ingest::IngestBackend& backend = csv_backend(options);
  h.str("csv");
  h.u8(1);
  // The default (cloudlens) backend keeps the pre-backend key layout
  // byte-for-byte, so caches populated before backends existed still hit.
  // Other backends mix in their name first — a different decoder over the
  // same bytes is a different artifact.
  if (&backend != &ingest::cloudlens_backend()) {
    h.str("backend");
    h.str(backend.name());
  }
  for (const std::string& name : backend.input_files()) {
    h.str(name);
    hash_file(h, options.trace_dir + "/" + name);
  }
  h.grid(options.csv_grid);
  return h.hex();
}

std::string kb_key(const std::string& trace_key_hex,
                   const kb::ExtractorOptions& ex) {
  ContentHash h = stage_hash("kb");
  h.str(trace_key_hex);
  // Key layout version for this stage. 2: the artifact is the exact CLSN
  // container; layout 1 entries held the 4-decimal CSV and are never read.
  h.u8(2);
  h.u64(ex.max_classified_vms);
  h.u64(ex.max_vms_per_region);
  h.i64(ex.short_lifetime_edge);
  h.f64(ex.region_agnostic_correlation);
  h.f64(ex.classifier.stable_stddev_max);
  h.f64(ex.classifier.hourly_score_min);
  h.f64(ex.classifier.diurnal_score_min);
  h.f64(ex.spot_short_share_min);
  h.u64(ex.spot_min_ended_vms);
  h.f64(ex.oversub_p95_max);
  h.f64(ex.deferral_peak_to_mean_min);
  return h.hex();
}

/// Record-shard options for one run: the shard count, the residency
/// budget, and a temp spill directory of its own (pid plus a process-wide
/// sequence, so runs alive together in one process never share files),
/// which the store removes with its files.
PopulationShardingOptions population_options(const RunPlanOptions& options) {
  static std::atomic<std::uint64_t> sequence{0};
  std::string pid = "0";
#if defined(__unix__) || defined(__APPLE__)
  pid = std::to_string(static_cast<unsigned long>(::getpid()));
#endif
  PopulationShardingOptions po;
  po.shards = options.record_shards;
  po.budget_bytes = options.shard_budget_mib << 20;
  po.spill_dir =
      (std::filesystem::temp_directory_path() /
       ("cloudlens-record-shards-" + pid + "-" +
        std::to_string(sequence.fetch_add(1, std::memory_order_relaxed))))
          .string();
  po.model_codec = &workloads::pattern_snapshot_codec();
  return po;
}

/// Generate or import the trace. With `sharding` the records stream
/// straight into the shards as they are produced, so the resident vector
/// never materializes.
std::shared_ptr<TraceArtifact> compute_trace(
    const RunPlanOptions& options, const Line& line,
    const PopulationShardingOptions* sharding) {
  auto artifact = std::make_shared<TraceArtifact>();
  if (options.trace_dir.empty()) {
    workloads::ScenarioOptions run = options.scenario;
    run.parallel = options.parallel;
    run.population_sharding = sharding;
    auto result = workloads::make_scenario(run);
    artifact->topology = std::move(result.topology);
    artifact->trace = std::move(result.trace);
    return artifact;
  }
  ingest::IngestOptions ingest_options;
  ingest_options.grid = options.csv_grid;
  ingest_options.parallel = options.parallel;
  ingest_options.metrics = line.metrics;
  ingest_options.sink = line.sink;
  ingest_options.population_sharding = sharding;
  ingest::IngestResult imported =
      csv_backend(options).import_dir(options.trace_dir, ingest_options);
  artifact->topology = std::move(imported.topology);
  artifact->trace = std::move(imported.trace);
  artifact->ingest = std::move(imported.report);
  return artifact;
}

}  // namespace

const char* to_string(StageReport::Source source) {
  switch (source) {
    case StageReport::Source::kComputed:
      return "computed";
    case StageReport::Source::kCacheHit:
      return "hit";
    case StageReport::Source::kComputedAndStored:
      return "miss+stored";
  }
  return "?";
}

std::string render_stage_table(const std::vector<StageReport>& reports) {
  TextTable table({"stage", "source", "ms", "key", "bytes"});
  for (const StageReport& r : reports) {
    table.row()
        .add(r.name)
        .add(to_string(r.source))
        .add(r.millis, 1)
        .add(r.key_hex.empty() ? std::string("-")
                               : r.key_hex.substr(0, 12) + "..")
        .add(r.artifact_bytes);
  }
  std::ostringstream out;
  out << table;
  return out.str();
}

ResolvedRun run_trace_plan(const RunPlanOptions& options) {
  ResolvedRun run;
  const Line line{
      ArtifactCache(options.cache_dir, options.cache_enabled),
      options.metrics != nullptr ? options.metrics
                                 : &obs::MetricsRegistry::global(),
      options.sink != nullptr ? options.sink : &obs::TraceSink::global(),
      &run.reports};
  const bool cached = line.cache.enabled();
  const std::string trace_key_hex = cached ? trace_key(options) : "";

  // 1. The trace (cached). A record-sharded run streams whichever
  // producer resolves the trace into its own spill dir: a hit stream-loads
  // the stored snapshot, a miss streams from the generator or backend and
  // stores nothing, since the run never holds a resident trace to save.
  // Only the shard count reaches the shard files; the budget is execution
  // environment.
  const bool sharded = options.record_shards > 0;
  const PopulationShardingOptions sharding =
      sharded ? population_options(options) : PopulationShardingOptions{};
  const PopulationShardingOptions* spill = sharded ? &sharding : nullptr;
  run.trace = cached_step<TraceArtifact>(
      line, "trace", trace_key_hex, /*store=*/!sharded,
      [&] { return compute_trace(options, line, spill); },
      [](const TraceArtifact& trace, std::ostream& out) {
        save_trace_snapshot(*trace.topology, *trace.trace, out,
                            &workloads::pattern_snapshot_codec());
      },
      [&](std::istream& in) {
        LoadedSnapshot loaded = load_trace_snapshot(
            in, &workloads::pattern_snapshot_codec(), spill);
        auto artifact = std::make_shared<TraceArtifact>();
        artifact->topology = std::move(loaded.topology);
        artifact->trace = std::move(loaded.trace);
        return artifact;
      });
  TraceStore& trace = *run.trace->trace;

  // 2. The panel (never cached), for a resident run that asked for one.
  if (!sharded && options.want_panel) {
    const obs::PhaseTimer phase("pipeline.panel",
                                obs::Histogram::kPipelineStageSeconds,
                                obs::Counter::kPipelineStageRuns, line.metrics,
                                line.sink);
    trace.build_telemetry_panel(options.parallel);
  }

  // 3. The kb (cached).
  if (options.want_kb) {
    run.knowledge = cached_step<kb::KnowledgeBase>(
        line, "kb", cached ? kb_key(trace_key_hex, options.kb_options) : "",
        /*store=*/true,
        [&] {
          const AnalysisContext ctx(trace, options.parallel, line.metrics,
                                    line.sink);
          return std::make_shared<kb::KnowledgeBase>(
              kb::extract_all(ctx, options.kb_options));
        },
        [](const kb::KnowledgeBase& knowledge, std::ostream& out) {
          kb::save_kb_snapshot(knowledge, out);
        },
        [](std::istream& in) {
          return std::make_shared<kb::KnowledgeBase>(kb::load_kb_snapshot(in));
        });
  }
  return run;
}

}  // namespace cloudlens::pipeline
