#include "pipeline/run_plan.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "analysis/context.h"
#include "cloudsim/population.h"
#include "cloudsim/snapshot.h"
#include "common/check.h"
#include "ingest/backend.h"
#include "stats/kernels/dispatch.h"
#include "workloads/pattern_snapshot.h"
#include "workloads/profiles.h"

namespace cloudlens::pipeline {
namespace {

/// The panel stage's artifact: a view into the trace stage's TraceStore
/// (the panel lives inside it, built or adopted by this stage).
struct PanelArtifact {
  const TelemetryPanel* panel = nullptr;
};

/// The pop-shards stage's artifact: a view into the TraceStore's
/// population shard store.
struct PopulationArtifact {
  const PopulationShardStore* shards = nullptr;
};

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

PopulationShardingOptions streaming_population_options(std::uint32_t shards,
                                                       std::size_t budget_mib);

Stage make_trace_stage(const RunPlanOptions& options) {
  Stage stage;
  stage.name = "trace";
  // Record-sharded runs without a cache stream the records straight into
  // the shards as they are generated/imported — the resident vector never
  // materializes. With a cache the trace stage must stay a saveable
  // resident snapshot, so the pop-shards stage converts it instead
  // (warm-reusing spill files via the router digest).
  const bool cache_effective =
      options.cache_enabled && !options.cache_dir.empty();
  const bool stream_records = options.record_shards > 0 && !cache_effective;
  const std::uint32_t record_shards = options.record_shards;
  const std::size_t budget_mib = options.shard_budget_mib;

  if (options.trace_dir.empty()) {
    workloads::ScenarioOptions scenario = options.scenario;
    scenario.parallel = options.parallel;
    stage.key_extra = [scenario](ContentHash& h) {
      h.str("generated");
      h.u8(1);  // key layout version for this stage
      std::string config;
      scenario.private_profile.append_config_bytes(config);
      scenario.public_profile.append_config_bytes(config);
      h.str(config);
      h.u64(scenario.seed);
      h.f64(scenario.scale);
      h.i64(scenario.horizon);
    };
    stage.compute = [scenario, stream_records, record_shards,
                     budget_mib](const StageInputs&) {
      workloads::ScenarioOptions run = scenario;
      PopulationShardingOptions po;
      if (stream_records) {
        po = streaming_population_options(record_shards, budget_mib);
        run.population_sharding = &po;
      }
      auto result = workloads::make_scenario(run);
      auto artifact = std::make_shared<TraceArtifact>();
      artifact->topology = std::move(result.topology);
      artifact->trace = std::move(result.trace);
      return artifact;
    };
  } else {
    const std::string dir = options.trace_dir;
    const TimeGrid grid = options.csv_grid;
    const ingest::IngestBackend* backend =
        ingest::find_backend(options.trace_backend);
    CL_CHECK_MSG(backend != nullptr,
                 "unknown ingest backend: " << options.trace_backend);
    const bool default_backend = backend == &ingest::cloudlens_backend();
    stage.key_extra = [dir, grid, backend, default_backend](ContentHash& h) {
      h.str("csv");
      h.u8(1);
      // The default (cloudlens) backend keeps the pre-backend key layout
      // byte-for-byte, so caches populated before backends existed still
      // hit. Other backends mix in their name first — a different decoder
      // over the same bytes is a different artifact.
      if (!default_backend) {
        h.str("backend");
        h.str(backend->name());
      }
      for (const std::string& name : backend->input_files()) {
        h.str(name);
        hash_file(h, dir + "/" + name);
      }
      h.grid(grid);
    };
    stage.compute = [dir, grid, backend, stream_records, record_shards,
                     budget_mib](const StageInputs& inputs) {
      ingest::IngestOptions ingest_options;
      ingest_options.grid = grid;
      ingest_options.parallel = inputs.parallel();
      ingest_options.metrics = &inputs.metrics();
      ingest_options.sink = &inputs.trace_sink();
      PopulationShardingOptions po;
      if (stream_records) {
        po = streaming_population_options(record_shards, budget_mib);
        ingest_options.population_sharding = &po;
      }
      ingest::IngestResult imported =
          backend->import_dir(dir, ingest_options);
      auto artifact = std::make_shared<TraceArtifact>();
      artifact->topology = std::move(imported.topology);
      artifact->trace = std::move(imported.trace);
      artifact->ingest = std::move(imported.report);
      return artifact;
    };
  }

  stage.save = [](const std::shared_ptr<void>& artifact,
                  const StageInputs&, std::ostream& out) {
    const auto& trace = *std::static_pointer_cast<TraceArtifact>(artifact);
    save_trace_snapshot(*trace.topology, *trace.trace, out,
                        &workloads::pattern_snapshot_codec());
  };
  stage.load = [](const StageInputs&, std::istream& in) {
    LoadedSnapshot loaded =
        load_trace_snapshot(in, &workloads::pattern_snapshot_codec());
    auto artifact = std::make_shared<TraceArtifact>();
    artifact->topology = std::move(loaded.topology);
    artifact->trace = std::move(loaded.trace);
    return artifact;
  };
  return stage;
}

Stage make_panel_stage() {
  Stage stage;
  stage.name = "panel";
  stage.inputs = {"trace"};
  // No key_extra: the panel is a pure function of the trace and its grid,
  // both already covered by the trace stage's key.
  stage.compute = [](const StageInputs& inputs) {
    const auto trace = inputs.get<TraceArtifact>("trace");
    return std::make_shared<PanelArtifact>(
        PanelArtifact{trace->trace->build_telemetry_panel(inputs.parallel())});
  };
  stage.save = [](const std::shared_ptr<void>& artifact, const StageInputs&,
                  std::ostream& out) {
    save_panel_snapshot(
        *std::static_pointer_cast<PanelArtifact>(artifact)->panel, out);
  };
  stage.load = [](const StageInputs& inputs, std::istream& in) {
    const auto trace = inputs.get<TraceArtifact>("trace");
    std::unique_ptr<TelemetryPanel> panel = load_panel_snapshot(in);
    CL_CHECK_MSG(trace->trace->adopt_telemetry_panel(std::move(panel)),
                 "cached panel does not match the trace");
    return std::make_shared<PanelArtifact>(
        PanelArtifact{trace->trace->telemetry_panel()});
  };
  return stage;
}

/// Spill directory for the shard files. With caching on, the directory is
/// named by the *trace stage's content key*, which covers everything that
/// can change shard bytes (profiles, seed, scale, grid, CSV bytes) —
/// including model internals the router digest deliberately leaves out —
/// so warm reuse across runs is sound, and the files are kept. With
/// caching off, every spill gets its own temp directory (pid plus a
/// process-wide sequence, so runs alive together in one process never
/// share files), removed with the store.
std::string shard_spill_dir(bool cache_enabled, const std::string& cache_dir,
                            const std::string& trace_key_hex) {
  if (cache_enabled && !trace_key_hex.empty()) {
    return (std::filesystem::path(cache_dir) / ("pop-shards-" + trace_key_hex))
        .string();
  }
  static std::atomic<std::uint64_t> sequence{0};
  std::string pid = "0";
#if defined(__unix__) || defined(__APPLE__)
  pid = std::to_string(static_cast<unsigned long>(::getpid()));
#endif
  return (std::filesystem::temp_directory_path() /
          ("cloudlens-pop-shards-" + pid + "-" +
           std::to_string(sequence.fetch_add(1, std::memory_order_relaxed))))
      .string();
}

/// Streaming spill options for record-sharded runs with caching off: the
/// records route straight to shard logs in a temp dir of their own during
/// generation/import, and the files and the dir are removed with the store.
PopulationShardingOptions streaming_population_options(
    std::uint32_t shards, std::size_t budget_mib) {
  PopulationShardingOptions po;
  po.shards = shards;
  po.budget_bytes = budget_mib << 20;
  po.spill_dir = shard_spill_dir(false, "", "");
  po.keep_files = false;
  po.model_codec = &workloads::pattern_snapshot_codec();
  return po;
}

/// The out-of-core population stage: only K reaches the key; the budget
/// is execution environment. Uncacheable as a pipeline artifact on purpose — the spill files are
/// the persistent form, revalidated against the population router digest
/// in their headers on warm adoption. When the trace stage already
/// streamed the records into shards (cache off), this stage is just the
/// published view.
Stage make_population_stage(const RunPlanOptions& options,
                            PipelineRunner* runner) {
  Stage stage;
  stage.name = "pop-shards";
  stage.inputs = {"trace"};
  const std::uint32_t shards = options.record_shards;
  stage.key_extra = [shards](ContentHash& h) {
    h.u8(1);  // key layout version for this stage
    h.u64(shards);
    // The residency budget never reaches the key: like thread counts, it
    // changes how the run executes, not what the artifacts contain.
  };
  const bool cache_enabled =
      options.cache_enabled && !options.cache_dir.empty();
  const std::string cache_dir = options.cache_dir;
  const std::size_t budget_mib = options.shard_budget_mib;
  stage.compute = [shards, cache_enabled, cache_dir, budget_mib,
                   runner](const StageInputs& inputs) {
    const auto trace = inputs.get<TraceArtifact>("trace");
    if (!trace->trace->population_sharded()) {
      PopulationShardingOptions po;
      po.shards = shards;
      po.budget_bytes = budget_mib << 20;
      po.spill_dir = shard_spill_dir(cache_enabled, cache_dir,
                                     runner->key_hex("trace"));
      po.keep_files = cache_enabled;
      po.model_codec = &workloads::pattern_snapshot_codec();
      trace->trace->set_population_sharding(po);
    }
    const PopulationShardStore* store = trace->trace->population_shards();
    CL_CHECK_MSG(store != nullptr,
                 "pop-shards stage failed to build the store");
    return std::make_shared<PopulationArtifact>(PopulationArtifact{store});
  };
  return stage;
}

Stage make_kb_stage(const RunPlanOptions& options) {
  Stage stage;
  stage.name = "kb";
  stage.inputs = {"trace"};
  const kb::ExtractorOptions ex = options.kb_options;
  stage.key_extra = [ex](ContentHash& h) {
    h.u8(1);  // key layout version for this stage
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
    // Kernel dispatch: strict mode is bit-identical at every tier, so
    // strict keys stay exactly as before (existing caches keep hitting).
    // Fast mode reassociates the Pearson reduction, so its artifacts are
    // (mode, tier)-specific and must not share cache entries with strict
    // runs or with other tiers.
    const auto kc = stats::kernels::active();
    if (kc.mode == stats::kernels::Mode::kFast) {
      h.str("kernels-fast");
      h.u8(static_cast<std::uint8_t>(kc.tier));
    }
  };
  stage.compute = [ex](const StageInputs& inputs) {
    const auto trace = inputs.get<TraceArtifact>("trace");
    const AnalysisContext ctx(*trace->trace, inputs.parallel(),
                              &inputs.metrics(), &inputs.trace_sink());
    return std::make_shared<kb::KnowledgeBase>(kb::extract_all(ctx, ex));
  };
  stage.save = [](const std::shared_ptr<void>& artifact, const StageInputs&,
                  std::ostream& out) {
    out << std::static_pointer_cast<kb::KnowledgeBase>(artifact)->to_csv();
  };
  stage.load = [](const StageInputs&, std::istream& in) {
    const std::string csv{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
    return std::make_shared<kb::KnowledgeBase>(
        kb::KnowledgeBase::from_csv(csv));
  };
  return stage;
}

}  // namespace

ResolvedRun run_trace_plan(const RunPlanOptions& options) {
  PipelineRunner runner(
      ArtifactCache(options.cache_dir, options.cache_enabled),
      options.parallel, options.metrics, options.sink);
  const bool record_sharded = options.record_shards > 0;
  runner.add(make_trace_stage(options));
  if (record_sharded) {
    runner.add(make_population_stage(options, &runner));
  } else if (options.want_panel) {
    runner.add(make_panel_stage());
  }
  if (options.want_kb) runner.add(make_kb_stage(options));

  ResolvedRun run;
  run.trace = runner.resolve_as<TraceArtifact>("trace");
  // Out-of-core mode replaces the resident panel: its stage must resolve
  // before kb so extraction streams over the spill files.
  if (record_sharded) {
    runner.resolve("pop-shards");
  } else if (options.want_panel) {
    runner.resolve("panel");
  }
  if (options.want_kb) {
    run.knowledge = runner.resolve_as<kb::KnowledgeBase>("kb");
  }
  run.reports = runner.reports();
  return run;
}

}  // namespace cloudlens::pipeline
