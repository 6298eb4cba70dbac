// Deterministic metrics substrate: counters, gauges, and fixed-bucket
// latency histograms behind one `MetricsRegistry`.
//
// Design constraints, in priority order:
//
//   1. *Enabling metrics never perturbs results.* Instrumentation is a
//      write-only side channel: no analysis code ever reads a metric, and
//      recording a sample allocates nothing and takes no lock on the hot
//      path. The deterministic parallel engine (common/parallel.h) stays
//      bit-identical with metrics on or off.
//   2. *Lock-free hot path.* Each thread records into its own shard (a
//      fixed-size block of relaxed atomics, claimed once per thread);
//      concurrent writers never contend on a cache line they both own.
//      Shards are merged in ascending shard-index order at snapshot time,
//      so a snapshot of deterministic inputs is itself deterministic:
//      counter and histogram-bucket merges are integer sums, and histogram
//      value sums are accumulated in integer nanoseconds — no
//      floating-point reassociation anywhere in the merge.
//   3. *Near-zero cost when disabled.* Every record call starts with one
//      relaxed load of the enabled flag; the default-off registry costs a
//      predicted-not-taken branch per call site.
//
// The metric catalog is compiled in (see the X-macro lists below): every
// instrumented subsystem — the thread pool, the simulator and allocator,
// the telemetry panel, the workload generator, the analysis passes, the
// knowledge extractor, and the policy advisor — records under a fixed
// dotted name, so consumers (`--metrics-out`, bench_obs, tests) can rely
// on a stable schema. Ids are plain enum values; recording is an array
// index plus one relaxed atomic RMW.
//
// A process-global registry (`MetricsRegistry::global()`) backs code that
// has no context parameter (the thread pool, the simulator); analysis
// entry points route through `AnalysisContext`, which defaults to the
// global registry but can be pointed at a private one (tests do this to
// assert exact counts in isolation).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace cloudlens::obs {

// ---------------------------------------------------------------------------
// Metric catalog. One X-macro list per metric kind keeps the enum and the
// exported name table in sync by construction.

// Counters: monotonically increasing event counts.
#define CLOUDLENS_OBS_COUNTERS(X)                              \
  /* common/parallel: the deterministic thread pool */         \
  X(kParallelBatches, "parallel.batches")                      \
  X(kParallelTasks, "parallel.tasks")                          \
  X(kParallelInlineBatches, "parallel.inline_batches")         \
  /* cloudsim/simulator: event replay */                       \
  X(kSimRuns, "sim.runs")                                      \
  X(kSimEvents, "sim.events")                                  \
  X(kSimRequested, "sim.requests")                             \
  X(kSimPlaced, "sim.placed")                                  \
  X(kSimAllocationFailures, "sim.allocation_failures")         \
  X(kSimOutageKills, "sim.outage_kills")                       \
  X(kSimResubmits, "sim.resubmits")                            \
  /* cloudsim/allocator: placement rule chain */               \
  X(kAllocAttempts, "alloc.attempts")                          \
  X(kAllocFailures, "alloc.failures")                          \
  X(kAllocReleases, "alloc.releases")                          \
  X(kAllocNodesScanned, "alloc.nodes_scanned")                 \
  /* cloudsim/telemetry_panel: columnar cache */               \
  X(kPanelBuilds, "panel.builds")                              \
  X(kPanelRowsFilled, "panel.rows_filled")                     \
  X(kPanelRowHits, "panel.row_hits")                           \
  X(kPanelRowMisses, "panel.row_misses")                       \
  /* cloudsim/population: out-of-core record shard store */    \
  X(kPopulationShardSpills, "population.shard_spills")         \
  X(kPopulationShardPageIns, "population.shard_page_ins")      \
  X(kPopulationShardEvictions, "population.shard_evictions")   \
  X(kPopulationShardRecordReads, "population.shard_record_reads") \
  /* workloads/generator */                                    \
  X(kGenRuns, "gen.runs")                                      \
  X(kGenOwners, "gen.owners")                                  \
  X(kGenRequests, "gen.requests")                              \
  X(kGenStandingRequests, "gen.standing_requests")             \
  X(kGenChurnRequests, "gen.churn_requests")                   \
  /* analysis passes */                                        \
  X(kAnalysisPasses, "analysis.passes")                        \
  X(kAnalysisVmsClassified, "analysis.vms_classified")         \
  X(kAnalysisCorrelations, "analysis.correlations")            \
  X(kAnalysisSeriesRolledUp, "analysis.series_rolled_up")      \
  X(kAnalysisReports, "analysis.reports")                      \
  /* kb extraction */                                          \
  X(kKbExtractions, "kb.extractions")                          \
  X(kKbRecords, "kb.records_extracted")                        \
  /* pipeline: run-plan steps + artifact cache */              \
  X(kPipelineStageRuns, "pipeline.stage_runs")                 \
  X(kPipelineCacheHits, "pipeline.cache_hits")                 \
  X(kPipelineCacheMisses, "pipeline.cache_misses")             \
  X(kPipelineCacheStores, "pipeline.cache_stores")             \
  X(kPipelineCacheBytesWritten, "pipeline.cache_bytes_written") \
  X(kPipelineCacheBytesRead, "pipeline.cache_bytes_read")      \
  /* stats/kernels: hot kernel families */                     \
  X(kKernelPearsonCalls, "kernels.pearson_calls")              \
  X(kKernelBandCalls, "kernels.band_calls")                    \
  X(kKernelFftStages, "kernels.fft_stages")                    \
  X(kKernelNoiseFills, "kernels.noise_fills")                  \
  /* cloudsim/trace_io: CSV bridge */                          \
  X(kTraceIoUtilizationVmsDropped, "trace_io.utilization_vms_dropped") \
  /* ingest: real-trace backends + chunked parallel CSV decode */ \
  X(kIngestImports, "ingest.imports")                          \
  X(kIngestFiles, "ingest.files")                              \
  X(kIngestBytes, "ingest.bytes_decoded")                      \
  X(kIngestRows, "ingest.rows_decoded")                        \
  X(kIngestChunks, "ingest.chunks_decoded")                    \
  X(kIngestRowsSkipped, "ingest.rows_skipped")                 \
  X(kIngestVms, "ingest.vms")                                  \
  X(kIngestSamples, "ingest.samples")                          \
  X(kIngestFidelityEvents, "ingest.fidelity_events")           \
  X(kIngestFidelityViolations, "ingest.fidelity_violations")   \
  /* serve: streaming ingest + incremental analysis engine */  \
  X(kServeEventsIngested, "serve.events_ingested")             \
  X(kServeVmsCreated, "serve.vms_created")                     \
  X(kServeVmsDeleted, "serve.vms_deleted")                     \
  X(kServeSamplesIngested, "serve.samples_ingested")           \
  X(kServeSnapshotsBuilt, "serve.snapshots_built")             \
  X(kServeSnapshotReuses, "serve.snapshot_reuses")             \
  X(kServeQueries, "serve.queries")                            \
  X(kServeWindowRolls, "serve.window_rolls")                   \
  X(kServeCheckpoints, "serve.checkpoints")                    \
  /* policies: advisor decisions and platform evaluations */   \
  X(kPolicyRecommendations, "policy.recommendations")          \
  X(kPolicySpot, "policy.spot_adoptions")                      \
  X(kPolicyOversub, "policy.oversubscriptions")                \
  X(kPolicyDeferral, "policy.deferrals")                       \
  X(kPolicyPreprovision, "policy.preprovisions")               \
  X(kPolicyRebalance, "policy.region_rebalances")              \
  X(kPolicyEvaluations, "policy.evaluations")

// Gauges: last-written (or max-tracked) instantaneous values.
#define CLOUDLENS_OBS_GAUGES(X)                                \
  X(kParallelPoolWorkers, "parallel.pool_workers")             \
  X(kPanelBytes, "panel.bytes")                                \
  X(kPanelVms, "panel.vms")                                    \
  X(kPopulationShardCount, "population.shard_count")           \
  X(kPopulationShardResidentBytes, "population.shard_resident_bytes") \
  /* kernel path: 0 scalar, 2 AVX2 (stats::kernels::Tier) */   \
  X(kKernelTier, "kernels.tier")                               \
  /* serve: instantaneous engine state */                      \
  X(kServeEpoch, "serve.epoch_ticks")                          \
  X(kServeIngestLagSeconds, "serve.ingest_lag_seconds")        \
  X(kServeVmsResident, "serve.vms_resident")

// Histograms: latency distributions over fixed power-of-two buckets.
#define CLOUDLENS_OBS_HISTOGRAMS(X)                            \
  X(kParallelWorkerBusySeconds, "parallel.worker_busy_seconds") \
  X(kPanelBuildSeconds, "panel.build_seconds")                 \
  X(kAnalysisPassSeconds, "analysis.pass_seconds")             \
  X(kSimRunSeconds, "sim.run_seconds")                         \
  X(kGenSeconds, "gen.generate_seconds")                       \
  X(kKbExtractSeconds, "kb.extract_seconds")                   \
  X(kReportSeconds, "analysis.report_seconds")                 \
  X(kPipelineStageSeconds, "pipeline.stage_seconds")           \
  X(kPipelineSnapshotIoSeconds, "pipeline.snapshot_io_seconds") \
  X(kKernelBandSeconds, "kernels.band_seconds")                \
  X(kIngestDecodeSeconds, "ingest.decode_seconds")             \
  X(kServeIngestBatchSeconds, "serve.ingest_batch_seconds")    \
  X(kServeSnapshotBuildSeconds, "serve.snapshot_build_seconds") \
  X(kServeQuerySeconds, "serve.query_seconds")                 \
  X(kPolicyEvaluateSeconds, "policy.evaluate_seconds")

enum class Counter : std::uint16_t {
#define CLOUDLENS_OBS_ENUM(id, name) id,
  CLOUDLENS_OBS_COUNTERS(CLOUDLENS_OBS_ENUM)
#undef CLOUDLENS_OBS_ENUM
      kCount
};

enum class Gauge : std::uint16_t {
#define CLOUDLENS_OBS_ENUM(id, name) id,
  CLOUDLENS_OBS_GAUGES(CLOUDLENS_OBS_ENUM)
#undef CLOUDLENS_OBS_ENUM
      kCount
};

enum class Histogram : std::uint16_t {
#define CLOUDLENS_OBS_ENUM(id, name) id,
  CLOUDLENS_OBS_HISTOGRAMS(CLOUDLENS_OBS_ENUM)
#undef CLOUDLENS_OBS_ENUM
      kCount
};

/// Exported dotted name of a metric (stable across runs and versions).
std::string_view name_of(Counter c);
std::string_view name_of(Gauge g);
std::string_view name_of(Histogram h);

/// Fixed histogram bucket grid: bucket i holds samples whose value (in
/// nanoseconds) is <= kBucketUpperNs[i]; the last bucket is unbounded.
/// Bounds are powers of two microseconds: 1us, 2us, 4us, ... ~67s, +inf.
inline constexpr std::size_t kHistogramBuckets = 28;

/// Upper bound (inclusive, nanoseconds) of bucket `i`; the last bucket
/// returns UINT64_MAX.
std::uint64_t histogram_bucket_upper_ns(std::size_t i);

/// Maximum per-thread shards a registry keeps. Threads beyond this share
/// shards (index wraps), which stays correct — every slot is atomic —
/// and only reduces the contention benefit.
inline constexpr std::size_t kMaxShards = 64;

/// Small dense per-thread index (stable for the thread's lifetime),
/// shared by the metrics shards and the trace sink's tid field.
std::size_t thread_index();

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide default registry (starts disabled).
  static MetricsRegistry& global();

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Zero every counter, gauge, and histogram (shards stay claimed).
  void reset();

  // --- hot-path recording (no-ops while disabled) ------------------------

  void add(Counter c, std::uint64_t delta = 1) {
    if (!enabled()) return;
    shard().counters[static_cast<std::size_t>(c)].fetch_add(
        delta, std::memory_order_relaxed);
  }

  /// Last write wins; typically set from one thread (sizes, capacities).
  void set(Gauge g, double value);

  /// Record one latency sample. Sub-nanosecond values land in bucket 0;
  /// negative values are clamped to 0.
  void observe_seconds(Histogram h, double seconds);

  // --- snapshot / export -------------------------------------------------

  struct HistogramSnapshot {
    std::string_view name;
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;  ///< exact integer sum of all samples
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    double sum_seconds() const { return double(sum_ns) * 1e-9; }
    double mean_seconds() const {
      return count ? sum_seconds() / double(count) : 0.0;
    }
  };

  struct Snapshot {
    std::vector<std::pair<std::string_view, std::uint64_t>> counters;
    std::vector<std::pair<std::string_view, double>> gauges;
    std::vector<HistogramSnapshot> histograms;

    /// Counter value by exported name (0 when absent/never incremented).
    std::uint64_t counter(std::string_view name) const;
  };

  /// Merge all shards in ascending shard-index order. Safe to call while
  /// other threads record (every slot is atomic); for exact totals call it
  /// after the parallel work has drained (ThreadPool::run blocks until it
  /// has).
  Snapshot snapshot() const;

  /// One JSON document: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum_seconds, mean_seconds, buckets}}}.
  void write_json(std::ostream& out) const;

 private:
  struct HistogramShard {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_ns{0};
  };
  struct Shard {
    std::array<std::atomic<std::uint64_t>,
               static_cast<std::size_t>(Counter::kCount)>
        counters{};
    std::array<HistogramShard, static_cast<std::size_t>(Histogram::kCount)>
        histograms{};
  };

  Shard& shard();

  std::atomic<bool> enabled_{false};
  /// Gauge values as bit-cast doubles (registry-level, not sharded:
  /// gauges are "last write wins" and written rarely).
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(Gauge::kCount)>
      gauges_{};
  /// Lazily claimed per-thread shards; merged in index order.
  std::array<std::atomic<Shard*>, kMaxShards> shards_{};
};

}  // namespace cloudlens::obs
