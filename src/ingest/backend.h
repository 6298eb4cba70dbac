// Pluggable trace-ingest backends.
//
// A backend turns a directory of raw trace files into the canonical
// in-memory form (Topology + TraceStore) every cloudlens analysis
// consumes, plus an IngestReport of what it saw on the way in. Three
// backends ship:
//
//   cloudlens  the repo's own CSV schema (topology/vmtable/utilization,
//              the format `cloudlens generate` writes — see
//              docs/TRACE_FORMAT.md),
//   azure      Azure Public Dataset v1/v2 (vmtable + per-VM CPU
//              readings; v2 core/memory bucket strings handled),
//   google     Google cluster traces (task_events + task_usage, tasks
//              mapped to VMs with AGOCS-style per-field fidelity
//              counters validated against the published trace
//              invariants).
//
// All backends decode through ingest/csv.h, so the deterministic
// parallel-chunk contract (bit-identical at any thread count), strict
// field parsing, and CRLF handling are shared. Consumption — the part
// that assigns dense ids — is always serial in file order, which is
// what makes first-seen id assignment deterministic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloudsim/topology.h"
#include "cloudsim/trace.h"
#include "common/parallel.h"
#include "common/sim_time.h"

namespace cloudlens::obs {
class MetricsRegistry;
class TraceSink;
}  // namespace cloudlens::obs

namespace cloudlens::ingest {

struct IngestOptions {
  /// Telemetry grid utilization samples land on (also the window that
  /// decides which readings are in range).
  TimeGrid grid = week_telemetry_grid();
  ParallelConfig parallel;
  /// Decode superblock size / chunk grid — execution knobs (exposed for
  /// tests that want many blocks from a small fixture). Never part of a
  /// cache key; results are identical at any setting.
  std::size_t block_bytes = std::size_t{8} << 20;
  std::size_t chunk_lines = 2048;
  obs::MetricsRegistry* metrics = nullptr;  ///< null = process-global
  obs::TraceSink* sink = nullptr;           ///< null = process-global
  /// When set, imported VM records stream straight into population
  /// shards (cloudsim/population.h) as each backend assembles them, and
  /// imported sampled utilization spills natively. What this bounds is
  /// the trace after the import: its records and models live in the
  /// shards, paged in under the shard budget, and the resident record
  /// vector never materializes. The import itself is not bounded: every
  /// backend fills each VM's sample buffer before its first add_vm, so
  /// the decode peaks as high as a resident import.
  const PopulationShardingOptions* population_sharding = nullptr;
};

/// What an import saw: volume counts plus per-field fidelity counters
/// (the AGOCS discipline from the Google-trace literature — every place
/// the raw data deviates from its published invariants is counted, not
/// silently patched). `violations` is the subset of fidelity events that
/// break a hard invariant of the source format; benign quirks (bucketed
/// values, out-of-window readings) count but do not violate.
struct IngestReport {
  std::string backend;
  std::uint64_t rows = 0;           ///< data rows decoded across all files
  std::uint64_t vms = 0;
  std::uint64_t subscriptions = 0;
  std::uint64_t samples = 0;        ///< utilization cells filled
  std::uint64_t skipped_rows = 0;   ///< benign skips (e.g. out-of-window)
  std::uint64_t violations = 0;
  /// Named fidelity counters in deterministic (first-touch) order.
  std::vector<std::pair<std::string, std::uint64_t>> fidelity;

  std::uint64_t& fidelity_counter(std::string_view name);
  std::uint64_t fidelity_count(std::string_view name) const;
};

struct IngestResult {
  std::unique_ptr<Topology> topology;
  std::unique_ptr<TraceStore> trace;
  IngestReport report;
};

class IngestBackend {
 public:
  virtual ~IngestBackend() = default;
  virtual std::string_view name() const = 0;
  virtual std::string_view description() const = 0;
  /// The files this backend reads from the import directory, in a fixed
  /// order. The pipeline hashes exactly these (by raw bytes) into the
  /// trace stage's cache key. Optional files simply hash as absent.
  virtual std::vector<std::string> input_files() const = 0;
  /// Import `<dir>/<file>` for each input file. Throws CheckError on
  /// malformed input (errors name file and line).
  virtual IngestResult import_dir(const std::string& dir,
                                  const IngestOptions& options) const = 0;
};

/// Registry: nullptr when `name` is unknown. An empty name resolves to
/// the cloudlens backend (the historical default).
const IngestBackend* find_backend(std::string_view name);
std::vector<std::string_view> backend_names();

/// Human-readable import summary (volume + fidelity table).
std::string render_ingest_report(const IngestReport& report);

/// Shared spill bracket for the backends' record-assembly loops: when
/// `options.population_sharding` is set, begin/finish the trace's
/// population spill around the loop (no-ops otherwise). Call begin after
/// every subscription is registered and before the first add_vm.
void begin_population_spill_if_configured(TraceStore& trace,
                                          const IngestOptions& options);
void finish_population_spill_if_configured(TraceStore& trace,
                                           const IngestOptions& options);

/// The three built-in backends (each defined in its own TU).
const IngestBackend& cloudlens_backend();
const IngestBackend& azure_backend();
const IngestBackend& google_backend();

}  // namespace cloudlens::ingest
