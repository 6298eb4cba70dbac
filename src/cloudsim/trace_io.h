// Trace serialization — the export half.
//
// Exports a simulated trace in an Azure-Public-Dataset-flavoured CSV schema
// (a vmtable plus long-format 5-minute utilization readings, and a node
// table for the topology). The import half lives in src/ingest: the
// `cloudlens` backend there reads this schema back (ingest/ingest.h
// declares the stream-level `import_trace`), and sibling backends read the
// actual Azure Public Dataset and Google cluster-trace formats.
#pragma once

#include <iosfwd>

#include "cloudsim/trace.h"

namespace cloudlens {

/// Step-function utilization backed by explicit samples (what an imported
/// trace carries instead of a generator model). The model reads a window
/// of a cell buffer it may share: tick i of grid() is cell `offset + i`,
/// and every tick at or past the valid-tick cut reads 0.0 without touching
/// the buffer. Importers and the snapshot decoder own their cells (offset
/// 0, no cut). Serve snapshots view a live VM's buffer cut at the snapshot
/// epoch, so no reader touches a cell the ingester may still write.
class SampledUtilization final : public UtilizationModel {
 public:
  /// Owns `samples`, one per grid tick.
  SampledUtilization(TimeGrid grid, std::vector<double> samples);
  /// Views cells [offset, offset + grid.count) of the shared `cells`; ticks
  /// at or past `valid_ticks` read 0.0.
  SampledUtilization(TimeGrid grid,
                     std::shared_ptr<const std::vector<double>> cells,
                     std::size_t offset, std::size_t valid_ticks);

  /// Sample of the interval containing t; clamped at the ends.
  double at(SimTime t) const override;
  /// Batched lookup, bit-identical to at(). A sub-grid of grid() (the
  /// shape of every telemetry row read) walks consecutive cells without a
  /// virtual call or a division per tick.
  void sample(const TimeGrid& grid, std::span<double> out) const override;
  std::string_view kind() const override { return "sampled"; }

  const TimeGrid& grid() const { return grid_; }

 private:
  double cell(std::size_t i) const {
    return i < valid_ ? (*cells_)[offset_ + i] : 0.0;
  }

  TimeGrid grid_;
  std::shared_ptr<const std::vector<double>> cells_;
  std::size_t offset_;
  std::size_t valid_;
};

struct TraceExportOptions {
  /// Cap on VMs that get utilization rows (0 = all). The vmtable always
  /// contains every VM. When the cap bites, the export is *lossy*: VMs
  /// beyond it are dropped from utilization.csv entirely (whole node
  /// groups at a time, alternating clouds, in a deterministic shuffled
  /// order), so an import of the result carries no utilization model for
  /// them. Each capped export counts the dropped VMs on the
  /// `trace_io.utilization_vms_dropped` counter and prints a stderr note.
  std::size_t max_vms_with_utilization = 2000;
};

/// topology.csv — one row per node, ancestors denormalized:
/// node,rack,cluster,datacenter,region,region_name,tz_offset_hours,cloud,
/// node_cores,node_memory_gb
void export_topology(const Topology& topology, std::ostream& out);

/// vmtable.csv — one row per VM:
/// vm,subscription,service,cloud,party,region,cluster,rack,node,cores,
/// memory_gb,created,deleted,pattern
/// `deleted` is empty for VMs alive past the window; `pattern` is the
/// generator's ground-truth label when known (informational only).
void export_vm_table(const TraceStore& trace, std::ostream& out);

/// utilization.csv — long format: vm,timestamp,avg_cpu. Rows cover each
/// exported VM's alive ticks of the trace's telemetry grid.
void export_utilization(const TraceStore& trace, std::ostream& out,
                        const TraceExportOptions& options = {});

}  // namespace cloudlens
