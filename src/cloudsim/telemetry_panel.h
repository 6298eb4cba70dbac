// Columnar telemetry cache.
//
// Every analysis pass would otherwise re-derive the same 5-minute
// telemetry from scratch: one virtual UtilizationModel::at(t) call per
// tick per request, plus a fresh 2016-sample TimeSeries allocation per
// call — and the node correlation pass alone evaluates each VM's week at
// least twice. The TelemetryPanel materializes the whole VM × tick
// utilization matrix *once* per TraceStore in a cache-friendly row-major
// (structure-of-arrays) layout, filled in parallel (each VM fills its own
// row, so the build is bit-identical at any thread count), fed by the
// batched UtilizationModel::sample() API that hoists the per-tick virtual
// dispatch and noise/envelope recomputation out of the loop.
//
// Memory: one double per VM per tick — 16 KB per VM for the default
// one-week 5-minute grid (2016 ticks); hourly views are rolled up from a
// row on read (TraceStore::hourly_row), not stored. The matrix is allocated
// uninitialized: fill_row writes every tick of a row, so each page is
// first touched by the worker that fills it, inside the parallel fill,
// instead of being zeroed on the calling thread beforehand. A 100k-VM
// trace costs ~1.6 GB, so the panel exists only on request:
// TraceStore::build_telemetry_panel() materializes it (the run plan calls
// it once the trace resolves, when the command asked for a panel), and a
// trace nobody asked for a panel holds none. The panel is never
// persisted: rebuilding it from the trace is cheaper than writing and
// reading it back. Without a panel, rows are evaluated on demand through
// the *same* fill kernel, so results are identical either way, bit for
// bit.
//
// Consumers never hold the panel: they ask the trace for rows over its
// telemetry grid, and the trace serves them from the panel when it holds
// one:
//
//   std::vector<double> scratch;
//   std::span<const double> row = trace.telemetry_row(id, scratch);
//
// Invalidation: TraceStore drops the panel on add_vm and set_vm_deleted
// (a VM's row depends on its [created, deleted) window); it stays absent
// until the next build_telemetry_panel() call.
#pragma once

#include <memory>
#include <span>

#include "cloudsim/trace.h"
#include "common/parallel.h"
#include "common/sim_time.h"

namespace cloudlens {

/// Row-major VM × tick utilization matrix over one grid. Immutable after
/// construction; safe to read from any number of threads.
class TelemetryPanel {
 public:
  /// Materializes rows for every VM currently in `trace` (row index ==
  /// VmId value). Rows of model-less VMs are all-zero; rows of
  /// partial-lifetime VMs are zero outside [created, deleted).
  TelemetryPanel(const TraceStore& trace, TimeGrid grid,
                 const ParallelConfig& parallel = {});

  std::size_t vm_count() const { return rows_; }
  std::size_t tick_count() const { return grid_.count; }

  /// The VM's contiguous utilization row (tick_count() samples).
  std::span<const double> row(VmId id) const {
    return {data_.get() + id.value() * grid_.count, grid_.count};
  }
  /// Bytes held by the materialized matrix (for bench/rss accounting).
  std::size_t memory_bytes() const {
    return rows_ * grid_.count * sizeof(double);
  }

  /// The shared row-fill kernel: out[i] = utilization->sample value when
  /// the VM is alive at grid.at(i), else 0 (also all-zero for model-less
  /// VMs). `out.size()` must equal `grid.count`. Used both by the panel
  /// build and by TraceStore::telemetry_row's scratch path, so panel-on and
  /// panel-off analyses see identical bits by construction.
  ///
  /// Contract: writes every element of `out` — zeros outside the alive
  /// window, all zeros for a model-less VM, sample() over the alive
  /// sub-grid — and reads none before writing it, so `out` may hold
  /// garbage on entry. The panel's uninitialized matrix relies on this.
  static void fill_row(const VmRecord& vm, const TimeGrid& grid,
                       std::span<double> out);

 private:
  TimeGrid grid_;
  std::size_t rows_ = 0;
  std::unique_ptr<double[]> data_;  // rows_ × grid_.count, row-major
};

}  // namespace cloudlens
