// Trace records: the simulated equivalent of the paper's dataset —
// per-VM metadata plus 5-minute average CPU utilization.
//
// Utilization is not materialized by default: each VM carries a
// deterministic UtilizationModel evaluated on demand, so traces with
// hundreds of thousands of VMs fit easily in memory.
//
// A TraceStore holds its records in one of two storage modes, fixed when
// its producer finishes:
//  * resident — services, subscriptions and VMs in vectors, with an
//    optional TelemetryPanel (the VM × tick matrix) that exists only once
//    build_telemetry_panel() built it (it is never loaded from disk);
//  * population-sharded — subscription-hashed record shards spilled to
//    disk and paged in on demand (cloudsim/population.h); no panel. The
//    producer (the generator, an ingest backend or a snapshot load)
//    streams the records into the shards as it emits them.
// Every consumer reads rows through the same fill kernel in both modes,
// so results are bit-identical whichever mode and panel state a run uses.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/parallel.h"
#include "common/sim_time.h"
#include "cloudsim/topology.h"
#include "cloudsim/types.h"
#include "stats/series.h"

namespace cloudlens {

class TelemetryPanel;
class PopulationShardStore;
struct PopulationShardingOptions;

/// Deterministic utilization source: average CPU utilization (fraction of
/// the VM's allocated cores, in [0, 1]) over the 5-minute interval starting
/// at t. Implementations must be pure functions of t.
class UtilizationModel {
 public:
  virtual ~UtilizationModel() = default;
  virtual double at(SimTime t) const = 0;

  /// Batched evaluation over a regular grid: out[i] = at(grid.at(i)), with
  /// out.size() == grid.count. The base implementation loops over the
  /// per-tick virtual `at`; concrete models override it with hoisted,
  /// branch-light batch loops (cached noise anchors, per-day-offset
  /// envelope tables, no per-tick virtual dispatch).
  ///
  /// Contract: overrides must be *bit-identical* to the base loop — the
  /// telemetry panel and every analysis consuming it rely on
  /// sample() == at() per tick, double for double. Like the base loop,
  /// they write every element of `out` and read none before writing it
  /// (an override may stage per-tick inputs in `out`), so `out` may hold
  /// garbage on entry: the panel hands in uninitialized rows.
  virtual void sample(const TimeGrid& grid, std::span<double> out) const;

  /// Free-form tag describing where the model came from ("diurnal",
  /// "sampled", ...); used by trace export as an informational column.
  virtual std::string_view kind() const { return "unknown"; }
};

/// Constant-utilization model; handy for tests and synthetic baselines.
class ConstantUtilization final : public UtilizationModel {
 public:
  explicit ConstantUtilization(double level) : level_(level) {}
  double at(SimTime) const override { return level_; }
  void sample(const TimeGrid& grid, std::span<double> out) const override;
  /// The constant level (exposed so snapshots can round-trip the model).
  double level() const { return level_; }

 private:
  double level_;
};

struct ServiceInfo {
  ServiceId id;
  std::string name;
  CloudType cloud = CloudType::kPrivate;
  ServiceModel model = ServiceModel::kPaaS;
  /// Geo-load-balanced services have one global demand curve; their
  /// utilization peaks align across regions regardless of time zone.
  bool region_agnostic = false;
};

struct SubscriptionInfo {
  SubscriptionId id;
  CloudType cloud = CloudType::kPublic;
  PartyType party = PartyType::kThirdParty;
  /// Owning service for first-party subscriptions; invalid otherwise.
  ServiceId service;
};

/// Sentinel for "VM still alive at the end of the observed window".
inline constexpr SimTime kNoEnd = std::numeric_limits<SimTime>::max();

struct VmRecord {
  VmId id;
  SubscriptionId subscription;
  ServiceId service;  ///< invalid for third-party VMs
  CloudType cloud = CloudType::kPublic;
  PartyType party = PartyType::kThirdParty;
  RegionId region;
  ClusterId cluster;  ///< invalid if the allocation failed
  RackId rack;
  NodeId node;
  double cores = 1;
  double memory_gb = 4;
  SimTime created = 0;
  SimTime deleted = kNoEnd;
  std::shared_ptr<const UtilizationModel> utilization;

  bool placed() const { return node.valid(); }
  bool alive_at(SimTime t) const { return t >= created && t < deleted; }
  /// Lifetime; only meaningful when the VM ended within the window.
  SimDuration lifetime() const { return deleted - created; }
  bool ended() const { return deleted != kNoEnd; }
  /// Alive for every instant of [grid.start, grid.end())?
  bool covers(const TimeGrid& grid) const {
    return created <= grid.start && deleted >= grid.end();
  }
};

/// The in-memory dataset produced by a simulation run.
class TraceStore {
 public:
  explicit TraceStore(const Topology* topology,
                      TimeGrid grid = week_telemetry_grid());
  ~TraceStore();  // out of line: TelemetryPanel is incomplete here

  const Topology& topology() const { return *topology_; }
  const TimeGrid& telemetry_grid() const { return grid_; }

  ServiceId add_service(ServiceInfo info);
  SubscriptionId add_subscription(SubscriptionInfo info);
  VmId add_vm(VmRecord record);
  /// Room for `count` resident VM records, so a bulk load of a known size
  /// (a serve snapshot) allocates the record vector once.
  void reserve_vms(std::size_t count) { vms_.reserve(count); }

  /// Terminate a VM earlier than recorded (used by failure injection).
  /// The new time must precede the current deletion time.
  void set_vm_deleted(VmId id, SimTime when);

  std::span<const ServiceInfo> services() const { return services_; }
  /// Resident subscription records. Unavailable in population-sharded
  /// mode (CheckError) — use subscription_count() + subscription(), or
  /// stream shards via population_shards().
  std::span<const SubscriptionInfo> subscriptions() const;
  /// Resident VM records. Unavailable in population-sharded mode
  /// (CheckError) — use vm_count() + vm(), or stream shards
  /// (analysis/record_stream.h).
  std::span<const VmRecord> vms() const;

  /// Mode-aware counts: the size of the resident spans, or the shard
  /// store's global counts in population-sharded mode. Ids are dense in
  /// [0, count) in every mode.
  std::size_t vm_count() const;
  std::size_t subscription_count() const;

  const ServiceInfo& service(ServiceId id) const {
    return services_.at(id.value());
  }
  /// Record lookups. In population-sharded mode these page the owning
  /// shard in on demand (thread-safe); the returned reference stays valid
  /// until the next population_shards() eviction, which may only happen
  /// at serial points (see cloudsim/population.h). An invalid or
  /// out-of-range id throws CheckError naming it, in either mode.
  const SubscriptionInfo& subscription(SubscriptionId id) const;
  const VmRecord& vm(VmId id) const;

  /// VM ids of all placed VMs hosted by `node` at any point (index built on
  /// first use and invalidated by add_vm).
  std::span<const VmId> vms_on_node(NodeId node) const;

  /// VM ids per subscription (index built on first use).
  std::span<const VmId> vms_of_subscription(SubscriptionId sub) const;

  /// Utilization of one VM over `grid`: 0 when the VM is not alive.
  stats::TimeSeries vm_utilization(VmId id, const TimeGrid& grid) const;

  /// Core-seconds-weighted node utilization: sum over hosted VMs of
  /// util × vm.cores / node.total_cores at each grid point.
  stats::TimeSeries node_utilization(NodeId id, const TimeGrid& grid) const;

  /// Cores in use on a node at time t.
  double node_used_cores(NodeId id, SimTime t) const;

  /// The columnar telemetry cache (row-major VM × tick utilization matrix
  /// over `telemetry_grid()`), or nullptr when none was built since the
  /// last record mutation. Consumers fall back to on-demand row
  /// evaluation with identical bits (see telemetry_panel.h).
  const TelemetryPanel* telemetry_panel() const { return panel_.get(); }

  /// Materialize the panel over `telemetry_grid()` (a no-op when one is
  /// held) and return it. Rows are filled in parallel, one VM per row, so
  /// any thread count yields identical bits. Rejected (CheckError) for a
  /// population-sharded or spilling trace, which holds no resident matrix.
  const TelemetryPanel* build_telemetry_panel(
      const ParallelConfig& parallel = {});

  // --- population sharding (out-of-core VM/subscription records) --------
  //
  // One way in, streaming: the producer (generator, ingest backend or
  // snapshot load) calls begin_population_spill() before any add_vm, then
  // add_subscription/add_vm as usual — records are routed straight to
  // per-shard spill logs instead of the resident vector — then
  // finish_population_spill() once, which seals the shard files and moves
  // the subscriptions out-of-core too. From then on vms()/subscriptions()
  // are unavailable, record lookups page shards in on demand, and
  // mutation (add_vm/set_vm_deleted) is rejected. A population-sharded
  // trace has no telemetry panel: consumers compute rows on demand with
  // TelemetryPanel::fill_row (identical bits).
  void begin_population_spill(const PopulationShardingOptions& options);
  void finish_population_spill();
  const PopulationShardStore* population_shards() const {
    return pop_shards_ != nullptr && !pop_spilling_ ? pop_shards_.get()
                                                    : nullptr;
  }
  bool population_sharded() const { return population_shards() != nullptr; }
  bool population_spilling() const { return pop_spilling_; }

 private:
  /// Drops every derived cache (indexes, panel) after a record mutation.
  void invalidate_derived();
  void build_node_index() const;
  void build_subscription_index() const;

  const Topology* topology_;
  TimeGrid grid_;
  std::vector<ServiceInfo> services_;
  std::vector<SubscriptionInfo> subscriptions_;
  std::vector<VmRecord> vms_;

  // Lazy indexes (mutable caches; rebuilt when stale). Concurrent *reads*
  // are safe — the first reader builds the index under `index_mutex_` and
  // publishes it via the release-store on the valid flag, so parallel
  // analysis passes may call vms_on_node()/vms_of_subscription() from any
  // thread. Mutation (add_vm) must still be externally serialized against
  // readers, as for every other accessor.
  mutable std::mutex index_mutex_;
  mutable std::atomic<bool> node_index_valid_{false};
  mutable std::unordered_map<NodeId, std::vector<VmId>> node_index_;
  mutable std::atomic<bool> sub_index_valid_{false};
  mutable std::unordered_map<SubscriptionId, std::vector<VmId>> sub_index_;

  // Columnar telemetry cache: set only by build, dropped by every
  // record mutation. Plain state like the records themselves: mutators
  // are serialized against readers by contract.
  std::unique_ptr<TelemetryPanel> panel_;

  // Population sharding: non-null once begin_population_spill() ran;
  // `pop_spilling_` is true between begin and finish (the store is still
  // a write-only builder then).
  // Mutator-written state, serialized against readers by contract.
  std::unique_ptr<PopulationShardStore> pop_shards_;
  bool pop_spilling_ = false;
};

}  // namespace cloudlens
