// Out-of-core population: sharded VM/subscription record spill files.
//
// A trace's records — VmRecord, SubscriptionInfo, and the per-node/
// per-subscription indices — normally live in resident vectors, which caps
// the population at what one vector holds (Azure's public slice alone is
// 2.6M VMs). The PopulationShardStore is the one out-of-core mode: K
// shards keyed by subscription hash, each spilled as its own CLSN
// container (snapshot.h sections POPULATION_META /
// POPULATION_SUBSCRIPTIONS / POPULATION_VMS / POPULATION_MODELS /
// POPULATION_NODE_INDEX), paged in on demand and evicted LRU under a
// decoded-bytes budget. The store never spells out the container layout:
// a seal goes through snapshot.h's write_container (the models section
// streams from its spill log), and a read through SnapshotMapping. A seal
// that cannot write every byte throws CheckError and publishes no shard
// file. Telemetry is never spilled: a sharded trace has no
// panel, and every row is computed on demand from the VM's model with
// TelemetryPanel::fill_row (identical bits to the resident panel).
//
// Shard hash contract: shard_of_subscription(sub, K) =
// SplitMix64(sub.value()).next() % K, a pure function of (subscription
// id, K) — independent of thread count, build order, and platform — so a
// subscription's VMs and its SubscriptionInfo always live in one shard,
// whole subscriptions stream without crossing shard boundaries, and spill
// files are reusable across runs (the router digest binds a file to its
// trace + K).
//
// Two build paths:
//  * Streaming (the generator and the ingest backends): construct with
//    (grid, options), call append_vm() for each record as it is produced —
//    records are encoded straight into per-shard spill logs through a
//    small staging buffer, so the full population never materializes —
//    then finalize_spill() once with the subscription table. Utilization
//    models are serialized per VM via the snapshot model-record codec
//    (parametric generator models stay parametric when the codec is
//    passed; imported SampledUtilization is native).
//  * Conversion (an already-resident trace): build() streams the resident
//    records through the same path, unless every shard file on disk
//    already matches the router digest (warm start), in which case the
//    files are adopted without a write.
//
// Reads decode a shard's sections into ordinary VmRecord /
// SubscriptionInfo vectors at acquire time (the mapping itself is dropped
// immediately after decode — only the decoded vectors count against the
// budget), so record references behave exactly like resident ones while
// the shard stays paged in.
//
// Concurrency / lifetime rules (TSan-policed):
//   - view()/record()/subscription()/vms_of_subscription() may be called
//     from any number of pool workers; a shard's first toucher decodes it
//     under a mutex and publishes the view with a release-store.
//   - Returned references and spans stay valid until the next
//     evict_over_budget()/evict_all() call, which must happen only at
//     serial points — between parallel regions.
//   - vms_on_node() serves a store-level merged index, built lazily by
//     reading only the node-index section of each shard file; its spans
//     are independent of shard residency and never invalidated.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloudsim/trace.h"
#include "common/ids.h"
#include "common/sim_time.h"

namespace cloudlens {

class SnapshotModelCodec;

/// Stable shard assignment; pure function of (subscription id, K).
std::uint32_t shard_of_subscription(SubscriptionId sub,
                                    std::uint32_t shard_count);

struct PopulationShardingOptions {
  /// Number of shards (K). Clamped to >= 1.
  std::uint32_t shards = 16;
  /// Decoded-bytes budget: evict_over_budget() drops least-recently-used
  /// shards until the decoded record vectors fit. 0 = exactly one
  /// resident shard at a time.
  std::size_t budget_bytes = 256ull << 20;
  /// Directory for the spill files (created if missing). Files are named
  /// pop-shard-<index>.clsn; on the conversion path, existing files whose
  /// router digest matches are adopted instead of rewritten.
  std::string spill_dir;
  /// Leave the spill files on disk at destruction (cache-dir reuse).
  /// Otherwise the store removes them, and spill_dir too when the store
  /// created it.
  bool keep_files = false;
  /// Codec for non-native utilization models (workloads pattern models).
  /// Without it such models degrade to explicit samples over the grid —
  /// correct, but 16 KB per VM instead of a few dozen bytes. Must outlive
  /// the store.
  const SnapshotModelCodec* model_codec = nullptr;
};

/// One decoded shard: its member records in ascending id order plus the
/// per-subscription index. References alias the shard's decoded storage
/// and follow the store's eviction lifetime rules.
class PopulationShardView {
 public:
  std::span<const VmRecord> vms() const { return vms_; }
  std::span<const SubscriptionInfo> subscriptions() const { return subs_; }
  /// Binary search by id; nullptr when the id is not in this shard.
  const VmRecord* find(VmId id) const;
  const SubscriptionInfo* find_subscription(SubscriptionId id) const;
  /// Member VM ids of `sub` in ascending order (empty for foreign or
  /// VM-less subscriptions).
  std::span<const VmId> vms_of(SubscriptionId sub) const;
  /// Approximate resident cost of the decoded shard (budget accounting).
  std::size_t decoded_bytes() const { return decoded_bytes_; }

 private:
  friend class PopulationShardStore;
  std::vector<VmRecord> vms_;             // ascending id
  std::vector<SubscriptionInfo> subs_;    // ascending id
  /// Sorted by subscription id; values ascending.
  std::vector<std::pair<SubscriptionId, std::vector<VmId>>> sub_index_;
  std::size_t decoded_bytes_ = 0;
};

/// K spilled population shards plus the router that assigns records to
/// them. See the file comment for the build paths and concurrency rules.
class PopulationShardStore {
 public:
  /// Streaming builder: opens the per-shard spill logs. The store is
  /// write-only (append_vm) until finalize_spill() seals it.
  PopulationShardStore(TimeGrid grid,
                       const PopulationShardingOptions& options);
  ~PopulationShardStore();
  PopulationShardStore(const PopulationShardStore&) = delete;
  PopulationShardStore& operator=(const PopulationShardStore&) = delete;

  /// Conversion from a resident trace. Adopts matching on-disk shard
  /// files (router-digest warm start) or streams the resident records
  /// through the builder path — either way the files are identical.
  static std::unique_ptr<PopulationShardStore> build(
      const TraceStore& trace, const PopulationShardingOptions& options);

  // --- builder API (before finalize_spill) -------------------------------

  /// Appends one record to its shard's spill log and returns its id (ids
  /// are dense and ascending: the append order is the id order). The
  /// utilization model is serialized and released here.
  VmId append_vm(VmRecord record);
  /// Seals every shard file. `subscriptions` is the full dense table
  /// (ids 0..N-1); each lands in its hash shard.
  void finalize_spill(std::span<const SubscriptionInfo> subscriptions);

  // --- read API (after finalize_spill / build) ---------------------------

  std::uint32_t shard_count() const { return shard_count_; }
  std::size_t vm_count() const { return vm_shards_.size(); }
  std::size_t subscription_count() const { return sub_count_; }
  const TimeGrid& grid() const { return grid_; }
  /// Binds spill files to (record metadata, subscription table, grid, K).
  std::uint64_t router_digest() const { return router_digest_; }

  std::uint32_t shard_of(SubscriptionId sub) const;
  std::uint32_t shard_of_vm(VmId id) const;

  /// The decoded shard, paging it in on demand (see lifetime rules).
  const PopulationShardView& view(std::uint32_t shard) const;
  /// Record lookup by dense id; pages the owning shard in.
  const VmRecord& record(VmId id) const;
  const SubscriptionInfo& subscription(SubscriptionId id) const;
  std::span<const VmId> vms_of_subscription(SubscriptionId sub) const;
  /// Store-level merged node index (ascending ids, identical to the
  /// resident index). Built lazily from the node-index sections only —
  /// no shard decode, O(placed VMs) resident once built.
  std::span<const VmId> vms_on_node(NodeId node) const;

  /// Drop least-recently-used shards until decoded bytes <= budget.
  /// Serial points only — invalidates views handed out so far.
  void evict_over_budget() const;
  /// Drop everything. Serial points only.
  void evict_all() const;

  std::size_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  /// Total bytes of the sealed spill files on disk.
  std::size_t spill_bytes() const { return spill_bytes_; }
  std::size_t budget_bytes() const { return options_.budget_bytes; }

 private:
  /// Streaming-build state for one shard: the record/model spill logs
  /// with small staging buffers so append_vm is O(record), not O(shard).
  struct BuilderShard {
    std::ofstream records_out;
    std::ofstream models_out;
    std::string records_buf;
    std::string models_buf;
    std::string records_path;
    std::string models_path;
    std::uint64_t vm_count = 0;
    std::uint64_t model_count = 0;
  };

  struct Shard {
    std::string path;
    std::uint64_t vm_count = 0;
    std::uint64_t sub_count = 0;
    std::size_t file_bytes = 0;
    // Residency: `view` is published by a release-store after the decode
    // under `residency_mutex_`; readers acquire-load it.
    std::atomic<const PopulationShardView*> view{nullptr};
    std::unique_ptr<PopulationShardView> view_storage;
    std::atomic<std::uint64_t> last_use{0};
  };

  /// Shared ctor body: `open_logs` is false on the warm-adoption path,
  /// where the files already exist and no builder state is needed.
  PopulationShardStore(TimeGrid grid, const PopulationShardingOptions& options,
                       bool open_logs);

  const PopulationShardView& acquire(std::uint32_t shard) const;
  void drop_locked(Shard& s) const;
  void seal_shard(std::uint32_t s, std::span<const SubscriptionInfo> subs,
                  std::span<const std::uint32_t> shard_sub_indices);
  void build_node_index() const;

  TimeGrid grid_;
  std::uint32_t shard_count_ = 1;
  PopulationShardingOptions options_;
  std::uint64_t router_digest_ = 0;
  std::size_t sub_count_ = 0;
  bool sealed_ = false;
  /// The constructor created spill_dir; the destructor removes it unless
  /// the files are kept.
  bool created_spill_dir_ = false;
  /// Owning shard per VM, indexed by dense id (4 bytes/VM resident).
  std::vector<std::uint32_t> vm_shards_;

  std::vector<std::unique_ptr<BuilderShard>> builders_;
  /// Streaming router digest state (finished by finalize_spill).
  std::uint64_t digest_state_ = 0;

  mutable std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex residency_mutex_;
  mutable std::atomic<std::uint64_t> lru_clock_{0};
  mutable std::atomic<std::size_t> resident_bytes_{0};
  std::size_t spill_bytes_ = 0;

  mutable std::mutex node_index_mutex_;
  mutable std::atomic<bool> node_index_valid_{false};
  mutable std::unordered_map<NodeId, std::vector<VmId>> node_index_;
};

}  // namespace cloudlens
