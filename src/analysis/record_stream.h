// Mode-agnostic iteration over trace records.
//
// The analyses historically walked `trace.vms()` — a span over the
// resident record vector. In population-sharded mode (cloudsim/
// population.h) that span does not exist: records live in K spill files
// and page in a shard at a time. This header is the one place outside
// cloudsim/ that knows the storage mode: no analysis, kb or policy file
// names the shard store. Its helpers express the access shapes the passes
// actually use, so each pass is written once and runs bounded-RSS in
// either mode (telemetry rows come from TraceStore::telemetry_row, which
// needs no mode either):
//
//   for_each_vm_group: visit every record exactly once, as one span per
//     group (resident: a single group = the whole span; sharded: one
//     group per shard in ascending shard order, with a budget eviction
//     between groups). Group boundaries are the only mode-dependent
//     artifact — any consumer whose reduction is group-order-invariant
//     (per-VM slot writes, commutative-over-VM-id sums assembled in id
//     order afterwards) produces identical bits in both modes.
//
//   collect_vms / collect_vm_ids: what a pass keeps of each record (or
//     just the ids) passing a predicate, in ascending id order in both
//     modes — the drop-in replacement for "scan vms() and collect", where
//     downstream logic (membership caps, sampling) depends on the global
//     scan order.
//
//   collect_subscription_ids: the same for subscription records.
//
//   any_vm: short-circuit existence check.
//
//   stream_by_shard: a parallel fan-out over work items keyed by a VM or
//     subscription id. Resident: one plain parallel_for. Sharded: the
//     items of shard 0 fan out over the pool, the pool drains (ThreadPool::
//     run blocks, providing the happens-before edge), the store evicts
//     down to its budget at that serial point, then shard 1 begins. Each
//     item writes only its own output slot, so the result is the same at
//     any thread count and in either mode.
//
//   release_paged_shards: the serial point after any other fan-out whose
//     items looked records up by id; drops what they paged in.
//
// The access rule for a sharded pass: learn membership (which VMs a pass
// needs, and what it needs of each record) from one shard-ordered sweep,
// for_each_vm_group or collect_vm_ids, never from a serial per-id
// trace.vm() loop. Shards are keyed by subscription, so ids that belong
// together by node or region sit in many shards: each lookup can page a
// shard in, and the loop's next eviction drops it again. Node
// correlations once found their candidates that way: at scale 0.1 over
// 32 shards with a 1 MiB budget, that enumeration alone cost 431 ms and
// 2,517 page-ins per public-cloud call (0.4-0.6 s and 2,373-2,520
// page-ins over three other scenarios), against 5-7 ms and 32 page-ins
// for one marking sweep.
//
// References and spans obtained inside a group callback follow the shard
// store's lifetime rules: valid within the callback, not across groups.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cloudsim/population.h"
#include "cloudsim/trace.h"
#include "common/parallel.h"

namespace cloudlens::analysis {

/// Calls group_fn(std::span<const VmRecord>) for disjoint groups covering
/// every VM exactly once; ids ascend within a group. Serial — parallelize
/// *within* the callback (per-VM output slots), never across groups.
template <typename Fn>
void for_each_vm_group(const TraceStore& trace, Fn&& group_fn) {
  const PopulationShardStore* pop = trace.population_shards();
  if (pop == nullptr) {
    group_fn(trace.vms());
    return;
  }
  for (std::uint32_t s = 0; s < pop->shard_count(); ++s) {
    group_fn(pop->view(s).vms());
    pop->evict_over_budget();
  }
}

/// What `fn` keeps of each VM record, in ascending VM id order — the
/// order a resident vms() scan yields, regardless of shard interleaving.
/// fn(const VmRecord&) returns std::optional<T>; empty results are skipped.
template <typename T, typename Fn>
std::vector<T> collect_vms(const TraceStore& trace, Fn&& fn) {
  std::vector<std::pair<VmId, T>> kept;
  for_each_vm_group(trace, [&](std::span<const VmRecord> vms) {
    for (const VmRecord& vm : vms) {
      if (std::optional<T> value = fn(vm))
        kept.emplace_back(vm.id, std::move(*value));
    }
  });
  if (trace.population_sharded()) {
    std::sort(kept.begin(), kept.end(), [](const auto& a, const auto& b) {
      return a.first.value() < b.first.value();
    });
  }
  std::vector<T> out;
  out.reserve(kept.size());
  for (auto& [id, value] : kept) out.push_back(std::move(value));
  return out;
}

/// Ids of the VMs satisfying `pred`, ascending.
template <typename Pred>
std::vector<VmId> collect_vm_ids(const TraceStore& trace, Pred&& pred) {
  return collect_vms<VmId>(trace, [&](const VmRecord& vm) {
    return pred(vm) ? std::optional<VmId>(vm.id) : std::nullopt;
  });
}

/// Ids of the subscriptions satisfying `pred`, ascending in either mode.
template <typename Pred>
std::vector<SubscriptionId> collect_subscription_ids(const TraceStore& trace,
                                                     Pred&& pred) {
  std::vector<SubscriptionId> ids;
  const PopulationShardStore* pop = trace.population_shards();
  if (pop == nullptr) {
    for (const SubscriptionInfo& sub : trace.subscriptions())
      if (pred(sub)) ids.push_back(sub.id);
    return ids;
  }
  for (std::uint32_t s = 0; s < pop->shard_count(); ++s) {
    for (const SubscriptionInfo& sub : pop->view(s).subscriptions())
      if (pred(sub)) ids.push_back(sub.id);
    pop->evict_over_budget();
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// True when any VM satisfies `pred` (stops at the first hit).
template <typename Pred>
bool any_vm(const TraceStore& trace, Pred&& pred) {
  const PopulationShardStore* pop = trace.population_shards();
  if (pop == nullptr) {
    const std::span<const VmRecord> vms = trace.vms();
    return std::any_of(vms.begin(), vms.end(), pred);
  }
  for (std::uint32_t s = 0; s < pop->shard_count(); ++s) {
    const std::span<const VmRecord> vms = pop->view(s).vms();
    if (std::any_of(vms.begin(), vms.end(), pred)) return true;
    pop->evict_over_budget();
  }
  return false;
}

namespace detail {
inline std::uint32_t shard_of_key(const PopulationShardStore& pop, VmId id) {
  return pop.shard_of_vm(id);
}
inline std::uint32_t shard_of_key(const PopulationShardStore& pop,
                                  SubscriptionId sub) {
  return pop.shard_of(sub);
}
}  // namespace detail

/// Runs item_fn(i) for every i in [0, n). key_of_item(i) names the VmId or
/// SubscriptionId item i reads; in population-sharded mode the items run
/// grouped by that key's shard, shard by shard with budget eviction at
/// each shard boundary, and otherwise as one parallel_for. item_fn must
/// write only to slot i of its output (the parallel_for contract); records
/// obtained inside it are valid within the current shard's region only.
template <typename KeyOf, typename Fn>
void stream_by_shard(const TraceStore& trace, std::size_t n,
                     KeyOf&& key_of_item, Fn&& item_fn,
                     const ParallelConfig& parallel) {
  const PopulationShardStore* pop = trace.population_shards();
  if (pop == nullptr) {
    parallel_for(n, item_fn, parallel);
    return;
  }
  std::vector<std::vector<std::size_t>> by_shard(pop->shard_count());
  for (std::size_t i = 0; i < n; ++i) {
    by_shard[detail::shard_of_key(*pop, key_of_item(i))].push_back(i);
  }
  for (const std::vector<std::size_t>& items : by_shard) {
    if (items.empty()) continue;
    parallel_for(
        items.size(), [&](std::size_t j) { item_fn(items[j]); }, parallel);
    pop->evict_over_budget();
  }
}

/// The serial point after a fan-out whose items looked records up by id
/// (trace.vm(), vms_on_node(), telemetry rows) outside stream_by_shard:
/// once the pool has drained, drops the shards they paged in back under
/// the store's budget. Nothing to do for a resident trace.
inline void release_paged_shards(const TraceStore& trace) {
  if (const PopulationShardStore* pop = trace.population_shards())
    pop->evict_over_budget();
}

}  // namespace cloudlens::analysis
