// Mode-agnostic iteration over VM records.
//
// The analyses historically walked `trace.vms()` — a span over the
// resident record vector. In population-sharded mode (cloudsim/
// population.h) that span does not exist: records live in K spill files
// and page in a shard at a time. These helpers express the four access
// shapes the analyses actually use so each analysis is written once and
// runs bounded-RSS in either mode:
//
//   for_each_vm_group: visit every record exactly once, as one span per
//     group (resident: a single group = the whole span; sharded: one
//     group per shard in ascending shard order, with a budget eviction
//     between groups). Group boundaries are the only mode-dependent
//     artifact — any consumer whose reduction is group-order-invariant
//     (per-VM slot writes, commutative-over-VM-id sums assembled in id
//     order afterwards) produces identical bits in both modes.
//
//   collect_vm_ids: the ids passing a predicate, in ascending id order in
//     both modes — the drop-in replacement for "scan vms() and collect",
//     where downstream logic (membership caps, sampling) depends on the
//     global scan order.
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
#include <span>
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

/// Ids of the VMs satisfying `pred`, ascending — the same order a resident
/// vms() scan yields, regardless of shard interleaving.
template <typename Pred>
std::vector<VmId> collect_vm_ids(const TraceStore& trace, Pred&& pred) {
  std::vector<VmId> ids;
  for_each_vm_group(trace, [&](std::span<const VmRecord> vms) {
    for (const VmRecord& vm : vms) {
      if (pred(vm)) ids.push_back(vm.id);
    }
  });
  if (trace.population_sharded()) {
    std::sort(ids.begin(), ids.end(),
              [](VmId a, VmId b) { return a.value() < b.value(); });
  }
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

}  // namespace cloudlens::analysis
