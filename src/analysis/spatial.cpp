#include "analysis/spatial.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "analysis/context.h"
#include "analysis/record_stream.h"
#include "common/check.h"
#include "common/stride_sample.h"
#include "stats/correlation.h"

namespace cloudlens::analysis {
namespace {

/// Hourly-mean utilization averaged over a set of VMs (unweighted mean,
/// matching the paper's "averaged utilization computed at the region
/// level"). Rolls each VM's row up to hours in place: one 168-sample
/// row accumulation per VM instead of a freshly evaluated 2016-sample
/// series per subscription.
stats::TimeSeries average_hourly_utilization(const TraceStore& trace,
                                             std::span<const VmId> vms) {
  CL_CHECK(!vms.empty());
  const TimeGrid& grid = trace.telemetry_grid();
  CL_CHECK(grid.step > 0 && kHour % grid.step == 0);
  const std::size_t factor = static_cast<std::size_t>(kHour / grid.step);
  const TimeGrid hourly_grid{grid.start, kHour, grid.count / factor};
  stats::TimeSeries sum(hourly_grid);
  auto& values = sum.mutable_values();
  std::vector<double> row_scratch, hourly_scratch;
  for (const VmId id : vms) {
    const std::span<const double> hourly =
        trace.hourly_row(id, row_scratch, hourly_scratch);
    for (std::size_t i = 0; i < values.size(); ++i) values[i] += hourly[i];
  }
  sum.scale(1.0 / static_cast<double>(vms.size()));
  return sum;
}

}  // namespace

std::vector<double> node_vm_correlations(const AnalysisContext& ctx,
                                         CloudType cloud,
                                         std::size_t max_nodes) {
  auto phase = ctx.phase("analysis.node_vm_correlations");
  const TraceStore& trace = ctx.trace();
  const ParallelConfig& parallel = ctx.parallel();
  const TimeGrid& grid = trace.telemetry_grid();

  // Mark every window-covering VM with a model in one shard-ordered sweep
  // (record_stream.h's access rule: a node's VMs sit in many shards); the
  // node's cloud selects below.
  std::vector<std::uint8_t> eligible(trace.vm_count(), 0);
  for_each_vm_group(trace, [&](std::span<const VmRecord> vms) {
    for (const VmRecord& vm : vms)
      if (vm.covers(grid) && vm.utilization) eligible.at(vm.id.value()) = 1;
  });

  // Candidate nodes: host >= 2 marked VMs of this cloud. (This
  // enumeration also builds the node index serially, before the fan-out.)
  std::vector<std::pair<NodeId, std::vector<VmId>>> candidates;
  for (const auto& node : trace.topology().nodes()) {
    if (node.cloud != cloud) continue;
    std::vector<VmId> covering;
    for (const VmId id : trace.vms_on_node(node.id))
      if (eligible.at(id.value()) != 0) covering.push_back(id);
    if (covering.size() >= 2)
      candidates.emplace_back(node.id, std::move(covering));
  }

  const auto sampled = stride_sample(std::move(candidates), max_nodes);

  // Hot path: one node-utilization roll-up plus one fused Pearson per
  // hosted VM, streaming telemetry rows — no per-VM series
  // materialization. Each sampled node fills its own slot; slots are
  // concatenated in node order below, so output is independent of
  // scheduling.
  const auto per_node = parallel_map<std::vector<double>>(
      sampled.size(),
      [&](std::size_t k) {
        const auto& [node_id, vms] = sampled[k];
        const auto node_series = trace.node_utilization(node_id);
        std::vector<double> rs;
        rs.reserve(vms.size());
        std::vector<double> scratch;
        for (const VmId id : vms) {
          const std::span<const double> row = trace.telemetry_row(id, scratch);
          rs.push_back(stats::pearson_fused(row, node_series.values()));
        }
        return rs;
      },
      parallel);
  std::vector<double> out;
  for (const auto& rs : per_node) out.insert(out.end(), rs.begin(), rs.end());
  release_paged_shards(trace);
  std::sort(out.begin(), out.end());
  ctx.count(obs::Counter::kAnalysisCorrelations, out.size());
  return out;
}

std::vector<RegionProfile> subscription_region_profiles(
    const AnalysisContext& ctx, SubscriptionId sub,
    std::size_t max_vms_per_region) {
  // No phase span here: this runs inside the per-subscription fan-outs of
  // cross_region_correlations and kb extraction, where per-call spans
  // would swamp the trace; the roll-up counter is lock-free and cheap.
  const TraceStore& trace = ctx.trace();
  const TimeGrid& grid = trace.telemetry_grid();
  // A subscription's VMs all live in one shard (the router hashes the
  // subscription id), so in population-sharded mode this whole call pages
  // in at most one shard.
  std::unordered_map<RegionId, std::vector<VmId>> by_region;
  for (const VmId id : trace.vms_of_subscription(sub)) {
    const auto& vm = trace.vm(id);
    if (!vm.covers(grid) || !vm.utilization) continue;
    auto& bucket = by_region[vm.region];
    if (max_vms_per_region == 0 || bucket.size() < max_vms_per_region)
      bucket.push_back(id);
  }
  std::vector<RegionProfile> out;
  for (auto& [region, vms] : by_region) {
    RegionProfile p;
    p.region = region;
    p.vms_used = vms.size();
    p.hourly_utilization = average_hourly_utilization(trace, vms);
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(),
            [](const RegionProfile& a, const RegionProfile& b) {
              return a.region < b.region;
            });
  ctx.count(obs::Counter::kAnalysisSeriesRolledUp, out.size());
  return out;
}

std::vector<double> cross_region_correlations(const AnalysisContext& ctx,
                                              CloudType cloud,
                                              std::size_t max_subscriptions,
                                              std::size_t max_vms_per_region) {
  auto phase = ctx.phase("analysis.cross_region_correlations");
  const TraceStore& trace = ctx.trace();
  const ParallelConfig& parallel = ctx.parallel();
  // Candidate subscriptions of this cloud, in ascending id order.
  const std::vector<SubscriptionId> candidates = collect_subscription_ids(
      trace, [&](const SubscriptionInfo& sub) { return sub.cloud == cloud; });
  // Warm the subscription index serially before fanning out.
  if (!candidates.empty()) trace.vms_of_subscription(candidates.front());

  // The region profiles (up to 25 VM roll-ups per region) dominate the
  // cost; the pairwise Pearsons over hourly series are cheap. Profiles are
  // computed in parallel block by block, while the `max_subscriptions` cap
  // is applied by the serial selection walk below in candidate order —
  // exactly the subscriptions the serial code would use, at any thread
  // count. Each block is sliced to the *remaining* budget before the
  // fan-out, so once the cap fills no block remainder is ever computed
  // (a candidate beyond the budget cannot be selected).
  std::vector<double> out;
  std::size_t used = 0;
  const std::size_t block =
      max_subscriptions > 0 ? std::max<std::size_t>(std::size_t{64},
                                                    max_subscriptions)
                            : std::max<std::size_t>(std::size_t{1},
                                                    candidates.size());
  for (std::size_t start = 0; start < candidates.size();) {
    std::size_t budget = block;
    if (max_subscriptions > 0) {
      if (used >= max_subscriptions) break;
      budget = std::min(block, max_subscriptions - used);
    }
    const std::size_t count = std::min(budget, candidates.size() - start);
    const auto profile_block = parallel_map<std::vector<RegionProfile>>(
        count,
        [&](std::size_t k) {
          return subscription_region_profiles(ctx, candidates[start + k],
                                              max_vms_per_region);
        },
        parallel);
    // Serial point between blocks: drop shards back under budget before
    // the next fan-out pages more in.
    release_paged_shards(trace);
    for (const auto& profiles : profile_block) {
      if (max_subscriptions > 0 && used >= max_subscriptions) break;
      if (profiles.size() < 2) continue;
      ++used;
      for (std::size_t a = 0; a < profiles.size(); ++a) {
        for (std::size_t b = a + 1; b < profiles.size(); ++b) {
          out.push_back(stats::pearson_fused(
              profiles[a].hourly_utilization.values(),
              profiles[b].hourly_utilization.values()));
        }
      }
    }
    start += count;
  }
  std::sort(out.begin(), out.end());
  ctx.count(obs::Counter::kAnalysisCorrelations, out.size());
  return out;
}

std::vector<RegionAgnosticVerdict> detect_region_agnostic_services(
    const AnalysisContext& ctx, CloudType cloud, double min_correlation,
    std::size_t max_vms_per_region) {
  auto phase = ctx.phase("analysis.detect_region_agnostic");
  const TraceStore& trace = ctx.trace();
  const ParallelConfig& parallel = ctx.parallel();
  const TimeGrid& grid = trace.telemetry_grid();

  // Membership first: eligible (id, service, region) triples in global id
  // order — the order the old resident scan visited VMs in — then the
  // per-(service, region) caps applied by a serial walk over that order,
  // so the pooled members are exactly the resident ones in every mode.
  struct Member {
    VmId id;
    ServiceId service;
    RegionId region;
  };
  const std::vector<Member> eligible = collect_vms<Member>(
      trace, [&](const VmRecord& vm) -> std::optional<Member> {
        if (vm.cloud != cloud || !vm.service.valid()) return std::nullopt;
        if (!vm.covers(grid) || !vm.utilization) return std::nullopt;
        return Member{vm.id, vm.service, vm.region};
      });
  // Pool by service, keyed by sorted region id so the per-service pair
  // enumeration order is a pure function of the trace (never of hash-map
  // iteration or scheduling).
  std::unordered_map<ServiceId, std::map<RegionId, std::vector<VmId>>>
      by_service;
  for (const Member& m : eligible) {
    auto& bucket = by_service[m.service][m.region];
    if (max_vms_per_region == 0 || bucket.size() < max_vms_per_region)
      bucket.push_back(m.id);
  }

  // Multi-region services in deterministic (service id) order.
  std::vector<const std::map<RegionId, std::vector<VmId>>*> region_sets;
  std::vector<ServiceId> services;
  for (auto& [service, regions] : by_service) {
    if (regions.size() < 2) continue;
    services.push_back(service);
  }
  std::sort(services.begin(), services.end());
  region_sets.reserve(services.size());
  for (const ServiceId service : services)
    region_sets.push_back(&by_service.at(service));

  // Every pooled member's hourly row lands in its own slot. Services span
  // subscriptions (and so shards) arbitrarily, but the *rows* group
  // cleanly by shard, so stream_by_shard pages each record shard in once.
  CL_CHECK(grid.step > 0 && kHour % grid.step == 0);
  const std::size_t factor = static_cast<std::size_t>(kHour / grid.step);
  const std::size_t hours = grid.count / factor;
  std::vector<VmId> member_vm;
  // Per service, each region pool as (first slot, member count), in the
  // same sorted-region order the maps iterate below.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> pools(
      services.size());
  for (std::size_t s = 0; s < services.size(); ++s) {
    for (const auto& [_, vms] : *region_sets[s]) {
      pools[s].emplace_back(member_vm.size(), vms.size());
      member_vm.insert(member_vm.end(), vms.begin(), vms.end());
    }
  }
  std::vector<double> rows(member_vm.size() * hours, 0.0);
  stream_by_shard(
      trace, member_vm.size(), [&](std::size_t p) { return member_vm[p]; },
      [&](std::size_t p) {
        std::vector<double> row_scratch, hourly_scratch;
        const std::span<const double> hourly =
            trace.hourly_row(member_vm[p], row_scratch, hourly_scratch);
        std::copy(hourly.begin(), hourly.end(),
                  rows.begin() + static_cast<std::ptrdiff_t>(p * hours));
      },
      parallel);

  // Per-service verdicts over the slots: each region profile sums its
  // members in pool order — the same accumulation order
  // average_hourly_utilization used, so the profiles are bit-identical.
  auto out = parallel_map<RegionAgnosticVerdict>(
      services.size(),
      [&](std::size_t s) {
        std::vector<std::vector<double>> profiles;
        profiles.reserve(pools[s].size());
        for (const auto& [first, count] : pools[s]) {
          std::vector<double> prof(hours, 0.0);
          for (std::size_t i = 0; i < count; ++i) {
            const double* row = rows.data() + (first + i) * hours;
            for (std::size_t h = 0; h < hours; ++h) prof[h] += row[h];
          }
          const double inv = 1.0 / static_cast<double>(count);
          for (double& v : prof) v *= inv;
          profiles.push_back(std::move(prof));
        }

        RegionAgnosticVerdict v;
        v.service = services[s];
        v.regions = profiles.size();
        double min_corr = 1.0, sum = 0.0;
        std::size_t pairs = 0;
        for (std::size_t a = 0; a < profiles.size(); ++a) {
          for (std::size_t b = a + 1; b < profiles.size(); ++b) {
            const double r =
                stats::pearson_fused(profiles[a], profiles[b]);
            min_corr = std::min(min_corr, r);
            sum += r;
            ++pairs;
          }
        }
        v.min_pair_correlation = min_corr;
        v.mean_pair_correlation =
            pairs ? sum / static_cast<double>(pairs) : 0.0;
        v.region_agnostic = min_corr >= min_correlation;
        return v;
      },
      parallel);
  ctx.count(obs::Counter::kAnalysisCorrelations, out.size());
  return out;
}

}  // namespace cloudlens::analysis
