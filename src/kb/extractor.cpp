#include "kb/extractor.h"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "analysis/context.h"
#include "analysis/record_stream.h"
#include "analysis/spatial.h"
#include "common/stride_sample.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"

namespace cloudlens::kb {

std::optional<SubscriptionKnowledge> extract_subscription(
    const AnalysisContext& ctx, SubscriptionId sub,
    const ExtractorOptions& options) {
  const TraceStore& trace = ctx.trace();
  const auto vm_ids = trace.vms_of_subscription(sub);
  if (vm_ids.empty()) return std::nullopt;

  const SubscriptionInfo& info = trace.subscription(sub);
  const TimeGrid& grid = trace.telemetry_grid();

  SubscriptionKnowledge rec;
  rec.subscription = sub;
  rec.cloud = info.cloud;
  rec.party = info.party;
  rec.service = info.service;

  // Deployment knowledge.
  std::unordered_set<RegionId> regions;
  std::vector<VmId> covering;
  for (const VmId id : vm_ids) {
    const auto& vm = trace.vm(id);
    ++rec.vm_count;
    rec.total_cores += vm.cores;
    regions.insert(vm.region);
    if (vm.covers(grid) && vm.utilization) covering.push_back(id);
    if (vm.ended() && vm.created >= grid.start && vm.deleted <= grid.end()) {
      ++rec.ended_vms;
      if (vm.lifetime() < options.short_lifetime_edge)
        rec.short_lifetime_share += 1.0;
    }
  }
  rec.region_count = regions.size();
  if (rec.ended_vms > 0)
    rec.short_lifetime_share /= static_cast<double>(rec.ended_vms);

  // Utilization knowledge over a sample of window-covering VMs.
  std::array<std::size_t, 4> votes{};
  stats::StreamingMoments util_moments;
  std::vector<double> all_samples;
  const std::vector<VmId> sampled =
      stride_sample(covering, options.max_classified_vms);
  // Stream telemetry rows: one contiguous read per VM feeds both the
  // classifier and the moments, with no per-VM TimeSeries materialization.
  std::vector<double> scratch;
  for (const VmId id : sampled) {
    const std::span<const double> row = trace.telemetry_row(id, scratch);
    const auto cls = analysis::classify(row, grid, options.classifier);
    ++votes[static_cast<std::size_t>(cls)];
    for (const double v : row) {
      util_moments.add(v);
      all_samples.push_back(v);
    }
  }
  if (!sampled.empty()) {
    const auto best =
        std::max_element(votes.begin(), votes.end()) - votes.begin();
    rec.dominant_pattern = static_cast<analysis::UtilizationClass>(best);
    rec.pattern_confidence = static_cast<double>(votes[best]) /
                             static_cast<double>(sampled.size());
    rec.mean_utilization = util_moments.mean();
    rec.p95_utilization = stats::quantile(all_samples, 0.95);
  }

  // Spatial knowledge.
  if (rec.region_count >= 2 && !covering.empty()) {
    const auto profiles = analysis::subscription_region_profiles(
        ctx, sub, options.max_vms_per_region);
    double min_corr = 1.0;
    for (std::size_t a = 0; a < profiles.size(); ++a) {
      for (std::size_t b = a + 1; b < profiles.size(); ++b) {
        min_corr = std::min(
            min_corr,
            stats::pearson_fused(profiles[a].hourly_utilization.values(),
                                 profiles[b].hourly_utilization.values()));
      }
    }
    rec.cross_region_correlation = profiles.size() >= 2 ? min_corr : 0.0;
    rec.region_agnostic =
        profiles.size() >= 2 &&
        min_corr >= options.region_agnostic_correlation;
  }

  // Policy hints (Sec. III-B / IV implications); shared with kb::refresh.
  apply_policy_hints(rec, options);
  return rec;
}

void apply_policy_hints(SubscriptionKnowledge& rec,
                        const ExtractorOptions& options) {
  rec.spot_candidate =
      rec.short_lifetime_share >= options.spot_short_share_min &&
      rec.ended_vms >= options.spot_min_ended_vms;
  rec.oversubscription_candidate =
      rec.dominant_pattern == analysis::UtilizationClass::kStable &&
      rec.p95_utilization <= options.oversub_p95_max &&
      rec.pattern_confidence > 0;
  rec.deferral_target =
      rec.dominant_pattern == analysis::UtilizationClass::kDiurnal &&
      rec.mean_utilization > 0 &&
      rec.p95_utilization / std::max(1e-9, rec.mean_utilization) >=
          options.deferral_peak_to_mean_min;
  rec.preprovision_target =
      rec.dominant_pattern == analysis::UtilizationClass::kHourlyPeak;
}

std::vector<SubscriptionKnowledge> extract_all(
    const AnalysisContext& ctx, const ExtractorOptions& options) {
  auto phase = ctx.phase("kb.extract", obs::Histogram::kKbExtractSeconds,
                         obs::Counter::kKbExtractions);
  const TraceStore& trace = ctx.trace();
  // Subscription ids are dense in [0, count) in every mode, so the fan-out
  // runs over indices — no resident subscription span needed.
  const std::size_t sub_count = trace.subscription_count();
  const auto sub_id = [](std::size_t i) {
    return SubscriptionId(static_cast<SubscriptionId::underlying>(i));
  };
  // Serial warm-up of the lazily-built subscription index before fanning
  // out; workers then only read.
  if (sub_count > 0) trace.vms_of_subscription(sub_id(0));

  // One slot per subscription; extraction of each subscription is
  // independent and deterministic, and slots are concatenated in
  // subscription order below, so the record list is bit-identical to the
  // old serial loop at any thread count. Under population sharding the
  // subscriptions run grouped by shard (every subscription's records live
  // in exactly one shard, by the router contract), with budget eviction
  // between shards — same slots, bounded RSS.
  std::vector<std::optional<SubscriptionKnowledge>> slots(sub_count);
  analysis::stream_by_shard(
      trace, sub_count, sub_id,
      [&](std::size_t i) {
        slots[i] = extract_subscription(ctx, sub_id(i), options);
      },
      ctx.parallel());

  std::vector<SubscriptionKnowledge> out;
  out.reserve(slots.size());
  for (const auto& rec : slots) {
    if (rec) out.push_back(*rec);
  }
  ctx.count(obs::Counter::kKbRecords, out.size());
  return out;
}

}  // namespace cloudlens::kb
