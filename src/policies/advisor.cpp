#include "policies/advisor.h"

#include <sstream>

#include "common/table.h"
#include "obs/metrics.h"
#include "obs/phase_timer.h"

namespace cloudlens::policies {
namespace {

/// Decision counter for one recommendation kind (write-only side channel).
obs::Counter counter_for(ActionKind kind) {
  switch (kind) {
    case ActionKind::kAdoptSpot: return obs::Counter::kPolicySpot;
    case ActionKind::kOversubscribe: return obs::Counter::kPolicyOversub;
    case ActionKind::kDeferToValley: return obs::Counter::kPolicyDeferral;
    case ActionKind::kPreprovision: return obs::Counter::kPolicyPreprovision;
    default: return obs::Counter::kPolicyRebalance;
  }
}

}  // namespace

std::string_view to_string(ActionKind kind) {
  switch (kind) {
    case ActionKind::kAdoptSpot: return "adopt-spot";
    case ActionKind::kOversubscribe: return "oversubscribe";
    case ActionKind::kDeferToValley: return "defer-to-valley";
    case ActionKind::kPreprovision: return "preprovision";
    default: return "region-rebalance";
  }
}

std::size_t AdvisorReport::count(ActionKind kind) const {
  std::size_t n = 0;
  for (const auto& r : recommendations) {
    if (r.action == kind) ++n;
  }
  return n;
}

AdvisorReport advise(const TraceStore& trace, const kb::KnowledgeBase& kb,
                     CloudType cloud, const ParallelConfig& parallel) {
  AdvisorReport report;
  report.cloud = cloud;

  for (const auto* rec : kb.by_cloud(cloud)) {
    std::ostringstream why;
    if (rec->spot_candidate) {
      Recommendation r;
      r.subscription = rec->subscription;
      r.action = ActionKind::kAdoptSpot;
      why << "short-lifetime share "
          << format_double(rec->short_lifetime_share, 2) << " over "
          << rec->ended_vms << " ended VMs";
      r.rationale = why.str();
      r.cores = rec->total_cores;
      report.recommendations.push_back(std::move(r));
    }
    if (rec->oversubscription_candidate) {
      Recommendation r;
      r.subscription = rec->subscription;
      r.action = ActionKind::kOversubscribe;
      r.rationale = "stable pattern, p95 utilization " +
                    format_double(rec->p95_utilization, 2);
      r.cores = rec->total_cores;
      report.recommendations.push_back(std::move(r));
    }
    if (rec->deferral_target) {
      Recommendation r;
      r.subscription = rec->subscription;
      r.action = ActionKind::kDeferToValley;
      r.rationale = "diurnal with peak/mean " +
                    format_double(rec->p95_utilization /
                                      std::max(1e-9, rec->mean_utilization),
                                  1);
      r.cores = rec->total_cores;
      report.recommendations.push_back(std::move(r));
    }
    if (rec->preprovision_target) {
      Recommendation r;
      r.subscription = rec->subscription;
      r.action = ActionKind::kPreprovision;
      r.rationale = "hourly-peak pattern (confidence " +
                    format_double(rec->pattern_confidence, 2) + ")";
      r.cores = rec->total_cores;
      report.recommendations.push_back(std::move(r));
    }
    if (rec->region_agnostic) {
      Recommendation r;
      r.subscription = rec->subscription;
      r.action = ActionKind::kRegionRebalance;
      r.rationale = "cross-region correlation " +
                    format_double(rec->cross_region_correlation, 2) +
                    " over " + std::to_string(rec->region_count) + " regions";
      r.cores = rec->total_cores;
      report.recommendations.push_back(std::move(r));
    }
  }

  auto& metrics = obs::MetricsRegistry::global();
  metrics.add(obs::Counter::kPolicyRecommendations,
              report.recommendations.size());
  for (const auto& r : report.recommendations) metrics.add(counter_for(r.action));

  // Platform-level evaluations backing the advisory, one phase each.
  const auto phase = [](std::string_view name) {
    return obs::PhaseTimer(name, obs::Histogram::kPolicyEvaluateSeconds,
                           obs::Counter::kPolicyEvaluations);
  };
  {
    const auto timer = phase("policies.spot");
    report.spot = evaluate_spot_adoption(trace, cloud);
  }
  {
    const auto timer = phase("policies.oversubscription");
    report.oversubscription =
        evaluate_oversubscription(trace, cloud, {}, parallel);
  }
  if (cloud == CloudType::kPrivate) {
    const auto timer = phase("policies.rebalance");
    if (const auto shift = recommend_shift(trace, cloud, {}, parallel))
      report.rebalance = evaluate_shift(trace, cloud, *shift, {}, parallel);
  }
  return report;
}

std::string render_report(const TraceStore& trace,
                          const AdvisorReport& report) {
  std::ostringstream os;
  os << "Workload-aware advisory for the " << to_string(report.cloud)
     << " cloud\n";

  TextTable summary({"action", "subscriptions", "cores touched"});
  for (const ActionKind kind :
       {ActionKind::kAdoptSpot, ActionKind::kOversubscribe,
        ActionKind::kDeferToValley, ActionKind::kPreprovision,
        ActionKind::kRegionRebalance}) {
    double cores = 0;
    for (const auto& r : report.recommendations) {
      if (r.action == kind) cores += r.cores;
    }
    summary.row()
        .add(std::string(to_string(kind)))
        .add(report.count(kind))
        .add(cores, 0);
  }
  os << summary.to_string();

  os << "\nplatform evaluations:\n"
     << "  spot: candidate share "
     << format_double(report.spot.candidate_share, 2) << ", projected savings "
     << format_double(100 * report.spot.cost_savings_fraction, 1) << "%\n"
     << "  oversubscription (q=0.99): +"
     << format_double(100 * report.oversubscription.utilization_improvement, 1)
     << "% effective utilization, violation rate "
     << format_double(report.oversubscription.violation_rate, 4) << "\n";
  if (report.rebalance) {
    const auto& shift = *report.rebalance;
    os << "  rebalance: move "
       << trace.service(shift.shift.service).name << " from "
       << trace.topology().region(shift.shift.from).name << " to "
       << trace.topology().region(shift.shift.to).name << " ("
       << format_double(shift.shift.cores_moved, 0) << " cores); source "
       << "underutilized "
       << format_double(100 * shift.source_before.underutilized_core_pct, 1)
       << "% -> "
       << format_double(100 * shift.source_after.underutilized_core_pct, 1)
       << "%\n";
  }

  // Top recommendations by cores.
  auto sorted = report.recommendations;
  std::sort(sorted.begin(), sorted.end(),
            [](const Recommendation& a, const Recommendation& b) {
              return a.cores > b.cores;
            });
  TextTable top({"subscription", "action", "cores", "rationale"});
  for (std::size_t i = 0; i < sorted.size() && i < 8; ++i) {
    std::ostringstream sub;
    sub << sorted[i].subscription;
    top.row()
        .add(sub.str())
        .add(std::string(to_string(sorted[i].action)))
        .add(sorted[i].cores, 0)
        .add(sorted[i].rationale);
  }
  os << "\ntop recommendations:\n" << top.to_string();
  return os.str();
}

}  // namespace cloudlens::policies
