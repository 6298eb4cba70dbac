// The workload-aware advisor: the paper's Section V vision realized.
//
// "one first needs to abstract out the common optimization policies and
// then build a centralized workload knowledge base, which continuously
// extracts workload knowledge from telemetry signals ... and feeds them
// into the aforementioned optimization policies."
//
// The advisor consumes a KnowledgeBase plus the trace and emits one
// consolidated recommendation report per cloud, routing each subscription
// to the policies its knowledge record qualifies it for.
#pragma once

#include <string>
#include <vector>

#include "kb/store.h"
#include "policies/oversub.h"
#include "policies/rebalance.h"
#include "policies/spot.h"

namespace cloudlens::policies {

enum class ActionKind {
  kAdoptSpot,          ///< run this owner's short-lived VMs on spot capacity
  kOversubscribe,      ///< admit this owner under chance-constrained packing
  kDeferToValley,      ///< schedule this owner's deferrable work off-peak
  kPreprovision,       ///< pre-provision ahead of :00/:30 peaks
  kRegionRebalance,    ///< owner is region-agnostic: movable across regions
};

std::string_view to_string(ActionKind kind);

struct Recommendation {
  SubscriptionId subscription;
  ActionKind action = ActionKind::kAdoptSpot;
  /// Human-readable justification grounded in the knowledge record.
  std::string rationale;
  /// Rough impact proxy (cores touched by the action).
  double cores = 0;
};

struct AdvisorReport {
  CloudType cloud = CloudType::kPublic;
  std::vector<Recommendation> recommendations;
  /// Platform-level measurements backing the per-owner actions.
  SpotReport spot;
  OversubscriptionReport oversubscription;
  std::optional<ShiftOutcome> rebalance;  ///< private cloud only

  std::size_t count(ActionKind kind) const;
};

/// Build the per-cloud advisory from extracted knowledge. The platform
/// evaluations fan out over `parallel`; the report is bit-identical at any
/// thread count, with or without a built telemetry panel.
AdvisorReport advise(const TraceStore& trace, const kb::KnowledgeBase& kb,
                     CloudType cloud, const ParallelConfig& parallel = {});

/// Render the report as a console summary table.
std::string render_report(const TraceStore& trace, const AdvisorReport& report);

}  // namespace cloudlens::policies
