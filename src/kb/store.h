// The centralized workload knowledge base (Sec. V).
//
// Holds extracted SubscriptionKnowledge records and answers the queries the
// optimization policies need. Two persistent forms:
//  * CSV (to_csv/from_csv) — the user-facing kb.csv: readable, diffable,
//    doubles rounded for display, parsed strictly (located errors);
//  * a CLSN container (save_kb_snapshot/load_kb_snapshot) — the artifact
//    cache's exact form: doubles as bit patterns, so a cached kb is
//    bit-identical to the extraction that produced it.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "kb/record.h"

namespace cloudlens::kb {

class KnowledgeBase {
 public:
  KnowledgeBase() = default;
  explicit KnowledgeBase(std::vector<SubscriptionKnowledge> records);

  /// Insert or replace (keyed by subscription id).
  void upsert(SubscriptionKnowledge record);

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  std::span<const SubscriptionKnowledge> records() const { return records_; }

  const SubscriptionKnowledge* find(SubscriptionId sub) const;

  // --- Queries used by the policy layer ---------------------------------
  std::vector<const SubscriptionKnowledge*> by_cloud(CloudType cloud) const;
  std::vector<const SubscriptionKnowledge*> by_pattern(
      analysis::UtilizationClass pattern) const;
  std::vector<const SubscriptionKnowledge*> spot_candidates(
      CloudType cloud) const;
  std::vector<const SubscriptionKnowledge*> oversubscription_candidates(
      CloudType cloud) const;
  std::vector<const SubscriptionKnowledge*> region_agnostic_subscriptions(
      CloudType cloud) const;
  std::vector<const SubscriptionKnowledge*> where(
      const std::function<bool(const SubscriptionKnowledge&)>& pred) const;

  /// Aggregate summary per cloud (counts + candidate shares).
  struct CloudSummary {
    std::size_t subscriptions = 0;
    std::size_t vms = 0;
    double spot_candidate_share = 0;
    double oversub_candidate_share = 0;
    double region_agnostic_share = 0;
    double preprovision_share = 0;
  };
  CloudSummary summarize(CloudType cloud) const;

  // --- Persistence --------------------------------------------------------
  std::string to_csv() const;
  /// Parse a CSV produced by to_csv(). Every field is parsed strictly (no
  /// trailing garbage, no negative counts, only the exact enum and flag
  /// spellings); malformed input throws a CheckError naming the line and
  /// column.
  static KnowledgeBase from_csv(const std::string& csv);

 private:
  std::vector<SubscriptionKnowledge> records_;
  std::unordered_map<SubscriptionId, std::size_t> index_;
};

/// Exact binary form: one CLSN container (cloudsim/snapshot.h) with a
/// single snapshot_sections::kKnowledgeBase section. Doubles travel as bit
/// patterns; the load rejects unknown enum or flag bytes, truncation and
/// trailing bytes with CheckError.
void save_kb_snapshot(const KnowledgeBase& kb, std::ostream& out);
KnowledgeBase load_kb_snapshot(std::istream& in);

}  // namespace cloudlens::kb
