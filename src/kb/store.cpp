#include "kb/store.h"

#include <sstream>

#include "cloudsim/snapshot.h"
#include "common/check.h"
#include "ingest/csv.h"
#include "ingest/ingest.h"

namespace cloudlens::kb {
namespace {

/// File name the located errors of from_csv carry.
const std::string kCsvFile = "kb.csv";

constexpr analysis::UtilizationClass kPatterns[] = {
    analysis::UtilizationClass::kDiurnal, analysis::UtilizationClass::kStable,
    analysis::UtilizationClass::kIrregular,
    analysis::UtilizationClass::kHourlyPeak};

analysis::UtilizationClass parse_pattern(const ingest::CsvRow& row,
                                         std::size_t col) {
  for (const analysis::UtilizationClass c : kPatterns) {
    if (row.field(col) == analysis::to_string(c)) return c;
  }
  row.fail(col, "diurnal|stable|irregular|hourly-peak");
}

bool parse_flag(const ingest::CsvRow& row, std::size_t col) {
  const std::string_view text = row.field(col);
  if (text == "0" || text == "1") return text == "1";
  row.fail(col, "0|1");
}

}  // namespace

KnowledgeBase::KnowledgeBase(std::vector<SubscriptionKnowledge> records) {
  for (auto& r : records) upsert(std::move(r));
}

void KnowledgeBase::upsert(SubscriptionKnowledge record) {
  const auto it = index_.find(record.subscription);
  if (it != index_.end()) {
    records_[it->second] = std::move(record);
    return;
  }
  index_.emplace(record.subscription, records_.size());
  records_.push_back(std::move(record));
}

const SubscriptionKnowledge* KnowledgeBase::find(SubscriptionId sub) const {
  const auto it = index_.find(sub);
  return it == index_.end() ? nullptr : &records_[it->second];
}

std::vector<const SubscriptionKnowledge*> KnowledgeBase::where(
    const std::function<bool(const SubscriptionKnowledge&)>& pred) const {
  std::vector<const SubscriptionKnowledge*> out;
  for (const auto& r : records_) {
    if (pred(r)) out.push_back(&r);
  }
  return out;
}

std::vector<const SubscriptionKnowledge*> KnowledgeBase::by_cloud(
    CloudType cloud) const {
  return where([cloud](const auto& r) { return r.cloud == cloud; });
}

std::vector<const SubscriptionKnowledge*> KnowledgeBase::by_pattern(
    analysis::UtilizationClass pattern) const {
  return where(
      [pattern](const auto& r) { return r.dominant_pattern == pattern; });
}

std::vector<const SubscriptionKnowledge*> KnowledgeBase::spot_candidates(
    CloudType cloud) const {
  return where([cloud](const auto& r) {
    return r.cloud == cloud && r.spot_candidate;
  });
}

std::vector<const SubscriptionKnowledge*>
KnowledgeBase::oversubscription_candidates(CloudType cloud) const {
  return where([cloud](const auto& r) {
    return r.cloud == cloud && r.oversubscription_candidate;
  });
}

std::vector<const SubscriptionKnowledge*>
KnowledgeBase::region_agnostic_subscriptions(CloudType cloud) const {
  return where([cloud](const auto& r) {
    return r.cloud == cloud && r.region_agnostic;
  });
}

KnowledgeBase::CloudSummary KnowledgeBase::summarize(CloudType cloud) const {
  CloudSummary s;
  for (const auto& r : records_) {
    if (r.cloud != cloud) continue;
    ++s.subscriptions;
    s.vms += r.vm_count;
    s.spot_candidate_share += r.spot_candidate ? 1 : 0;
    s.oversub_candidate_share += r.oversubscription_candidate ? 1 : 0;
    s.region_agnostic_share += r.region_agnostic ? 1 : 0;
    s.preprovision_share += r.preprovision_target ? 1 : 0;
  }
  if (s.subscriptions > 0) {
    const auto n = static_cast<double>(s.subscriptions);
    s.spot_candidate_share /= n;
    s.oversub_candidate_share /= n;
    s.region_agnostic_share /= n;
    s.preprovision_share /= n;
  }
  return s;
}

std::string KnowledgeBase::to_csv() const {
  std::ostringstream os;
  os << csv_header() << '\n';
  for (const auto& r : records_) os << to_csv_row(r) << '\n';
  return os.str();
}

KnowledgeBase KnowledgeBase::from_csv(const std::string& csv) {
  std::istringstream is(csv);
  std::string line;
  CL_CHECK_MSG(ingest::read_csv_line(is, line), "empty knowledge base CSV");
  CL_CHECK_MSG(line == csv_header(),
               kCsvFile << ":1: unexpected knowledge base CSV header");

  KnowledgeBase kb;
  std::vector<std::string_view> fields;
  for (std::uint64_t number = 2; ingest::read_csv_line(is, line); ++number) {
    if (line.empty()) continue;
    ingest::split_fields(line, fields);
    const ingest::CsvRow row(fields, &kCsvFile, number);
    row.expect_fields(19);
    SubscriptionKnowledge r;
    r.subscription = SubscriptionId(ingest::parse_id(row, 0));
    r.cloud = ingest::parse_cloud(row, 1);
    r.party = ingest::parse_party(row, 2);
    if (row.field(3) != "-") r.service = ServiceId(ingest::parse_id(row, 3));
    r.vm_count = row.u64(4);
    r.total_cores = row.f64(5);
    r.region_count = row.u64(6);
    r.short_lifetime_share = row.f64(7);
    r.ended_vms = row.u64(8);
    r.dominant_pattern = parse_pattern(row, 9);
    r.pattern_confidence = row.f64(10);
    r.mean_utilization = row.f64(11);
    r.p95_utilization = row.f64(12);
    r.cross_region_correlation = row.f64(13);
    r.region_agnostic = parse_flag(row, 14);
    r.spot_candidate = parse_flag(row, 15);
    r.oversubscription_candidate = parse_flag(row, 16);
    r.deferral_target = parse_flag(row, 17);
    r.preprovision_target = parse_flag(row, 18);
    kb.upsert(std::move(r));
  }
  return kb;
}

namespace {

// Record flags, one bit each, in SubscriptionKnowledge field order.
constexpr std::uint8_t kRegionAgnostic = 1;
constexpr std::uint8_t kSpotCandidate = 2;
constexpr std::uint8_t kOversubCandidate = 4;
constexpr std::uint8_t kDeferralTarget = 8;
constexpr std::uint8_t kPreprovisionTarget = 16;
constexpr std::uint8_t kAllFlags = 31;

/// One byte of an enum with `count` values; anything else is corrupt.
std::uint8_t enum_byte(snapshot_codec::Reader& r, std::uint8_t count,
                       const char* what) {
  const std::uint8_t v = r.u8();
  CL_CHECK_MSG(v < count, "kb snapshot: bad " << what << " byte "
                                              << static_cast<int>(v));
  return v;
}

}  // namespace

void save_kb_snapshot(const KnowledgeBase& kb, std::ostream& out) {
  using namespace snapshot_codec;
  std::string payload;
  append_u64(payload, kb.size());
  for (const SubscriptionKnowledge& r : kb.records()) {
    append_u32(payload, r.subscription.value());
    append_u8(payload, r.cloud == CloudType::kPrivate ? 0 : 1);
    append_u8(payload, r.party == PartyType::kFirstParty ? 0 : 1);
    append_u32(payload, r.service.value());
    append_u64(payload, r.vm_count);
    append_f64(payload, r.total_cores);
    append_u64(payload, r.region_count);
    append_f64(payload, r.short_lifetime_share);
    append_u64(payload, r.ended_vms);
    append_u8(payload, static_cast<std::uint8_t>(r.dominant_pattern));
    append_f64(payload, r.pattern_confidence);
    append_f64(payload, r.mean_utilization);
    append_f64(payload, r.p95_utilization);
    append_f64(payload, r.cross_region_correlation);
    append_u8(payload,
              (r.region_agnostic ? kRegionAgnostic : 0) |
                  (r.spot_candidate ? kSpotCandidate : 0) |
                  (r.oversubscription_candidate ? kOversubCandidate : 0) |
                  (r.deferral_target ? kDeferralTarget : 0) |
                  (r.preprovision_target ? kPreprovisionTarget : 0));
  }
  write_container(
      out, {staged_section(snapshot_sections::kKnowledgeBase, payload)});
}

KnowledgeBase load_kb_snapshot(std::istream& in) {
  const SnapshotMapping container(in);
  snapshot_codec::Reader r(
      container.section(snapshot_sections::kKnowledgeBase));
  KnowledgeBase kb;
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    SubscriptionKnowledge k;
    k.subscription = SubscriptionId(r.u32());
    k.cloud = enum_byte(r, 2, "cloud") == 0 ? CloudType::kPrivate
                                            : CloudType::kPublic;
    k.party = enum_byte(r, 2, "party") == 0 ? PartyType::kFirstParty
                                            : PartyType::kThirdParty;
    k.service = ServiceId(r.u32());
    k.vm_count = r.u64();
    k.total_cores = r.f64();
    k.region_count = r.u64();
    k.short_lifetime_share = r.f64();
    k.ended_vms = r.u64();
    k.dominant_pattern = kPatterns[enum_byte(r, 4, "pattern")];
    k.pattern_confidence = r.f64();
    k.mean_utilization = r.f64();
    k.p95_utilization = r.f64();
    k.cross_region_correlation = r.f64();
    const std::uint8_t flags = enum_byte(r, kAllFlags + 1, "flags");
    k.region_agnostic = (flags & kRegionAgnostic) != 0;
    k.spot_candidate = (flags & kSpotCandidate) != 0;
    k.oversubscription_candidate = (flags & kOversubCandidate) != 0;
    k.deferral_target = (flags & kDeferralTarget) != 0;
    k.preprovision_target = (flags & kPreprovisionTarget) != 0;
    kb.upsert(std::move(k));
  }
  CL_CHECK_MSG(r.done(), "kb snapshot: trailing bytes after the records");
  return kb;
}

}  // namespace cloudlens::kb
