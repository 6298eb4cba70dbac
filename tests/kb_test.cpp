#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "analysis/context.h"
#include "cloudsim/snapshot.h"
#include "common/check.h"
#include "kb/extractor.h"
#include "kb/store.h"
#include "testutil.h"
#include "workloads/patterns.h"

namespace cloudlens::kb {
namespace {

using analysis::UtilizationClass;
using workloads::DiurnalUtilization;
using workloads::HourlyPeakUtilization;
using workloads::StableUtilization;

class ExtractorTest : public ::testing::Test {
 protected:
  ExtractorTest() : topo_(test::tiny_topology()), fx_(topo_) {}

  NodeId node_in_region(int region, CloudType cloud) {
    const auto clusters = topo_.clusters_in(RegionId(region), cloud);
    return topo_.cluster(clusters[0]).nodes.front();
  }

  Topology topo_;
  test::TraceFixture fx_;
};

TEST_F(ExtractorTest, EmptySubscriptionGivesNullopt) {
  EXPECT_FALSE(
      extract_subscription(AnalysisContext(fx_.trace), fx_.private_sub).has_value());
}

TEST_F(ExtractorTest, DeploymentFields) {
  const NodeId n0 = node_in_region(0, CloudType::kPrivate);
  const NodeId n1 = node_in_region(1, CloudType::kPrivate);
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub, n0, 4, -kDay, kNoEnd,
             std::make_shared<ConstantUtilization>(0.2));
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub, n1, 8, -kDay, kNoEnd,
             std::make_shared<ConstantUtilization>(0.2), RegionId(1));
  const auto rec = extract_subscription(AnalysisContext(fx_.trace), fx_.private_sub);
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->vm_count, 2u);
  EXPECT_DOUBLE_EQ(rec->total_cores, 12);
  EXPECT_EQ(rec->region_count, 2u);
  EXPECT_EQ(rec->cloud, CloudType::kPrivate);
  EXPECT_EQ(rec->party, PartyType::kFirstParty);
}

TEST_F(ExtractorTest, ShortLifetimeShare) {
  const NodeId node = node_in_region(0, CloudType::kPublic);
  // 3 short-lived, 1 long-lived, all inside the window.
  for (int i = 0; i < 3; ++i)
    fx_.add_vm(CloudType::kPublic, fx_.public_sub, node, 1, kHour,
               kHour + 10 * kMinute);
  fx_.add_vm(CloudType::kPublic, fx_.public_sub, node, 1, kHour, kDay);
  const auto rec = extract_subscription(AnalysisContext(fx_.trace), fx_.public_sub);
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->ended_vms, 4u);
  EXPECT_NEAR(rec->short_lifetime_share, 0.75, 1e-9);
}

TEST_F(ExtractorTest, DominantPatternAndConfidence) {
  const NodeId node = node_in_region(0, CloudType::kPrivate);
  for (int i = 0; i < 3; ++i)
    fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 2, -kDay, kNoEnd,
               std::make_shared<DiurnalUtilization>(
                   DiurnalUtilization::Params{}, 10 + i));
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 2, -kDay, kNoEnd,
             std::make_shared<StableUtilization>(StableUtilization::Params{},
                                                 20));
  ExtractorOptions options;
  options.max_classified_vms = 0;  // classify all
  const auto rec = extract_subscription(AnalysisContext(fx_.trace), fx_.private_sub, options);
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->dominant_pattern, UtilizationClass::kDiurnal);
  EXPECT_NEAR(rec->pattern_confidence, 0.75, 1e-9);
  EXPECT_GT(rec->mean_utilization, 0.0);
  EXPECT_GT(rec->p95_utilization, rec->mean_utilization);
}

TEST_F(ExtractorTest, SpotCandidateHint) {
  const NodeId node = node_in_region(0, CloudType::kPublic);
  for (int i = 0; i < 10; ++i)
    fx_.add_vm(CloudType::kPublic, fx_.public_sub, node, 1, i * kHour,
               i * kHour + 10 * kMinute);
  const auto rec = extract_subscription(AnalysisContext(fx_.trace), fx_.public_sub);
  ASSERT_TRUE(rec);
  EXPECT_TRUE(rec->spot_candidate);
}

TEST_F(ExtractorTest, OversubCandidateHint) {
  const NodeId node = node_in_region(0, CloudType::kPublic);
  StableUtilization::Params p;
  p.level = 0.15;
  for (int i = 0; i < 3; ++i)
    fx_.add_vm(CloudType::kPublic, fx_.public_sub, node, 2, -kDay, kNoEnd,
               std::make_shared<StableUtilization>(p, 30 + i));
  const auto rec = extract_subscription(AnalysisContext(fx_.trace), fx_.public_sub);
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->dominant_pattern, UtilizationClass::kStable);
  EXPECT_TRUE(rec->oversubscription_candidate);
  EXPECT_FALSE(rec->spot_candidate);
}

TEST_F(ExtractorTest, PreprovisionHint) {
  const NodeId node = node_in_region(0, CloudType::kPrivate);
  for (int i = 0; i < 3; ++i)
    fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 2, -kDay, kNoEnd,
               std::make_shared<HourlyPeakUtilization>(
                   HourlyPeakUtilization::Params{}, 40 + i));
  const auto rec = extract_subscription(AnalysisContext(fx_.trace), fx_.private_sub);
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->dominant_pattern, UtilizationClass::kHourlyPeak);
  EXPECT_TRUE(rec->preprovision_target);
}

TEST_F(ExtractorTest, RegionAgnosticDetection) {
  const NodeId n0 = node_in_region(0, CloudType::kPrivate);
  const NodeId n1 = node_in_region(1, CloudType::kPrivate);
  DiurnalUtilization::Params p;
  p.tz_offset_hours = -5;  // same anchor in both regions
  p.noise_sigma = 0.02;
  for (int i = 0; i < 3; ++i) {
    fx_.add_vm(CloudType::kPrivate, fx_.private_sub, n0, 2, -kDay, kNoEnd,
               std::make_shared<DiurnalUtilization>(p, 50 + i));
    fx_.add_vm(CloudType::kPrivate, fx_.private_sub, n1, 2, -kDay, kNoEnd,
               std::make_shared<DiurnalUtilization>(p, 60 + i), RegionId(1));
  }
  const auto rec = extract_subscription(AnalysisContext(fx_.trace), fx_.private_sub);
  ASSERT_TRUE(rec);
  EXPECT_TRUE(rec->region_agnostic);
  EXPECT_GT(rec->cross_region_correlation, 0.7);
}

TEST_F(ExtractorTest, ExtractAllSkipsEmpty) {
  const NodeId node = node_in_region(0, CloudType::kPublic);
  fx_.add_vm(CloudType::kPublic, fx_.public_sub, node, 1, 0, kNoEnd,
             std::make_shared<ConstantUtilization>(0.1));
  const auto records = extract_all(AnalysisContext(fx_.trace));
  ASSERT_EQ(records.size(), 1u);  // private sub has no VMs
  EXPECT_EQ(records[0].subscription, fx_.public_sub);
}

SubscriptionKnowledge sample_record(std::uint32_t id, CloudType cloud) {
  SubscriptionKnowledge r;
  r.subscription = SubscriptionId(id);
  r.cloud = cloud;
  r.party = PartyType::kThirdParty;
  r.vm_count = 10;
  r.total_cores = 42.5;
  r.region_count = 2;
  r.short_lifetime_share = 0.8125;
  r.ended_vms = 16;
  r.dominant_pattern = UtilizationClass::kDiurnal;
  r.pattern_confidence = 0.75;
  r.mean_utilization = 0.18;
  r.p95_utilization = 0.52;
  r.cross_region_correlation = 0.91;
  r.region_agnostic = true;
  r.spot_candidate = true;
  return r;
}

TEST(KnowledgeBaseTest, UpsertAndFind) {
  KnowledgeBase kb;
  kb.upsert(sample_record(1, CloudType::kPublic));
  EXPECT_EQ(kb.size(), 1u);
  ASSERT_NE(kb.find(SubscriptionId(1)), nullptr);
  EXPECT_EQ(kb.find(SubscriptionId(2)), nullptr);

  auto updated = sample_record(1, CloudType::kPublic);
  updated.vm_count = 99;
  kb.upsert(updated);
  EXPECT_EQ(kb.size(), 1u);
  EXPECT_EQ(kb.find(SubscriptionId(1))->vm_count, 99u);
}

TEST(KnowledgeBaseTest, Queries) {
  KnowledgeBase kb;
  kb.upsert(sample_record(1, CloudType::kPublic));
  auto priv = sample_record(2, CloudType::kPrivate);
  priv.dominant_pattern = UtilizationClass::kStable;
  priv.spot_candidate = false;
  priv.oversubscription_candidate = true;
  kb.upsert(priv);

  EXPECT_EQ(kb.by_cloud(CloudType::kPublic).size(), 1u);
  EXPECT_EQ(kb.by_pattern(UtilizationClass::kStable).size(), 1u);
  EXPECT_EQ(kb.spot_candidates(CloudType::kPublic).size(), 1u);
  EXPECT_EQ(kb.spot_candidates(CloudType::kPrivate).size(), 0u);
  EXPECT_EQ(kb.oversubscription_candidates(CloudType::kPrivate).size(), 1u);
  EXPECT_EQ(kb.region_agnostic_subscriptions(CloudType::kPublic).size(), 1u);
  EXPECT_EQ(kb.where([](const auto& r) { return r.vm_count == 10; }).size(),
            2u);
}

TEST(KnowledgeBaseTest, Summary) {
  KnowledgeBase kb;
  kb.upsert(sample_record(1, CloudType::kPublic));
  auto r2 = sample_record(2, CloudType::kPublic);
  r2.spot_candidate = false;
  r2.region_agnostic = false;
  kb.upsert(r2);
  const auto summary = kb.summarize(CloudType::kPublic);
  EXPECT_EQ(summary.subscriptions, 2u);
  EXPECT_EQ(summary.vms, 20u);
  EXPECT_NEAR(summary.spot_candidate_share, 0.5, 1e-9);
  EXPECT_NEAR(summary.region_agnostic_share, 0.5, 1e-9);
  EXPECT_EQ(kb.summarize(CloudType::kPrivate).subscriptions, 0u);
}

TEST(KnowledgeBaseTest, CsvRoundTrip) {
  KnowledgeBase kb;
  kb.upsert(sample_record(1, CloudType::kPublic));
  auto r2 = sample_record(7, CloudType::kPrivate);
  r2.service = ServiceId(3);
  r2.party = PartyType::kFirstParty;
  r2.dominant_pattern = UtilizationClass::kHourlyPeak;
  kb.upsert(r2);

  const KnowledgeBase restored = KnowledgeBase::from_csv(kb.to_csv());
  ASSERT_EQ(restored.size(), 2u);
  const auto* a = restored.find(SubscriptionId(1));
  const auto* b = restored.find(SubscriptionId(7));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->cloud, CloudType::kPublic);
  EXPECT_EQ(a->vm_count, 10u);
  EXPECT_NEAR(a->short_lifetime_share, 0.8125, 1e-9);
  EXPECT_TRUE(a->region_agnostic);
  EXPECT_TRUE(a->spot_candidate);
  EXPECT_EQ(b->service, ServiceId(3));
  EXPECT_EQ(b->party, PartyType::kFirstParty);
  EXPECT_EQ(b->dominant_pattern, UtilizationClass::kHourlyPeak);
  EXPECT_NEAR(b->total_cores, 42.5, 1e-9);
}

TEST(KnowledgeBaseTest, FromCsvRejectsGarbage) {
  EXPECT_THROW(KnowledgeBase::from_csv(""), CheckError);
  EXPECT_THROW(KnowledgeBase::from_csv("not,a,header\n"), CheckError);
  EXPECT_THROW(KnowledgeBase::from_csv(csv_header() + "\n1,2,3\n"),
               CheckError);
}

/// from_csv over one to_csv() row of sample_record(1) whose field `col`
/// (0-based) reads `text` instead: it must fail with an error that names
/// line 2 and the 1-based column.
void expect_field_rejected(std::size_t col, const std::string& text) {
  std::vector<std::string> fields;
  std::istringstream row(to_csv_row(sample_record(1, CloudType::kPublic)));
  for (std::string f; std::getline(row, f, ',');) fields.push_back(f);
  ASSERT_EQ(fields.size(), 19u);
  fields[col] = text;
  std::string line;
  for (const std::string& f : fields) line += (line.empty() ? "" : ",") + f;
  try {
    KnowledgeBase::from_csv(csv_header() + "\n" + line + "\n");
    ADD_FAILURE() << "accepted '" << text << "' in column " << col + 1;
  } catch (const CheckError& e) {
    const std::string where = "kb.csv:2: column " + std::to_string(col + 1);
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << e.what();
  }
}

TEST(KnowledgeBaseTest, FromCsvRejectsTrailingGarbageInADouble) {
  expect_field_rejected(7, "0.5x");  // short_lifetime_share
}

TEST(KnowledgeBaseTest, FromCsvRejectsANegativeCount) {
  expect_field_rejected(4, "-1");  // vm_count
}

TEST(KnowledgeBaseTest, FromCsvRejectsAnUnknownCloud) {
  expect_field_rejected(1, "privat");
}

TEST(KnowledgeBaseTest, FromCsvRejectsAnUnknownParty) {
  expect_field_rejected(2, "first_party");
}

TEST(KnowledgeBaseTest, FromCsvRejectsAFlagOtherThanZeroOrOne) {
  expect_field_rejected(14, "yes");  // region_agnostic
}

std::string kb_snapshot_bytes(const KnowledgeBase& kb) {
  std::ostringstream out(std::ios::binary);
  save_kb_snapshot(kb, out);
  return out.str();
}

KnowledgeBase kb_from_snapshot(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return load_kb_snapshot(in);
}

TEST(KnowledgeBaseTest, SnapshotRoundTripIsBitExact) {
  // Doubles the CSV would round (or cannot print) and every enum value
  // and flag must come back bit for bit.
  const double awkward[] = {1.0 / 3.0,
                            -0.0,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::denorm_min(),
                            0.99996};
  const UtilizationClass patterns[] = {
      UtilizationClass::kDiurnal, UtilizationClass::kStable,
      UtilizationClass::kIrregular, UtilizationClass::kHourlyPeak};
  KnowledgeBase kb;
  for (std::uint32_t i = 0; i < 32; ++i) {
    auto r = sample_record(100 + i, i % 2 ? CloudType::kPrivate
                                          : CloudType::kPublic);
    r.party = i % 3 ? PartyType::kThirdParty : PartyType::kFirstParty;
    r.service = i % 3 ? ServiceId() : ServiceId(i);
    r.vm_count = std::size_t{1} << (i % 40);
    r.total_cores = awkward[i % 5];
    r.short_lifetime_share = awkward[(i + 1) % 5];
    r.pattern_confidence = awkward[(i + 2) % 5];
    r.mean_utilization = awkward[(i + 3) % 5];
    r.p95_utilization = awkward[(i + 4) % 5];
    r.cross_region_correlation = -awkward[i % 5];
    r.dominant_pattern = patterns[i % 4];
    r.region_agnostic = (i & 1) != 0;
    r.spot_candidate = (i & 2) != 0;
    r.oversubscription_candidate = (i & 4) != 0;
    r.deferral_target = (i & 8) != 0;
    r.preprovision_target = (i & 16) != 0;
    kb.upsert(r);
  }
  const std::string bytes = kb_snapshot_bytes(kb);
  const KnowledgeBase loaded = kb_from_snapshot(bytes);
  test::expect_same_knowledge(kb, loaded);
  EXPECT_EQ(kb_snapshot_bytes(loaded), bytes);
  EXPECT_EQ(kb_from_snapshot(kb_snapshot_bytes(KnowledgeBase())).size(), 0u);
}

TEST(KnowledgeBaseTest, SnapshotRejectsCorruptBytes) {
  KnowledgeBase kb;
  kb.upsert(sample_record(1, CloudType::kPublic));
  const std::string bytes = kb_snapshot_bytes(kb);
  // One-section container: 16-byte header + one 24-byte table entry, then
  // the payload: u64 record count, then the record. Byte offsets of the
  // record's enum bytes: cloud +4, pattern +50, flags +83.
  const std::size_t record = 16 + 24 + 8;
  const auto corrupt = [&](std::size_t at, char value) {
    std::string b = bytes;
    b.at(at) = value;
    return b;
  };
  EXPECT_EQ(kb_from_snapshot(corrupt(record + 4, 1)).records()[0].cloud,
            CloudType::kPublic);  // the offsets are right
  EXPECT_THROW(kb_from_snapshot(corrupt(record + 4, 2)), CheckError);
  EXPECT_THROW(kb_from_snapshot(corrupt(record + 50, 4)), CheckError);
  EXPECT_THROW(kb_from_snapshot(corrupt(record + 83, 32)), CheckError);
  EXPECT_THROW(kb_from_snapshot(bytes.substr(0, bytes.size() - 1)),
               CheckError);

  // A record count past the payload, trailing bytes after the records,
  // and a container without the kb section all fail too.
  EXPECT_THROW(kb_from_snapshot(corrupt(16 + 24, 2)), CheckError);
  const std::string payload = bytes.substr(16 + 24) + "x";
  std::ostringstream trailing(std::ios::binary);
  write_container(trailing, {staged_section(
                                snapshot_sections::kKnowledgeBase, payload)});
  EXPECT_THROW(kb_from_snapshot(trailing.str()), CheckError);
  std::ostringstream other(std::ios::binary);
  write_container(other, {staged_section(snapshot_sections::kPopulationMeta,
                                         payload)});
  EXPECT_THROW(kb_from_snapshot(other.str()), CheckError);
}

TEST(KnowledgeBaseTest, ConstructFromVector) {
  std::vector<SubscriptionKnowledge> records = {
      sample_record(1, CloudType::kPublic),
      sample_record(2, CloudType::kPrivate)};
  const KnowledgeBase kb(std::move(records));
  EXPECT_EQ(kb.size(), 2u);
}

}  // namespace
}  // namespace cloudlens::kb
