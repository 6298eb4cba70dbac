#include "analysis/context.h"
#include "analysis/utilization.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "testutil.h"
#include "workloads/patterns.h"

namespace cloudlens::analysis {
namespace {

class UtilizationTest : public ::testing::Test {
 protected:
  UtilizationTest() : topo_(test::tiny_topology()), fx_(topo_) {}
  Topology topo_;
  test::TraceFixture fx_;
  NodeId node_{test::first_node(topo_, CloudType::kPrivate)};
};

TEST_F(UtilizationTest, ConstantPopulationGivesFlatBands) {
  for (int i = 0; i < 5; ++i)
    fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node_, 1, -kDay, kNoEnd,
               std::make_shared<ConstantUtilization>(0.3));
  const auto dist = utilization_distribution(AnalysisContext(fx_.trace), CloudType::kPrivate);
  EXPECT_EQ(dist.vms_used, 5u);
  for (std::size_t t = 0; t < dist.weekly.grid.count; t += 13) {
    EXPECT_DOUBLE_EQ(dist.weekly.p25[t], 0.3);
    EXPECT_DOUBLE_EQ(dist.weekly.p50[t], 0.3);
    EXPECT_DOUBLE_EQ(dist.weekly.p95[t], 0.3);
  }
  for (int h = 0; h < 24; ++h) {
    EXPECT_DOUBLE_EQ(dist.daily_p50[h], 0.3);
  }
}

TEST_F(UtilizationTest, MixedLevelsOrderBands) {
  for (int i = 0; i < 10; ++i)
    fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node_, 1, -kDay, kNoEnd,
               std::make_shared<ConstantUtilization>(0.05 * (i + 1)));
  const auto dist = utilization_distribution(AnalysisContext(fx_.trace), CloudType::kPrivate);
  for (std::size_t t = 0; t < dist.weekly.grid.count; t += 29) {
    EXPECT_LT(dist.weekly.p25[t], dist.weekly.p50[t]);
    EXPECT_LT(dist.weekly.p50[t], dist.weekly.p75[t]);
    EXPECT_LT(dist.weekly.p75[t], dist.weekly.p95[t]);
  }
}

TEST_F(UtilizationTest, DiurnalPopulationShowsDailyProfile) {
  workloads::DiurnalUtilization::Params p;
  p.tz_offset_hours = 0;
  for (int i = 0; i < 8; ++i)
    fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node_, 1, -kDay, kNoEnd,
               std::make_shared<workloads::DiurnalUtilization>(p, 50 + i));
  const auto dist = utilization_distribution(AnalysisContext(fx_.trace), CloudType::kPrivate);
  // The paper's Fig. 6(c): the median near 14:00 clearly exceeds 03:00.
  EXPECT_GT(dist.daily_p50[14], dist.daily_p50[3] + 0.2);
}

TEST_F(UtilizationTest, ThrowsWithNoCoveringVms) {
  EXPECT_THROW(utilization_distribution(AnalysisContext(fx_.trace), CloudType::kPrivate),
               CheckError);
}

TEST_F(UtilizationTest, RegionUsedCoresAggregates) {
  // Two VMs at 0.5 x 4 cores each = 4 used cores, all week.
  for (int i = 0; i < 2; ++i)
    fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node_, 4, -kDay, kNoEnd,
               std::make_shared<ConstantUtilization>(0.5));
  const auto series =
      region_used_cores_hourly(AnalysisContext(fx_.trace), CloudType::kPrivate, RegionId(0));
  for (std::size_t i = 0; i < series.size(); i += 17)
    EXPECT_NEAR(series[i], 4.0, 1e-9);
}

TEST_F(UtilizationTest, RegionUsedCoresHonorsLifetime) {
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node_, 4, 0, kDay,
             std::make_shared<ConstantUtilization>(1.0));
  const auto series =
      region_used_cores_hourly(AnalysisContext(fx_.trace), CloudType::kPrivate, RegionId(0));
  EXPECT_NEAR(series[2], 4.0, 1e-9);    // during day 1
  EXPECT_NEAR(series[30], 0.0, 1e-9);   // day 2: VM gone
}

TEST_F(UtilizationTest, SamplingRescalesUnbiased) {
  // 40 identical VMs; sampling 10 should still estimate the full demand.
  for (int i = 0; i < 40; ++i)
    fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node_, 1, -kDay, kNoEnd,
               std::make_shared<ConstantUtilization>(0.5));
  const auto full = region_used_cores_hourly(AnalysisContext(fx_.trace), CloudType::kPrivate,
                                             RegionId(0), 0);
  const auto sampled = region_used_cores_hourly(AnalysisContext(fx_.trace), CloudType::kPrivate,
                                                RegionId(0), 10);
  EXPECT_NEAR(full[0], 20.0, 1e-9);
  EXPECT_NEAR(sampled[0], 20.0, 1e-9);
}

TEST_F(UtilizationTest, InvalidRegionAggregatesAllRegions) {
  const auto clusters1 = topo_.clusters_in(RegionId(1), CloudType::kPrivate);
  const NodeId node1 = topo_.cluster(clusters1[0]).nodes.front();
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node_, 2, -kDay, kNoEnd,
             std::make_shared<ConstantUtilization>(1.0));
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node1, 2, -kDay, kNoEnd,
             std::make_shared<ConstantUtilization>(1.0), RegionId(1));
  const auto all =
      region_used_cores_hourly(AnalysisContext(fx_.trace), CloudType::kPrivate, RegionId());
  EXPECT_NEAR(all[0], 4.0, 1e-9);
}

}  // namespace
}  // namespace cloudlens::analysis
