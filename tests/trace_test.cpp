#include "cloudsim/trace.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "testutil.h"

namespace cloudlens {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : topo_(test::tiny_topology()), fx_(topo_) {}
  Topology topo_;
  test::TraceFixture fx_;
};

TEST_F(TraceTest, AddAndLookupEntities) {
  ServiceInfo svc;
  svc.name = "svc";
  svc.region_agnostic = true;
  const ServiceId service = fx_.trace.add_service(svc);
  EXPECT_EQ(fx_.trace.service(service).name, "svc");
  EXPECT_TRUE(fx_.trace.service(service).region_agnostic);
  EXPECT_EQ(fx_.trace.services().size(), 1u);
  EXPECT_EQ(fx_.trace.subscriptions().size(), 2u);
}

TEST_F(TraceTest, VmRecordBasics) {
  const NodeId node = test::first_node(topo_, CloudType::kPrivate);
  const VmId id = fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 4,
                             kHour, 3 * kHour);
  const VmRecord& vm = fx_.trace.vm(id);
  EXPECT_TRUE(vm.placed());
  EXPECT_TRUE(vm.ended());
  EXPECT_EQ(vm.lifetime(), 2 * kHour);
  EXPECT_TRUE(vm.alive_at(kHour));
  EXPECT_TRUE(vm.alive_at(3 * kHour - 1));
  EXPECT_FALSE(vm.alive_at(3 * kHour));
  EXPECT_FALSE(vm.alive_at(0));
}

TEST_F(TraceTest, CoversRequiresFullWindow) {
  const NodeId node = test::first_node(topo_, CloudType::kPrivate);
  const TimeGrid& grid = fx_.trace.telemetry_grid();
  const VmId full = fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 4,
                               -kDay, kNoEnd);
  const VmId partial = fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node,
                                  4, kHour, kNoEnd);
  EXPECT_TRUE(fx_.trace.vm(full).covers(grid));
  EXPECT_FALSE(fx_.trace.vm(partial).covers(grid));
}

TEST_F(TraceTest, InvalidVmRejected) {
  VmRecord bad;
  bad.subscription = fx_.private_sub;
  bad.created = 5;
  bad.deleted = 5;  // zero lifetime
  EXPECT_THROW(fx_.trace.add_vm(bad), CheckError);

  VmRecord unknown_sub;
  unknown_sub.subscription = SubscriptionId(99);
  unknown_sub.created = 0;
  unknown_sub.deleted = 1;
  EXPECT_THROW(fx_.trace.add_vm(unknown_sub), CheckError);
}

TEST_F(TraceTest, UnknownIdsThrowCheckErrorNamingTheId) {
  fx_.add_vm(CloudType::kPublic, fx_.public_sub,
             test::first_node(topo_, CloudType::kPublic), 2, 0, kNoEnd);
  test::expect_unknown_id([&] { fx_.trace.vm(VmId(1)); }, VmId(1));
  test::expect_unknown_id([&] { fx_.trace.vm(VmId()); }, VmId());
  test::expect_unknown_id([&] { fx_.trace.subscription(SubscriptionId(2)); },
                          SubscriptionId(2));
  test::expect_unknown_id([&] { fx_.trace.subscription(SubscriptionId()); },
                          SubscriptionId());
  test::expect_unknown_id([&] { fx_.trace.set_vm_deleted(VmId(1), kHour); },
                          VmId(1));
}

TEST_F(TraceTest, NodeIndexTracksPlacedVms) {
  const NodeId node = test::first_node(topo_, CloudType::kPublic);
  const VmId a =
      fx_.add_vm(CloudType::kPublic, fx_.public_sub, node, 2, 0, kNoEnd);
  const VmId b =
      fx_.add_vm(CloudType::kPublic, fx_.public_sub, node, 2, 0, kNoEnd);
  const auto vms = fx_.trace.vms_on_node(node);
  ASSERT_EQ(vms.size(), 2u);
  EXPECT_EQ(vms[0], a);
  EXPECT_EQ(vms[1], b);
  EXPECT_TRUE(fx_.trace.vms_on_node(NodeId(3)).empty());
}

TEST_F(TraceTest, NodeIndexInvalidatedByNewVm) {
  const NodeId node = test::first_node(topo_, CloudType::kPublic);
  fx_.add_vm(CloudType::kPublic, fx_.public_sub, node, 2, 0, kNoEnd);
  EXPECT_EQ(fx_.trace.vms_on_node(node).size(), 1u);  // builds index
  fx_.add_vm(CloudType::kPublic, fx_.public_sub, node, 2, 0, kNoEnd);
  EXPECT_EQ(fx_.trace.vms_on_node(node).size(), 2u);  // rebuilt
}

TEST_F(TraceTest, SubscriptionIndex) {
  const NodeId node = test::first_node(topo_, CloudType::kPublic);
  fx_.add_vm(CloudType::kPublic, fx_.public_sub, node, 2, 0, kNoEnd);
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 2, 0, kNoEnd);
  EXPECT_EQ(fx_.trace.vms_of_subscription(fx_.public_sub).size(), 1u);
  EXPECT_EQ(fx_.trace.vms_of_subscription(fx_.private_sub).size(), 1u);
  EXPECT_TRUE(fx_.trace.vms_of_subscription(SubscriptionId(1)).size() == 1);
}

TEST_F(TraceTest, VmUtilizationMaskedOutsideLifetime) {
  const NodeId node = test::first_node(topo_, CloudType::kPrivate);
  const VmId id =
      fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 4, kHour,
                 2 * kHour, std::make_shared<ConstantUtilization>(0.5));
  const TimeGrid& grid = fx_.trace.telemetry_grid();
  std::vector<double> scratch;
  const auto row = fx_.trace.telemetry_row(id, scratch);
  ASSERT_EQ(row.size(), grid.count);
  EXPECT_DOUBLE_EQ(row[0], 0.0);                         // before create
  EXPECT_DOUBLE_EQ(row[grid.index_of(kHour)], 0.5);      // alive
  EXPECT_DOUBLE_EQ(row[grid.index_of(2 * kHour)], 0.0);  // after delete
}

TEST_F(TraceTest, NodeUtilizationIsCoreWeighted) {
  const NodeId node = test::first_node(topo_, CloudType::kPrivate);
  // Node has 16 cores. 8 cores at 1.0 + 4 cores at 0.5 = 10/16.
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 8, 0, kNoEnd,
             std::make_shared<ConstantUtilization>(1.0));
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 4, 0, kNoEnd,
             std::make_shared<ConstantUtilization>(0.5));
  const auto series = fx_.trace.node_utilization(node);
  ASSERT_EQ(series.grid(), fx_.trace.telemetry_grid());
  for (std::size_t i = 0; i < series.size(); ++i)
    EXPECT_DOUBLE_EQ(series[i], 10.0 / 16.0);
}

TEST_F(TraceTest, NodeUtilizationClampedToOne) {
  const NodeId node = test::first_node(topo_, CloudType::kPrivate);
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 16, 0, kNoEnd,
             std::make_shared<ConstantUtilization>(1.0));
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 16, 0, kNoEnd,
             std::make_shared<ConstantUtilization>(1.0));
  const auto series = fx_.trace.node_utilization(node);
  EXPECT_DOUBLE_EQ(series[0], 1.0);
}

TEST_F(TraceTest, NodeUsedCoresRespectsLifetimes) {
  const NodeId node = test::first_node(topo_, CloudType::kPrivate);
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 8, 0, kHour);
  fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 4, 0, kNoEnd);
  EXPECT_DOUBLE_EQ(fx_.trace.node_used_cores(node, 0), 12);
  EXPECT_DOUBLE_EQ(fx_.trace.node_used_cores(node, 2 * kHour), 4);
}

TEST_F(TraceTest, VmWithoutUtilizationGivesZeroSeries) {
  const NodeId node = test::first_node(topo_, CloudType::kPrivate);
  const VmId id =
      fx_.add_vm(CloudType::kPrivate, fx_.private_sub, node, 4, 0, kNoEnd);
  std::vector<double> scratch;
  const auto row = fx_.trace.telemetry_row(id, scratch);
  ASSERT_EQ(row.size(), fx_.trace.telemetry_grid().count);
  for (const double v : row) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace cloudlens
