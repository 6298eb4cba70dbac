// Property tests: invariants of the allocator + simulator under randomized
// workload streams.
#include <gtest/gtest.h>

#include <ostream>
#include <unordered_map>

#include "cloudsim/simulator.h"
#include "common/rng.h"
#include "testutil.h"

namespace cloudlens {
namespace {

struct StreamParams {
  std::uint64_t seed;
  int requests;
  double max_cores;
};

// Names each instance by its fields: gtest would otherwise print the raw
// object bytes, padding included, into the test names.
void PrintTo(const StreamParams& p, std::ostream* os) {
  *os << "seed=" << p.seed << ", requests=" << p.requests
      << ", max_cores=" << p.max_cores;
}

class SimulatorPropertyTest
    : public ::testing::TestWithParam<StreamParams> {};

TEST_P(SimulatorPropertyTest, CapacityNeverExceededAtAnyInstant) {
  const auto params = GetParam();
  const Topology topo = test::tiny_topology();
  test::TraceFixture fx(topo);
  Rng rng(params.seed);

  std::vector<DeploymentRequest> requests;
  for (int i = 0; i < params.requests; ++i) {
    DeploymentRequest req;
    const bool priv = rng.bernoulli(0.5);
    req.request.subscription = priv ? fx.private_sub : fx.public_sub;
    req.request.cloud = priv ? CloudType::kPrivate : CloudType::kPublic;
    req.request.region = RegionId(
        static_cast<RegionId::underlying>(rng.uniform_int(std::uint64_t{2})));
    req.request.cores = 1 + rng.uniform() * (params.max_cores - 1);
    req.request.memory_gb = req.request.cores * 4;
    req.create = static_cast<SimTime>(rng.uniform() * double(kWeek));
    const auto life = static_cast<SimDuration>(
        rng.uniform() * double(2 * kDay) + double(kMinute));
    req.remove = rng.bernoulli(0.2) ? kNoEnd : req.create + life;
    requests.push_back(req);
  }
  const auto stats = run_simulation(topo, fx.trace, requests);
  EXPECT_EQ(stats.placed + stats.allocation_failures, stats.requested);
  EXPECT_EQ(fx.trace.vms().size(), stats.placed);

  // Invariant: at every sampled instant, no node exceeds its capacity and
  // every VM sits on a node of its own cloud and region.
  for (SimTime t = 0; t < kWeek; t += 6 * kHour) {
    for (const auto& node : topo.nodes()) {
      EXPECT_LE(fx.trace.node_used_cores(node.id, t),
                node.total_cores + 1e-9)
          << "node " << node.id << " over capacity at t=" << t;
    }
  }
  for (const auto& vm : fx.trace.vms()) {
    const auto& node = topo.node(vm.node);
    EXPECT_EQ(node.cloud, vm.cloud);
    EXPECT_EQ(node.region, vm.region);
    EXPECT_EQ(node.rack, vm.rack);
    EXPECT_EQ(node.cluster, vm.cluster);
  }
}

TEST_P(SimulatorPropertyTest, ReplayIsDeterministic) {
  const auto params = GetParam();
  const Topology topo = test::tiny_topology();

  auto run_once = [&](TraceStore& trace, SubscriptionId sub) {
    Rng rng(params.seed);
    std::vector<DeploymentRequest> requests;
    for (int i = 0; i < params.requests; ++i) {
      DeploymentRequest req;
      req.request.subscription = sub;
      req.request.cloud = CloudType::kPublic;
      req.request.region = RegionId(0);
      req.request.cores = 1 + rng.uniform() * (params.max_cores - 1);
      req.request.memory_gb = req.request.cores * 2;
      req.create = static_cast<SimTime>(rng.uniform() * double(kWeek));
      req.remove = req.create + kHour;
      requests.push_back(req);
    }
    return run_simulation(topo, trace, requests);
  };

  test::TraceFixture fx_a(topo), fx_b(topo);
  const auto a = run_once(fx_a.trace, fx_a.public_sub);
  const auto b = run_once(fx_b.trace, fx_b.public_sub);
  EXPECT_EQ(a.placed, b.placed);
  ASSERT_EQ(fx_a.trace.vms().size(), fx_b.trace.vms().size());
  for (std::size_t i = 0; i < fx_a.trace.vms().size(); ++i) {
    EXPECT_EQ(fx_a.trace.vms()[i].node, fx_b.trace.vms()[i].node);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, SimulatorPropertyTest,
    ::testing::Values(StreamParams{101, 400, 4.0},
                      StreamParams{202, 800, 8.0},
                      StreamParams{303, 1500, 16.0},
                      StreamParams{404, 2500, 2.0}));

}  // namespace
}  // namespace cloudlens
