// Shared helpers for cloudlens tests: tiny topologies and hand-built traces
// with exactly known structure.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "cloudsim/population.h"
#include "cloudsim/simulator.h"
#include "cloudsim/snapshot.h"
#include "cloudsim/topology.h"
#include "cloudsim/trace.h"
#include "common/check.h"
#include "kb/store.h"

namespace cloudlens::test {

/// Every kb record field of `b` equals `a`'s, doubles bit for bit.
inline void expect_same_knowledge(const kb::KnowledgeBase& a,
                                  const kb::KnowledgeBase& b) {
  ASSERT_EQ(b.size(), a.size());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < a.size(); ++i) {
    const kb::SubscriptionKnowledge& x = a.records()[i];
    const kb::SubscriptionKnowledge& y = b.records()[i];
    SCOPED_TRACE("kb record " + std::to_string(i));
    EXPECT_EQ(y.subscription, x.subscription);
    EXPECT_EQ(y.cloud, x.cloud);
    EXPECT_EQ(y.party, x.party);
    EXPECT_EQ(y.service, x.service);
    EXPECT_EQ(y.vm_count, x.vm_count);
    EXPECT_EQ(bits(y.total_cores), bits(x.total_cores));
    EXPECT_EQ(y.region_count, x.region_count);
    EXPECT_EQ(bits(y.short_lifetime_share), bits(x.short_lifetime_share));
    EXPECT_EQ(y.ended_vms, x.ended_vms);
    EXPECT_EQ(y.dominant_pattern, x.dominant_pattern);
    EXPECT_EQ(bits(y.pattern_confidence), bits(x.pattern_confidence));
    EXPECT_EQ(bits(y.mean_utilization), bits(x.mean_utilization));
    EXPECT_EQ(bits(y.p95_utilization), bits(x.p95_utilization));
    EXPECT_EQ(bits(y.cross_region_correlation),
              bits(x.cross_region_correlation));
    EXPECT_EQ(y.region_agnostic, x.region_agnostic);
    EXPECT_EQ(y.spot_candidate, x.spot_candidate);
    EXPECT_EQ(y.oversubscription_candidate, x.oversubscription_candidate);
    EXPECT_EQ(y.deferral_target, x.deferral_target);
    EXPECT_EQ(y.preprovision_target, x.preprovision_target);
  }
}

/// FNV-1a over `bytes`: pins file bytes without checking them in.
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// A population-sharded copy of `trace` from the snapshot producer: the
/// trace is saved as a snapshot and stream-loaded back with `sharding` as
/// its destination (the options' model_codec saves and loads the models).
inline LoadedSnapshot load_into_shards(
    const TraceStore& trace, const PopulationShardingOptions& sharding) {
  std::stringstream bytes(std::ios::in | std::ios::out | std::ios::binary);
  save_trace_snapshot(trace.topology(), trace, bytes, sharding.model_codec);
  return load_trace_snapshot(bytes, sharding.model_codec, &sharding);
}

/// Expects `lookup()` to throw CheckError naming `id` ("unknown vm-7").
template <typename Fn, typename Tag>
void expect_unknown_id(Fn&& lookup, Id<Tag> id) {
  std::ostringstream name;
  name << "unknown " << id;
  try {
    lookup();
    ADD_FAILURE() << "no CheckError for " << name.str();
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(name.str()), std::string::npos)
        << e.what();
  }
}

/// 2 regions x 1 DC x 1 cluster per cloud x 2 racks x 4 nodes (32 nodes,
/// 16 per cloud), 16-core nodes.
inline Topology tiny_topology() {
  TopologySpec spec;
  spec.regions = {{"east", -5}, {"west", -8}};
  spec.datacenters_per_region = 1;
  spec.clusters_per_cloud = 1;
  spec.racks_per_cluster = 2;
  spec.nodes_per_rack = 4;
  spec.node_sku = NodeSku{"test-16", 16, 64};
  return build_topology(spec);
}

/// A trace wired to `topo` with one subscription per cloud pre-registered.
struct TraceFixture {
  explicit TraceFixture(const Topology& topo) : trace(&topo) {
    SubscriptionInfo priv;
    priv.cloud = CloudType::kPrivate;
    priv.party = PartyType::kFirstParty;
    private_sub = trace.add_subscription(priv);
    SubscriptionInfo pub;
    pub.cloud = CloudType::kPublic;
    pub.party = PartyType::kThirdParty;
    public_sub = trace.add_subscription(pub);
  }

  /// Add a placed VM with explicit placement onto the n-th node of the
  /// first cluster of `cloud` in region 0 (or a given node).
  VmId add_vm(CloudType cloud, SubscriptionId sub, NodeId node, double cores,
              SimTime created, SimTime deleted,
              std::shared_ptr<const UtilizationModel> util = nullptr,
              RegionId region = RegionId(0)) {
    VmRecord rec;
    rec.subscription = sub;
    rec.cloud = cloud;
    rec.party = trace.subscription(sub).party;
    rec.region = region;
    const Node& n = trace.topology().node(node);
    rec.cluster = n.cluster;
    rec.rack = n.rack;
    rec.node = node;
    rec.cores = cores;
    rec.memory_gb = cores * 4;
    rec.created = created;
    rec.deleted = deleted;
    rec.utilization = std::move(util);
    return trace.add_vm(std::move(rec));
  }

  TraceStore trace;
  SubscriptionId private_sub;
  SubscriptionId public_sub;
};

/// First node id of the first cluster of `cloud` in `topo`.
inline NodeId first_node(const Topology& topo, CloudType cloud) {
  for (const auto& cluster : topo.clusters()) {
    if (cluster.cloud == cloud) return cluster.nodes.front();
  }
  return NodeId();
}

}  // namespace cloudlens::test
