// Tests for the failure-domain map (cluster/topology.hpp) and the two
// layers that consume it: tiered network pricing (cluster/network.hpp)
// and the topology-aware FaultPlan helpers (crash_rack /
// partition_rack / partition_zone). The load-bearing contracts:
//
//   * unassigned nodes are synthetic singleton domains - never a
//     shared rack, never raising spread_bound;
//   * at default (flat) pricing, every tiered overload reproduces the
//     flat model's numbers exactly (the pre-topology benches stay
//     byte-identical);
//   * the multicast repair tree pays one cross-rack leg per distinct
//     remote rack, plain unicast one per remote participant.

#include "cluster/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "cluster/fault_injection.hpp"
#include "cluster/network.hpp"
#include "common/error.hpp"

namespace cobalt::cluster {
namespace {

// --- Topology --------------------------------------------------------

TEST(Topology, AssignAndLookUp) {
  Topology topo;
  topo.assign(0, /*rack=*/10, /*zone=*/1);
  topo.assign(1, 10, 1);
  topo.assign(2, 11, 1);
  topo.assign(3, 12, 2);

  EXPECT_EQ(topo.rack_of(0), 10u);
  EXPECT_EQ(topo.rack_of(3), 12u);
  EXPECT_EQ(topo.zone_of(0), 1u);
  EXPECT_EQ(topo.zone_of(3), 2u);
  EXPECT_TRUE(topo.same_rack(0, 1));
  EXPECT_FALSE(topo.same_rack(0, 2));
  EXPECT_TRUE(topo.same_zone(0, 2));
  EXPECT_FALSE(topo.same_zone(0, 3));
  EXPECT_EQ(topo.rack_size(10), 2u);
  EXPECT_EQ(topo.rack_size(11), 1u);
  EXPECT_EQ(topo.racks(), (std::vector<Topology::RackId>{10, 11, 12}));
  EXPECT_EQ(topo.nodes_in_rack(10), (std::vector<placement::NodeId>{0, 1}));
  EXPECT_EQ(topo.nodes_in_zone(1),
            (std::vector<placement::NodeId>{0, 1, 2}));
}

TEST(Topology, UnassignedNodesAreSyntheticSingletonDomains) {
  Topology topo;
  topo.assign(0, 5);
  // A node outside the map is its own rack (and zone): it never shares
  // a failure domain, so the spread filter treats it as safe.
  EXPECT_NE(topo.rack_of(99), topo.rack_of(98));
  EXPECT_TRUE(topo.same_rack(99, 99));
  EXPECT_FALSE(topo.same_rack(99, 98));
  EXPECT_FALSE(topo.same_rack(0, 99));
  EXPECT_FALSE(topo.same_zone(0, 99));
  // Synthetic ids live outside the explicit map's accounting.
  EXPECT_EQ(topo.racks(), (std::vector<Topology::RackId>{5}));
}

TEST(Topology, RejectsExplicitIdsInTheSyntheticRange) {
  // A synthetic-range rack would alias the singleton domain of an
  // unassigned node: node 0 would share a "rack" with node 7.
  Topology topo;
  EXPECT_THROW(topo.assign(0, Topology::kSyntheticBit | 7), InvalidArgument);
  EXPECT_THROW(topo.assign(0, 1, Topology::synthetic_rack(7)),
               InvalidArgument);
  // A refused assignment leaves the map untouched.
  EXPECT_FALSE(topo.contains(0));
  EXPECT_FALSE(topo.same_rack(0, 7));
  EXPECT_FALSE(topo.same_zone(0, 7));
  EXPECT_TRUE(topo.racks().empty());
  // The largest explicit ids stay legal.
  topo.assign(0, Topology::kSyntheticBit - 1, Topology::kSyntheticBit - 1);
  EXPECT_EQ(topo.rack_of(0), Topology::kSyntheticBit - 1);
}

TEST(Topology, RejectsNegativeAndNonFiniteWeights) {
  Topology topo;
  topo.assign(0, 1, 0, 2.0);
  EXPECT_THROW(topo.assign(1, 1, 0, -1.0), InvalidArgument);
  EXPECT_THROW(topo.assign(1, 1, 0, std::nan("")), InvalidArgument);
  EXPECT_THROW(topo.assign(1, 1, 0, HUGE_VAL), InvalidArgument);
  // Re-assigning an existing node with a bad weight keeps its old entry.
  EXPECT_THROW(topo.assign(0, 1, 0, -HUGE_VAL), InvalidArgument);
  EXPECT_EQ(topo.rack_size(1), 1u);
  EXPECT_EQ(topo.rack_weight(1), 2.0);
  topo.assign(1, 1, 0, 0.0);  // zero weight is allowed
  EXPECT_EQ(topo.rack_size(1), 2u);
  EXPECT_EQ(topo.rack_weight(1), 2.0);
}

TEST(Topology, UniformLayoutIsDenseRowMajor) {
  // uniform(racks, nodes_per_rack, zones): node n sits in rack n /
  // nodes_per_rack, rack r in zone r % zones.
  const Topology topo = Topology::uniform(4, 3, 2);
  EXPECT_EQ(topo.racks().size(), 4u);
  for (placement::NodeId n = 0; n < 12; ++n) {
    EXPECT_EQ(topo.rack_of(n), n / 3) << "node " << n;
    EXPECT_EQ(topo.zone_of(n), (n / 3) % 2) << "node " << n;
  }
  EXPECT_EQ(topo.rack_size(0), 3u);
  EXPECT_EQ(topo.nodes_in_rack(2), (std::vector<placement::NodeId>{6, 7, 8}));
  EXPECT_EQ(topo.nodes_in_zone(0),
            (std::vector<placement::NodeId>{0, 1, 2, 6, 7, 8}));
}

TEST(Topology, SpreadBoundIsThePigeonholeDepth) {
  // 3 racks of 4: k-1 largest domains hold 4 (k=2) / 8 (k=3) nodes, so
  // one more candidate must cross into a fresh rack.
  const Topology topo = Topology::uniform(3, 4);
  EXPECT_EQ(topo.spread_bound(1), 1u);
  EXPECT_EQ(topo.spread_bound(2), 5u);
  EXPECT_EQ(topo.spread_bound(3), 9u);
  // Zones of 6 nodes each (2 zones x 3 racks... uniform(4,3,2) maps 2
  // racks per zone): the by_zone bound uses zone sizes.
  const Topology zoned = Topology::uniform(4, 3, 2);
  EXPECT_EQ(zoned.spread_bound(2, /*by_zone=*/true), 7u);
  // An empty map is all singletons: the bound degenerates to k.
  const Topology empty;
  EXPECT_EQ(empty.spread_bound(3), 3u);
}

/// A second model of the map, kept beside a Topology under test, with
/// spread_bound computed the way the size-array version replaced: sort
/// every rack entry's node count (named-only racks count as 0), or
/// every mapped zone's summed count, and take the k-1 largest.
class ShadowTopology {
 public:
  void assign(placement::NodeId node, Topology::RackId rack,
              Topology::ZoneId zone) {
    node_rack_[node] = rack;
    racks_.insert(rack);
    rack_zone_[rack] = zone;
  }
  void name_rack(Topology::RackId rack) { racks_.insert(rack); }

  std::size_t spread_bound(std::size_t k, bool by_zone) const {
    if (k <= 1) return k;
    std::vector<std::size_t> sizes;
    if (by_zone) {
      std::map<Topology::ZoneId, std::size_t> zone_sizes;
      for (const auto& [rack, zone] : rack_zone_) {
        zone_sizes[zone] += rack_size(rack);
      }
      for (const auto& [zone, size] : zone_sizes) sizes.push_back(size);
    } else {
      for (const Topology::RackId rack : racks_) {
        sizes.push_back(rack_size(rack));
      }
    }
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    std::size_t capacity = 0;
    std::size_t taken = 0;
    for (const std::size_t size : sizes) {
      if (taken == k - 1) break;
      capacity += size;
      ++taken;
    }
    capacity += (k - 1) - taken;
    return std::max(k, capacity + 1);
  }

 private:
  std::size_t rack_size(Topology::RackId rack) const {
    std::size_t count = 0;
    for (const auto& [node, r] : node_rack_) count += r == rack ? 1 : 0;
    return count;
  }

  std::map<placement::NodeId, Topology::RackId> node_rack_;
  std::set<Topology::RackId> racks_;
  std::map<Topology::RackId, Topology::ZoneId> rack_zone_;
};

TEST(Topology, SpreadBoundTracksEveryReassignment) {
  Topology topo;
  ShadowTopology shadow;
  const auto assign = [&](placement::NodeId node, Topology::RackId rack,
                          Topology::ZoneId zone) {
    topo.assign(node, rack, zone);
    shadow.assign(node, rack, zone);
  };
  const auto expect_same = [&](const char* step) {
    for (std::size_t k = 1; k <= 6; ++k) {
      for (const bool by_zone : {false, true}) {
        EXPECT_EQ(topo.spread_bound(k, by_zone),
                  shadow.spread_bound(k, by_zone))
            << step << ": k=" << k << " by_zone=" << by_zone;
      }
    }
  };

  // uniform(4, 3, 2), replayed through assign.
  for (placement::NodeId node = 0; node < 12; ++node) {
    assign(node, node / 3, (node / 3) % 2);
  }
  for (std::size_t k = 1; k <= 6; ++k) {
    for (const bool by_zone : {false, true}) {
      EXPECT_EQ(Topology::uniform(4, 3, 2).spread_bound(k, by_zone),
                shadow.spread_bound(k, by_zone));
    }
  }
  expect_same("uniform");

  // Naming a rack nobody is in adds a size-0 rack (but no zone); with
  // only four racks it fills the fifth of the k-1 = 5 slots at k = 6.
  topo.name_rack(40, "rack-spare");
  shadow.name_rack(40);
  expect_same("name_rack of an empty rack");

  // Uneven growth: a big rack in a new zone, a singleton rack.
  for (placement::NodeId node = 12; node < 18; ++node) assign(node, 7, 3);
  assign(18, 8, 0);
  expect_same("assign");

  // A node moves rack (and its old rack shrinks), then a whole rack
  // moves zone (the last assignment wins for the rack).
  assign(0, 7, 3);
  expect_same("rack reassignment");
  assign(3, 1, 4);
  expect_same("zone reassignment");

  // Emptying rack 8 keeps it as a size-0 rack in zone 0; emptying zone
  // 4's only rack drops nothing from the rack list.
  assign(18, 2, 0);
  expect_same("emptied rack");
  for (const placement::NodeId node : {3u, 4u, 5u}) assign(node, 7, 3);
  expect_same("emptied zone rack");

  // Moving the emptied rack to another zone empties zone 4.
  assign(5, 1, 3);
  expect_same("zone left without racks");
}

// --- NetworkModel tier pricing --------------------------------------

TEST(NetworkTiers, DefaultsInheritTheFlatModelExactly) {
  const NetworkModel net;  // tier overrides all 0 = inherit
  EXPECT_DOUBLE_EQ(net.cross_rack_latency(), net.intra_rack_latency());
  EXPECT_DOUBLE_EQ(net.cross_zone_latency(), net.intra_rack_latency());
  EXPECT_DOUBLE_EQ(net.cross_rack_per_key(), net.intra_rack_per_key());

  // With flat tiers the tiered handover equals the flat handover for
  // any participant mix - the abl8/abl9 byte-parity guarantee.
  const Topology topo = Topology::uniform(3, 2);
  const std::vector<placement::NodeId> participants{0, 2, 5};
  EXPECT_DOUBLE_EQ(net.handover_duration_tiered(topo, participants, 100),
                   net.handover_duration(participants.size(), 100));
}

TEST(NetworkTiers, CrossZoneInheritsCrossRackWhenUnset) {
  NetworkModel net;
  net.cross_rack_latency_us = 400.0;
  EXPECT_DOUBLE_EQ(net.cross_zone_latency(), 400.0);
  net.cross_zone_latency_us = 900.0;
  EXPECT_DOUBLE_EQ(net.cross_zone_latency(), 900.0);
}

TEST(NetworkTiers, TieredHandoverChargesTheWorstTier) {
  NetworkModel net;
  net.one_hop_latency_us = 100.0;
  net.cross_rack_latency_us = 400.0;
  net.cross_zone_latency_us = 1000.0;
  net.record_update_us = 0.0;
  net.per_key_transfer_us = 0.0;
  // Zones interleave: rack r sits in zone r % 2, so racks 0 and 2
  // share zone 0 while rack 1 is a zone away from both.
  const Topology topo = Topology::uniform(4, 2, 2);

  // All in the coordinator's rack: intra pricing.
  EXPECT_DOUBLE_EQ(
      net.handover_duration_tiered(topo, std::vector<placement::NodeId>{0, 1},
                                   0),
      200.0);
  // One participant a rack over (same zone): 2 x 400.
  EXPECT_DOUBLE_EQ(
      net.handover_duration_tiered(topo, std::vector<placement::NodeId>{0, 4},
                                   0),
      800.0);
  // One participant a zone over dominates: 2 x 1000.
  EXPECT_DOUBLE_EQ(net.handover_duration_tiered(
                       topo, std::vector<placement::NodeId>{0, 4, 2}, 0),
                   2000.0);
}

TEST(NetworkTiers, MulticastPaysPerRackNotPerParticipant) {
  NetworkModel net;
  net.one_hop_latency_us = 100.0;
  net.cross_rack_latency_us = 400.0;
  net.record_update_us = 0.0;
  net.per_key_transfer_us = 0.0;
  const Topology topo = Topology::uniform(2, 3);
  // Coordinator in rack 0, two participants in rack 1: the tree sends
  // one cross-rack leg to a relay, which fans out intra-rack.
  const std::vector<placement::NodeId> participants{0, 3, 4};
  EXPECT_DOUBLE_EQ(net.handover_duration_tiered(topo, participants, 0),
                   800.0);  // unicast: worst tier is cross-rack
  EXPECT_DOUBLE_EQ(net.multicast_handover_duration(topo, participants, 0),
                   2.0 * (400.0 + 100.0));  // root leg + intra relay

  // The cross-rack meter: 2 legs per remote participant unicast, 2 per
  // distinct remote rack multicast.
  EXPECT_EQ(net.cross_rack_messages(topo, participants, false), 4u);
  EXPECT_EQ(net.cross_rack_messages(topo, participants, true), 2u);

  // A single remote participant needs no relay: tree == unicast.
  const std::vector<placement::NodeId> lone{0, 3};
  EXPECT_DOUBLE_EQ(net.multicast_handover_duration(topo, lone, 0), 800.0);

  // All-local rounds pay no cross-rack legs at all.
  const std::vector<placement::NodeId> local{0, 1, 2};
  EXPECT_EQ(net.cross_rack_messages(topo, local, false), 0u);
  EXPECT_EQ(net.cross_rack_messages(topo, local, true), 0u);
}

// --- FaultPlan topology helpers -------------------------------------

TEST(FaultPlanTopology, CrashRackCrashesEveryMember) {
  const Topology topo = Topology::uniform(2, 3);
  FaultPlan plan(11);
  plan.crash_rack(topo, 1, 100.0, 200.0);
  ASSERT_EQ(plan.crash_windows().size(), 3u);
  std::vector<placement::NodeId> crashed;
  for (const CrashWindow& window : plan.crash_windows()) {
    EXPECT_DOUBLE_EQ(window.crash_at, 100.0);
    EXPECT_DOUBLE_EQ(window.recover_at, 200.0);
    crashed.push_back(window.node);
  }
  EXPECT_EQ(crashed, (std::vector<placement::NodeId>{3, 4, 5}));
  EXPECT_TRUE(plan.node_down(4, 150.0));
  EXPECT_FALSE(plan.node_down(0, 150.0));
}

TEST(FaultPlanTopology, PartitionRackCutsTheWholeRack) {
  const Topology topo = Topology::uniform(3, 2);
  FaultPlan plan(13);
  plan.partition_rack(topo, 2, 50.0, 90.0);
  ASSERT_EQ(plan.partitions().size(), 1u);
  const PartitionEpisode& episode = plan.partitions().front();
  EXPECT_EQ(episode.name, "rack-2");
  EXPECT_DOUBLE_EQ(episode.start, 50.0);
  EXPECT_DOUBLE_EQ(episode.end, 90.0);
  EXPECT_EQ(episode.side, (std::vector<placement::NodeId>{4, 5}));
}

TEST(FaultPlanTopology, PartitionZoneCutsEveryRackOfTheZone) {
  const Topology topo = Topology::uniform(4, 2, 2);  // zone 0 = racks 0, 2
  FaultPlan plan(17);
  plan.partition_zone(topo, 0, 10.0, 20.0);
  ASSERT_EQ(plan.partitions().size(), 1u);
  const PartitionEpisode& episode = plan.partitions().front();
  EXPECT_EQ(episode.name, "zone-0");
  EXPECT_EQ(episode.side, (std::vector<placement::NodeId>{0, 1, 4, 5}));
}

TEST(FaultPlanTopology, EmptyRackIsRejected) {
  const Topology topo = Topology::uniform(2, 2);
  FaultPlan plan(19);
  EXPECT_THROW(plan.crash_rack(topo, 7, 0.0, 1.0), InvalidArgument);
  EXPECT_THROW(plan.partition_rack(topo, 7, 0.0, 1.0), InvalidArgument);
  EXPECT_THROW(plan.partition_zone(topo, 7, 0.0, 1.0), InvalidArgument);
}

}  // namespace
}  // namespace cobalt::cluster
