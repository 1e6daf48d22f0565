// Tests for the backend-generic scenario drivers (sim/scenario.hpp)
// and their protocol-instrumented variants (sim/protocol_cost.hpp):
// the churn driver's incrementally maintained live set and its
// behaviour on the paper's global and local approaches, the
// movement-growth boundary conditions, the replication scenarios
// (correlated failure, rolling upgrade), and the failure-during-repair
// scenario where a second rack crashes while the first crash's
// re-replication rounds are still queued on the protocol DES.

#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/topology.hpp"
#include "common/error.hpp"
#include "dht/config.hpp"
#include "kv/store.hpp"
#include "placement/dht_backend.hpp"
#include "placement/hrw_backend.hpp"
#include "placement/replication_spec.hpp"
#include "sim/protocol_cost.hpp"

namespace cobalt::sim {
namespace {

using placement::ReplicationSpec;
using placement::SpreadPolicy;

TEST(ChurnDriver, HoldsThePopulationWithoutRescanningSlots) {
  // Long churn at a small population: node ids are never reused, so
  // after 300 completed cycles the slot space is ~25x the population.
  // The driver must keep tracking the live set correctly regardless.
  placement::HrwBackend backend({7, 8});
  const auto outcome = run_churn(backend, 12, 300, 99);
  EXPECT_EQ(outcome.completed_removals, 300u);
  EXPECT_EQ(outcome.refused_removals, 0u);
  EXPECT_EQ(backend.node_count(), 12u);
  EXPECT_EQ(backend.node_slot_count(), 12u + 300u);
  std::size_t live = 0;
  for (placement::NodeId node = 0; node < backend.node_slot_count();
       ++node) {
    if (backend.is_live(node)) ++live;
  }
  EXPECT_EQ(live, 12u);
}

TEST(ChurnDriver, CountsNodesThatPredateTheCall) {
  // The one slot scan happens at entry, so nodes added before the
  // driver ran are churn victims like any other.
  placement::HrwBackend backend({8, 8});
  for (int n = 0; n < 3; ++n) backend.add_node();
  const auto outcome = run_churn(backend, 4, 50, 100);
  EXPECT_EQ(outcome.completed_removals, 50u);
  EXPECT_EQ(backend.node_count(), 7u);  // 3 preexisting + 4 grown
}

TEST(ChurnDriver, DeterministicPerSeed) {
  const auto run_once = [] {
    placement::HrwBackend backend({9, 8});
    return run_churn(backend, 10, 80, 123).sigma_series;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Sustained churn on the paper's two approaches at one vnode per node:
// the global approach can always drain, the local approach may refuse
// a removal it cannot express as a group merge (counted, population
// unchanged).

dht::Config dht_cfg(std::uint64_t pmin, std::uint64_t vmin,
                    std::uint64_t seed) {
  dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = seed;
  return c;
}

TEST(ChurnDriver, GlobalApproachNeverRefusesAndStaysBalanced) {
  placement::GlobalDhtBackend backend({dht_cfg(8, 1, 1), 1});
  const auto outcome = run_churn(backend, 40, 100, 1);
  EXPECT_EQ(outcome.refused_removals, 0u);
  EXPECT_EQ(outcome.completed_removals, 100u);
  ASSERT_EQ(outcome.sigma_series.size(), 100u);
  for (const double sigma : outcome.sigma_series) {
    EXPECT_LT(sigma, 0.2);  // greedy keeps counts within ~2 of the mean
  }
}

TEST(ChurnDriver, LocalApproachCountsEveryRemovalAndKeepsThePopulation) {
  placement::LocalDhtBackend backend({dht_cfg(8, 8, 2), 1});
  const auto outcome = run_churn(backend, 64, 150, 2);
  ASSERT_EQ(outcome.sigma_series.size(), 150u);
  // Small groups make some drains inexpressible (no cross-group
  // merge): each one is counted, and the population stays put.
  EXPECT_GT(outcome.completed_removals, 0u);
  EXPECT_GT(outcome.refused_removals, 0u);
  EXPECT_EQ(outcome.completed_removals + outcome.refused_removals, 150u);
  EXPECT_EQ(backend.node_count(), 64u);
  EXPECT_GT(backend.dht().group_count(), 0u);
  for (const double sigma : outcome.sigma_series) {
    EXPECT_GE(sigma, 0.0);
    EXPECT_LT(sigma, 1.0);
  }
}

TEST(ChurnDriver, LocalApproachRefusesNothingWithOneRoomyGroup) {
  // With a single group (Vmin >= population) every removal is an
  // intra-group redistribution; refusals can only come from the
  // (rarely infeasible) count bound, which the single group's complete
  // buddy set always satisfies.
  placement::LocalDhtBackend backend({dht_cfg(8, 64, 3), 1});
  const auto outcome = run_churn(backend, 48, 100, 3);
  EXPECT_EQ(outcome.refused_removals, 0u);
  EXPECT_EQ(backend.dht().group_count(), 1u);
}

TEST(ChurnDriver, LocalSigmaStaysInThePlateauBand) {
  placement::LocalDhtBackend backend({dht_cfg(32, 32, 4), 1});
  const auto outcome = run_churn(backend, 128, 200, 4);
  ASSERT_EQ(outcome.sigma_series.size(), 200u);
  double late = 0.0;
  for (std::size_t i = 150; i < 200; ++i) late += outcome.sigma_series[i];
  late /= 50.0;
  // The plateau band of figure 4 at (32,32) is ~10%; churn should not
  // blow it past a generous multiple.
  EXPECT_LT(late, 0.30);
}

TEST(ChurnDriver, LocalApproachIsDeterministicPerSeed) {
  const auto run_once = [] {
    placement::LocalDhtBackend backend({dht_cfg(8, 8, 7), 1});
    return run_churn(backend, 40, 60, 7);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.sigma_series, b.sigma_series);
  EXPECT_EQ(a.refused_removals, b.refused_removals);
}

TEST(ChurnDriver, RejectsPopulationsBelowTwo) {
  placement::LocalDhtBackend local({dht_cfg(8, 8, 1), 1});
  EXPECT_THROW((void)run_churn(local, 1, 10, 1), InvalidArgument);
  placement::GlobalDhtBackend global({dht_cfg(8, 1, 1), 1});
  EXPECT_THROW((void)run_churn(global, 0, 10, 1), InvalidArgument);
}

TEST(MovementGrowth, TargetOfTwoPerformsExactlyOneJoin) {
  // Boundary regression: target_nodes == 2 is one join past the
  // preload node and must be accepted, returning a one-element series.
  kv::HrwKvStore store({11, 10});
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) keys.push_back("k" + std::to_string(i));
  const auto moved = run_movement_growth(store, keys, 2);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(store.backend().node_count(), 2u);
  // The single join's movement is the store's entire movement total.
  EXPECT_EQ(moved[0],
            static_cast<double>(store.stats().relocation.keys_moved_total));
  EXPECT_GT(moved[0], 0.0);
  EXPECT_EQ(store.size(), keys.size());
}

TEST(MovementGrowth, RejectsTargetsBelowTwo) {
  kv::HrwKvStore store({12, 10});
  std::vector<std::string> keys{"a", "b"};
  EXPECT_THROW((void)run_movement_growth(store, keys, 1), InvalidArgument);
  EXPECT_THROW((void)run_movement_growth(store, keys, 0), InvalidArgument);
}

std::vector<std::string> scenario_keys(std::size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back("k" + std::to_string(i));
  }
  return keys;
}

TEST(CorrelatedFailure, UnreplicatedRackFailureLosesItsKeys) {
  kv::HrwKvStore store({21, 10}, ReplicationSpec{1, SpreadPolicy::kNone});
  const auto keys = scenario_keys(1500);
  const auto outcome = run_correlated_failure(store, 16, 3, keys, 77);
  EXPECT_EQ(outcome.failed, 3u);  // HRW never refuses
  EXPECT_EQ(outcome.refused, 0u);
  // The rack owned ~3/16 of the keys; all of them are lost at k=1.
  EXPECT_GT(outcome.keys_lost, 0u);
  EXPECT_NEAR(static_cast<double>(outcome.keys_lost), 1500.0 * 3 / 16,
              1500.0 * 0.1);
  EXPECT_GT(outcome.keys_rereplicated, 0u);
  EXPECT_TRUE(std::isfinite(outcome.sigma_after));
  EXPECT_EQ(store.backend().node_count(), 13u);
}

TEST(CorrelatedFailure, ReplicationClosesTheLossWindow) {
  // A single-node "rack" with k=2: no key can lose both copies.
  kv::ChKvStore store({22, 16}, ReplicationSpec{2, SpreadPolicy::kNone});
  const auto keys = scenario_keys(1000);
  const auto outcome = run_correlated_failure(store, 12, 1, keys, 78);
  EXPECT_EQ(outcome.failed, 1u);
  EXPECT_EQ(outcome.keys_lost, 0u);
  EXPECT_GT(outcome.keys_rereplicated, 0u);
}

TEST(CorrelatedFailure, RackChoiceIsDeterministicPerSeed) {
  const auto run_once = [] {
    kv::HrwKvStore store({23, 10}, ReplicationSpec{2, SpreadPolicy::kNone});
    const auto keys = scenario_keys(800);
    const auto outcome = run_correlated_failure(store, 12, 3, keys, 79);
    return outcome.keys_rereplicated;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(CorrelatedFailure, RejectsDegenerateRacks) {
  kv::HrwKvStore store({24, 10}, ReplicationSpec{2, SpreadPolicy::kNone});
  const auto keys = scenario_keys(10);
  EXPECT_THROW((void)run_correlated_failure(store, 8, 0, keys, 1),
               InvalidArgument);
  EXPECT_THROW((void)run_correlated_failure(store, 8, 8, keys, 1),
               InvalidArgument);
}

TEST(RollingUpgrade, SweepsTheFleetWithoutLosingKeys) {
  kv::HrwKvStore store({25, 10}, ReplicationSpec{2, SpreadPolicy::kNone});
  const auto keys = scenario_keys(1200);
  const auto outcome = run_rolling_upgrade(store, 10, keys);
  EXPECT_EQ(outcome.upgraded, 10u);  // HRW never refuses a drain
  EXPECT_EQ(outcome.refused, 0u);
  EXPECT_EQ(outcome.keys_lost, 0u);
  EXPECT_GT(outcome.keys_rereplicated, 0u);
  ASSERT_EQ(outcome.sigma_series.size(), 10u);
  // The population is back at full strength, all original nodes gone.
  EXPECT_EQ(store.backend().node_count(), 10u);
  for (placement::NodeId node = 0; node < 10; ++node) {
    EXPECT_FALSE(store.backend().is_live(node));
  }
  EXPECT_EQ(store.size(), keys.size());
}

TEST(FailureDuringRepair, SecondCrashLandsWhileRepairIsQueued) {
  // Two disjoint racks of 2 crash in sequence in a 14-node fleet at
  // k = 2. The store repairs each crash synchronously (accounting),
  // while the DES schedules both crashes' rounds: overlapping them can
  // only shorten the makespan against the quiescent-repair reference,
  // never change the message count.
  kv::HrwKvStore store({31, 10}, ReplicationSpec{2, SpreadPolicy::kNone});
  const auto keys = scenario_keys(1200);
  const auto outcome = run_failure_during_repair(store, 14, 2, keys, 91);
  EXPECT_EQ(outcome.failed_first, 2u);  // HRW never refuses
  EXPECT_EQ(outcome.failed_second, 2u);
  EXPECT_EQ(outcome.refused, 0u);
  EXPECT_EQ(store.backend().node_count(), 10u);
  EXPECT_GT(outcome.keys_rereplicated, 0u);
  EXPECT_GT(outcome.totals.repair_copies, 0u);
  EXPECT_GT(outcome.overlapped.rounds, 0u);
  EXPECT_GE(outcome.serialized.makespan_us,
            outcome.overlapped.makespan_us - 1e-9);
  EXPECT_EQ(outcome.serialized.messages, outcome.overlapped.messages);
}

TEST(FailureDuringRepair, AccountingMatchesTheStoreChannels) {
  // The crash-phase totals are the store's replication channel, bit
  // for bit (the driver is cleared after preload, so compare deltas
  // over the crash phase - which is the whole channel delta here).
  kv::ChKvStore store({32, 16}, ReplicationSpec{3, SpreadPolicy::kNone});
  const auto keys = scenario_keys(900);
  const auto before_lost = store.stats().replication.keys_lost;
  const auto before_copies = store.stats().replication.keys_rereplicated;
  const auto outcome = run_failure_during_repair(store, 12, 2, keys, 92);
  EXPECT_EQ(outcome.keys_lost,
            store.stats().replication.keys_lost - before_lost);
  EXPECT_EQ(outcome.totals.keys_lost, outcome.keys_lost);
  // Growth joins repair an empty store (zero copies) and preload puts
  // count as replica_writes, not repairs - so the whole channel delta
  // is the crash phase, which is exactly what the cleared driver saw.
  EXPECT_EQ(outcome.totals.repair_copies,
            store.stats().replication.keys_rereplicated - before_copies);
  EXPECT_EQ(outcome.totals.repair_copies, outcome.keys_rereplicated);
}

TEST(FailureDuringRepair, UnreplicatedCrashesLoseKeysReplicatedOnesLoseLess) {
  const auto keys = scenario_keys(1000);
  kv::JumpKvStore unreplicated({33, 10},
                               ReplicationSpec{1, SpreadPolicy::kNone});
  const auto k1 = run_failure_during_repair(unreplicated, 12, 2, keys, 93);
  EXPECT_GT(k1.keys_lost, 0u);  // no redundancy: both racks lose keys

  kv::JumpKvStore replicated({33, 10}, ReplicationSpec{3, SpreadPolicy::kNone});
  const auto k3 = run_failure_during_repair(replicated, 12, 2, keys, 93);
  EXPECT_LT(k3.keys_lost, k1.keys_lost);
}

TEST(FailureDuringRepair, DeterministicPerSeed) {
  const auto run_once = [] {
    kv::HrwKvStore store({34, 10}, ReplicationSpec{2, SpreadPolicy::kNone});
    const auto keys = scenario_keys(600);
    const auto outcome = run_failure_during_repair(store, 11, 2, keys, 94);
    return std::pair{outcome.keys_rereplicated,
                     outcome.overlapped.makespan_us};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(FailureDuringRepair, RejectsRacksThatLeaveNoSurvivor) {
  kv::HrwKvStore store({35, 10}, ReplicationSpec{2, SpreadPolicy::kNone});
  const auto keys = scenario_keys(10);
  EXPECT_THROW((void)run_failure_during_repair(store, 8, 4, keys, 1),
               InvalidArgument);
  EXPECT_THROW((void)run_failure_during_repair(store, 8, 0, keys, 1),
               InvalidArgument);
}

TEST(RollingUpgrade, RefusedDrainsAreCountedAndSkipped) {
  // The local approach refuses some drains (no cross-group merge);
  // refusals must leave the node serving and lose nothing.
  kv::KvStore store = [] {
    dht::Config c;
    c.pmin = 8;
    c.vmin = 8;
    c.seed = 26;
    return kv::KvStore({c, 1}, ReplicationSpec{2, SpreadPolicy::kNone});
  }();
  const auto keys = scenario_keys(600);
  const auto outcome = run_rolling_upgrade(store, 12, keys);
  EXPECT_EQ(outcome.upgraded + outcome.refused, 12u);
  EXPECT_EQ(outcome.keys_lost, 0u);
  EXPECT_EQ(store.backend().node_count(), 12u);
  EXPECT_EQ(store.size(), keys.size());
}

// --- topology-aware correlated failure ------------------------------

TEST(CorrelatedFailure, RackSpreadSurvivesAWholeRackCrash) {
  // The point of SpreadPolicy::kRack: no replica set lives entirely in
  // one rack, so crashing any whole rack loses nothing - and every
  // repair copy must travel across racks.
  const cluster::Topology topo = cluster::Topology::uniform(4, 3);
  const auto keys = scenario_keys(1200);
  for (const std::size_t k : {std::size_t{2}, std::size_t{3}}) {
    kv::HrwKvStore store(
        {31, 10}, placement::ReplicationSpec{k, placement::SpreadPolicy::kRack});
    const auto outcome = run_correlated_failure(store, 12, topo, 1, keys);
    EXPECT_EQ(outcome.failed, 3u) << "k=" << k;
    EXPECT_EQ(outcome.keys_lost, 0u)
        << "k=" << k << ": a spread replica set died with its rack";
    EXPECT_GT(outcome.keys_rereplicated, 0u);
    EXPECT_GT(outcome.keys_rereplicated_cross_rack, 0u)
        << "rack-spread repair must cross racks";
  }
}

TEST(CorrelatedFailure, UnspreadPlacementLosesKeysOnARackCrash) {
  // The same store without the spread policy: some replica sets land
  // entirely inside the victim rack, and those keys are gone.
  const cluster::Topology topo = cluster::Topology::uniform(4, 3);
  const auto keys = scenario_keys(1200);
  kv::HrwKvStore store(
      {31, 10}, placement::ReplicationSpec{2, placement::SpreadPolicy::kNone});
  const auto outcome = run_correlated_failure(store, 12, topo, 1, keys);
  EXPECT_EQ(outcome.failed, 3u);
  EXPECT_GT(outcome.keys_lost, 0u)
      << "unspread k=2 replica sets should collapse with the rack";
}

TEST(CorrelatedFailure, ZoneSpreadSurvivesAWholeZoneCrash) {
  // Zone spread at k=2 over 2 zones: crash every rack of one zone in
  // one plan - the surviving zone still holds a copy of everything.
  const cluster::Topology topo = cluster::Topology::uniform(4, 3, 2);
  const auto keys = scenario_keys(1000);
  kv::ChKvStore store(
      {33, 16}, placement::ReplicationSpec{2, placement::SpreadPolicy::kZone});
  for (std::size_t n = 0; n < 12; ++n) store.add_node();
  store.set_topology(&topo);
  for (const auto& key : keys) store.put(key, "v");
  std::vector<placement::NodeId> victims = topo.nodes_in_zone(0);
  const auto before = store.stats().replication;
  (void)store.fail_nodes(victims);
  const auto after = store.stats().replication;
  EXPECT_EQ(after.keys_lost, before.keys_lost)
      << "a zone-spread replica set died with its zone";
  EXPECT_GT(after.keys_rereplicated, before.keys_rereplicated);
}

TEST(CorrelatedFailure, TopologyOverloadIsDeterministic) {
  const cluster::Topology topo = cluster::Topology::uniform(3, 4);
  const auto keys = scenario_keys(600);
  std::vector<std::uint64_t> rereplicated;
  for (int i = 0; i < 2; ++i) {
    kv::JumpKvStore store(
        {35, 10},
        placement::ReplicationSpec{2, placement::SpreadPolicy::kRack});
    const auto outcome = run_correlated_failure(store, 12, topo, 2, keys);
    EXPECT_EQ(outcome.keys_lost, 0u);
    rereplicated.push_back(outcome.keys_rereplicated);
  }
  EXPECT_EQ(rereplicated[0], rereplicated[1]);
}

}  // namespace
}  // namespace cobalt::sim
