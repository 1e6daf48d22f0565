// Tests for the replicated key-value store: one typed suite drives the
// replication layer of kv::Store over all seven placement backends
// through identical scenarios - write fan-out, graceful drains,
// correlated crashes, and the separation of the relocation and
// re-replication accounting channels (the two stats surfaces of
// kv/store.hpp).

#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace cobalt::kv {
namespace {

using placement::ReplicationSpec;
using placement::SpreadPolicy;

dht::Config cfg(std::uint64_t pmin, std::uint64_t vmin, std::uint64_t seed) {
  dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = seed;
  return c;
}

/// Per-backend replicated-store factory with a comparable footprint.
template <typename StoreT>
StoreT make_store(std::uint64_t seed, std::size_t replication);

template <>
KvStore make_store<KvStore>(std::uint64_t seed, std::size_t replication) {
  return KvStore({cfg(8, 8, seed), 1},
                 ReplicationSpec{replication, SpreadPolicy::kNone});
}

template <>
GlobalKvStore make_store<GlobalKvStore>(std::uint64_t seed,
                                        std::size_t replication) {
  return GlobalKvStore({cfg(8, 1, seed), 1},
                       ReplicationSpec{replication, SpreadPolicy::kNone});
}

template <>
ChKvStore make_store<ChKvStore>(std::uint64_t seed,
                                std::size_t replication) {
  return ChKvStore({seed, 16},
                   ReplicationSpec{replication, SpreadPolicy::kNone});
}

template <>
HrwKvStore make_store<HrwKvStore>(std::uint64_t seed,
                                  std::size_t replication) {
  return HrwKvStore({seed, 12},
                    ReplicationSpec{replication, SpreadPolicy::kNone});
}

template <>
JumpKvStore make_store<JumpKvStore>(std::uint64_t seed,
                                    std::size_t replication) {
  return JumpKvStore({seed, 12},
                     ReplicationSpec{replication, SpreadPolicy::kNone});
}

template <>
MaglevKvStore make_store<MaglevKvStore>(std::uint64_t seed,
                                        std::size_t replication) {
  return MaglevKvStore({seed, 12},
                       ReplicationSpec{replication, SpreadPolicy::kNone});
}

template <>
BoundedChKvStore make_store<BoundedChKvStore>(std::uint64_t seed,
                                              std::size_t replication) {
  return BoundedChKvStore({seed, 16, 0.25, 12},
                          ReplicationSpec{replication, SpreadPolicy::kNone});
}

template <typename StoreT>
class ReplicatedStoreSuite : public ::testing::Test {};

using StoreTypes =
    ::testing::Types<KvStore, GlobalKvStore, ChKvStore, HrwKvStore,
                     JumpKvStore, MaglevKvStore, BoundedChKvStore>;
TYPED_TEST_SUITE(ReplicatedStoreSuite, StoreTypes);

/// The conservation invariant of the replication layer: after any
/// membership event through the store, every key is held by exactly
/// min(k, node_count()) distinct live nodes and the primary is rank 0.
template <typename StoreT>
void expect_fully_replicated(const StoreT& store,
                             const std::vector<std::string>& keys) {
  const std::size_t expected =
      std::min(store.replication_spec().k, store.backend().node_count());
  for (const std::string& key : keys) {
    const auto replicas = store.replicas_of(key);
    ASSERT_EQ(replicas.size(), expected) << "key " << key;
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      ASSERT_TRUE(store.backend().is_live(replicas[i]));
      for (std::size_t j = i + 1; j < replicas.size(); ++j) {
        ASSERT_NE(replicas[i], replicas[j]) << "duplicate replica";
      }
    }
    ASSERT_EQ(replicas.front(), store.owner_of(key))
        << "rank 0 must be the primary";
  }
}

TYPED_TEST(ReplicatedStoreSuite, WritesMaterializeKDistinctLiveReplicas) {
  auto store = make_store<TypeParam>(901, 3);
  for (int n = 0; n < 8; ++n) store.add_node();
  std::vector<std::string> keys;
  for (int i = 0; i < 300; ++i) {
    keys.push_back("w" + std::to_string(i));
    store.put(keys.back(), "v");
  }
  expect_fully_replicated(store, keys);
  // Fan-out accounting: every put wrote one copy per replica.
  EXPECT_EQ(store.stats().replication.replica_writes, 300u * 3u);
  // Reads are served by the primary while it lives.
  for (const std::string& key : keys) {
    EXPECT_EQ(store.read_node_of(key), store.owner_of(key));
  }
}

TYPED_TEST(ReplicatedStoreSuite, ReplicationConservedThroughMembership) {
  auto store = make_store<TypeParam>(902, 2);
  std::vector<placement::NodeId> nodes;
  for (int n = 0; n < 6; ++n) nodes.push_back(store.add_node());
  std::vector<std::string> keys;
  for (int i = 0; i < 400; ++i) {
    keys.push_back("c" + std::to_string(i));
    store.put(keys.back(), "v");
  }
  // Joins, graceful drains and crashes all repair the replica sets.
  store.add_node();
  expect_fully_replicated(store, keys);
  (void)store.remove_node(nodes[1]);
  expect_fully_replicated(store, keys);
  const std::vector<placement::NodeId> rack = {nodes[3]};
  store.fail_nodes(rack);
  expect_fully_replicated(store, keys);
  store.add_node();
  expect_fully_replicated(store, keys);
  EXPECT_EQ(store.size(), keys.size());
}

TYPED_TEST(ReplicatedStoreSuite, GracefulDrainNeverLosesKeys) {
  auto store = make_store<TypeParam>(903, 2);
  std::vector<placement::NodeId> nodes;
  for (int n = 0; n < 10; ++n) nodes.push_back(store.add_node());
  std::vector<std::string> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back("g" + std::to_string(i));
    store.put(keys.back(), "v");
  }
  int drained = 0;
  for (std::size_t i = 0; i < nodes.size() && drained < 4; ++i) {
    if (store.remove_node(nodes[i])) ++drained;
  }
  EXPECT_GT(drained, 0);
  EXPECT_EQ(store.stats().replication.keys_lost, 0u);
  EXPECT_GT(store.stats().replication.keys_rereplicated, 0u);
  expect_fully_replicated(store, keys);
}

TYPED_TEST(ReplicatedStoreSuite, UnreplicatedCrashLosesExactlyTheOwnedKeys) {
  auto store = make_store<TypeParam>(904, 1);
  std::vector<placement::NodeId> nodes;
  for (int n = 0; n < 8; ++n) nodes.push_back(store.add_node());
  for (int i = 0; i < 600; ++i) store.put("u" + std::to_string(i), "v");
  // Crash a node the scheme will let go (skip potential refusals by
  // probing with the crash itself: fail_nodes reports completions).
  // The ownership snapshot is taken per attempt because even a refused
  // drain may shuffle primaries internally (the local approach's
  // aborted decommission).
  for (const placement::NodeId victim : nodes) {
    const auto owned = store.keys_per_node();
    const std::vector<placement::NodeId> rack = {victim};
    const std::uint64_t lost_before = store.stats().replication.keys_lost;
    if (store.fail_nodes(rack) == 1) {
      EXPECT_EQ(store.stats().replication.keys_lost - lost_before,
                owned[victim])
          << "at k=1, a crash loses exactly the victim's keys";
      return;
    }
    EXPECT_EQ(store.stats().replication.keys_lost, lost_before)
        << "a refused crash must not lose keys";
  }
  FAIL() << "no removable node found";
}

TYPED_TEST(ReplicatedStoreSuite, ReplicatedSingleCrashLosesNothing) {
  auto store = make_store<TypeParam>(905, 2);
  std::vector<placement::NodeId> nodes;
  for (int n = 0; n < 8; ++n) nodes.push_back(store.add_node());
  std::vector<std::string> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back("r" + std::to_string(i));
    store.put(keys.back(), "v");
  }
  const std::vector<placement::NodeId> rack = {nodes[2]};
  store.fail_nodes(rack);
  EXPECT_EQ(store.stats().replication.keys_lost, 0u);
  // Every key is still readable from a live replica.
  for (const std::string& key : keys) {
    EXPECT_TRUE(store.backend().is_live(store.read_node_of(key)));
  }
}

TYPED_TEST(ReplicatedStoreSuite, CrashOfAWholeReplicaSetIsCountedLost) {
  auto store = make_store<TypeParam>(906, 2);
  for (int n = 0; n < 8; ++n) store.add_node();
  std::vector<std::string> keys;
  for (int i = 0; i < 400; ++i) {
    keys.push_back("l" + std::to_string(i));
    store.put(keys.back(), "v");
  }
  // Crash the full replica set of one key in a single batch.
  const auto rack = store.replicas_of(keys.front());
  ASSERT_EQ(rack.size(), 2u);
  const std::size_t failed = store.fail_nodes(rack);
  if (failed == rack.size()) {
    EXPECT_GT(store.stats().replication.keys_lost, 0u);
  }
  // The simulator keeps the bytes so scenarios can continue; the loss
  // is an accounting fact, not a wipe.
  EXPECT_EQ(store.size(), keys.size());
  expect_fully_replicated(store, keys);
}

TYPED_TEST(ReplicatedStoreSuite, RelocationAndReplicationChannelsAreSplit) {
  auto store = make_store<TypeParam>(907, 2);
  for (int n = 0; n < 6; ++n) store.add_node();
  for (int i = 0; i < 800; ++i) store.put("s" + std::to_string(i), "v");
  const auto relocation_before = store.stats().relocation;
  const auto replication_before = store.stats().replication;
  store.add_node();
  // The join moved primaries (relocation channel) and repaired replica
  // sets (replication channel); each is queryable on its own.
  EXPECT_GT(store.stats().relocation.keys_moved_across_nodes,
            relocation_before.keys_moved_across_nodes);
  EXPECT_GT(store.stats().replication.keys_rereplicated,
            replication_before.keys_rereplicated);
  EXPECT_EQ(store.stats().replication.keys_lost, 0u);
}

TYPED_TEST(ReplicatedStoreSuite, ReplicaCopiesSumToKTimesKeys) {
  auto store = make_store<TypeParam>(908, 3);
  for (int n = 0; n < 9; ++n) store.add_node();
  constexpr std::size_t kKeys = 600;
  for (std::size_t i = 0; i < kKeys; ++i) {
    store.put("t" + std::to_string(i), "v");
  }
  const auto copies = store.replica_copies_per_node();
  std::size_t total = 0;
  for (const std::size_t c : copies) total += c;
  EXPECT_EQ(total, kKeys * 3u);
  const auto primaries = store.keys_per_node();
  std::size_t primary_total = 0;
  for (const std::size_t c : primaries) primary_total += c;
  EXPECT_EQ(primary_total, kKeys);
}

TYPED_TEST(ReplicatedStoreSuite, FactorOneBehavesLikeTheUnreplicatedStore) {
  auto store = make_store<TypeParam>(909, 1);
  for (int n = 0; n < 4; ++n) store.add_node();
  store.put("solo", "v");
  EXPECT_EQ(store.replication_spec().k, 1u);
  const auto replicas = store.replicas_of("solo");
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_EQ(replicas.front(), store.owner_of("solo"));
  EXPECT_EQ(store.replicas_of("missing").size(), 0u);
  EXPECT_EQ(store.read_node_of("missing"), placement::kInvalidNode);
}

TYPED_TEST(ReplicatedStoreSuite, RejectsAZeroReplicationFactor) {
  EXPECT_THROW((void)make_store<TypeParam>(910, 0), InvalidArgument);
}

TYPED_TEST(ReplicatedStoreSuite, FailNodesSurvivesDegenerateBatches) {
  // A batch that would empty the cluster, repeat a victim, or name a
  // dead node must not throw mid-loop: the guarded entries count as
  // survivors and the single repair pass still runs.
  auto store = make_store<TypeParam>(911, 2);
  const auto a = store.add_node();
  const auto b = store.add_node();
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("f" + std::to_string(i));
    store.put(keys.back(), "v");
  }
  const std::uint64_t passes_before =
      store.stats().replication.rereplication_passes;
  const std::vector<placement::NodeId> batch = {a, a, b};
  // At most one removal can complete (the last live node survives; a
  // scheme may also refuse, keeping both).
  const std::size_t failed = store.fail_nodes(batch);
  EXPECT_LE(failed, 1u);
  EXPECT_EQ(store.backend().node_count(), 2u - failed);
  EXPECT_EQ(store.stats().replication.rereplication_passes,
            passes_before + 1);
  // The repair pass ran: no materialized replica set lists a dead
  // node, and every key reads from the survivor.
  expect_fully_replicated(store, keys);
  EXPECT_EQ(store.stats().replication.keys_lost, 0u);
}

TYPED_TEST(ReplicatedStoreSuite,
           UnreplicatedRepairStaysAlignedThroughMixedEvents) {
  // The k == 1 repair pass only visits relocated ranges; after an
  // arbitrary join/drain/crash mix its materialized owners must be
  // indistinguishable from a full re-derivation.
  auto store = make_store<TypeParam>(912, 1);
  std::vector<placement::NodeId> nodes;
  for (int n = 0; n < 5; ++n) nodes.push_back(store.add_node());
  std::vector<std::string> keys;
  for (int i = 0; i < 400; ++i) {
    keys.push_back("a" + std::to_string(i));
    store.put(keys.back(), "v");
  }
  store.add_node();
  (void)store.remove_node(nodes[0]);
  const std::vector<placement::NodeId> rack = {nodes[2]};
  store.fail_nodes(rack);
  store.add_node();
  expect_fully_replicated(store, keys);  // replicas_of == {owner_of}
}

// --- read balancing (ReadPolicy) ------------------------------------

TYPED_TEST(ReplicatedStoreSuite, PrimaryPolicyMatchesThePlainReadPath) {
  auto store = make_store<TypeParam>(913, 3);
  for (int n = 0; n < 8; ++n) store.add_node();
  for (int i = 0; i < 200; ++i) store.put("p" + std::to_string(i), "v");
  for (int i = 0; i < 200; i += 7) {
    const std::string key = "p" + std::to_string(i);
    EXPECT_EQ(store.read_node_of(key, ReadPolicy::kPrimary),
              store.read_node_of(key))
        << key;
  }
  // A key the store does not hold reads as invalid under every policy.
  for (const ReadPolicy policy :
       {ReadPolicy::kPrimary, ReadPolicy::kRoundRobin,
        ReadPolicy::kLeastLoaded}) {
    EXPECT_EQ(store.read_node_of("missing", policy),
              placement::kInvalidNode);
  }
}

TYPED_TEST(ReplicatedStoreSuite, RoundRobinCyclesThroughTheReplicaSet) {
  auto store = make_store<TypeParam>(914, 3);
  for (int n = 0; n < 8; ++n) store.add_node();
  store.put("hot", "v");
  const std::vector<placement::NodeId> replicas = store.replicas_of("hot");
  ASSERT_EQ(replicas.size(), 3u);
  // The cursor starts at zero and advances once per balanced read, so
  // two full turns visit the ranks in order twice.
  for (int turn = 0; turn < 2; ++turn) {
    for (std::size_t rank = 0; rank < replicas.size(); ++rank) {
      EXPECT_EQ(store.read_node_of("hot", ReadPolicy::kRoundRobin),
                replicas[rank])
          << "turn " << turn << " rank " << rank;
    }
  }
}

TYPED_TEST(ReplicatedStoreSuite, LeastLoadedSpreadsAHotKeyEvenly) {
  auto store = make_store<TypeParam>(915, 3);
  for (int n = 0; n < 8; ++n) store.add_node();
  store.put("hot", "v");
  const std::vector<placement::NodeId> replicas = store.replicas_of("hot");
  ASSERT_EQ(replicas.size(), 3u);
  std::vector<std::size_t> served(replicas.size(), 0);
  constexpr int kReads = 9;
  for (int i = 0; i < kReads; ++i) {
    const placement::NodeId node =
        store.read_node_of("hot", ReadPolicy::kLeastLoaded);
    const auto it = std::find(replicas.begin(), replicas.end(), node);
    ASSERT_NE(it, replicas.end()) << "read outside the replica set";
    ++served[static_cast<std::size_t>(it - replicas.begin())];
  }
  // Every replica absorbed exactly its fair share of the hot key.
  for (std::size_t rank = 0; rank < served.size(); ++rank) {
    EXPECT_EQ(served[rank], kReads / replicas.size()) << "rank " << rank;
  }
}

TYPED_TEST(ReplicatedStoreSuite, LeastLoadedBreaksTiesByReplicaRank) {
  auto store = make_store<TypeParam>(917, 3);
  for (int n = 0; n < 8; ++n) store.add_node();
  store.put("hot", "v");
  const std::vector<placement::NodeId> replicas = store.replicas_of("hot");
  ASSERT_EQ(replicas.size(), 3u);
  // All served-read loads start equal (zero), so ties decide every
  // pick: the policy must fall back to replica-rank order, giving the
  // exact sequence r0, r1, r2, r0, r1, r2 - not an arbitrary stable
  // ordering.
  for (int turn = 0; turn < 2; ++turn) {
    for (std::size_t rank = 0; rank < replicas.size(); ++rank) {
      EXPECT_EQ(store.read_node_of("hot", ReadPolicy::kLeastLoaded),
                replicas[rank])
          << "turn " << turn << " rank " << rank;
    }
  }
}

TYPED_TEST(ReplicatedStoreSuite, RoundRobinCursorPersistsAcrossChurn) {
  // The cursor is store-wide state: a membership event that changes
  // the replica set must neither reset it nor leave it pointing at
  // stale ranks - the next read indexes the *current* live set at
  // cursor mod size. Three nodes at k=3 make the whole cluster the
  // replica set, so a crash genuinely shrinks it (repair clamps to
  // min(k, node_count) = 2) and a re-join grows it back.
  auto store = make_store<TypeParam>(918, 3);
  for (int n = 0; n < 3; ++n) store.add_node();
  store.put("hot", "v");
  const std::vector<placement::NodeId> replicas = store.replicas_of("hot");
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(store.read_node_of("hot", ReadPolicy::kRoundRobin), replicas[0]);
  EXPECT_EQ(store.read_node_of("hot", ReadPolicy::kRoundRobin), replicas[1]);
  // Crash one replica: the set shrinks to the two survivors.
  const std::vector<placement::NodeId> rack = {replicas[2]};
  ASSERT_EQ(store.fail_nodes(rack), 1u);
  const std::vector<placement::NodeId> shrunk = store.replicas_of("hot");
  ASSERT_EQ(shrunk.size(), 2u);
  // Cursor continues from 2: picks land at 2 % 2 = 0, then 3 % 2 = 1.
  EXPECT_EQ(store.read_node_of("hot", ReadPolicy::kRoundRobin), shrunk[0]);
  EXPECT_EQ(store.read_node_of("hot", ReadPolicy::kRoundRobin), shrunk[1]);
  // A join grows the set back to three; cursor continues from 4.
  store.add_node();
  const std::vector<placement::NodeId> grown = store.replicas_of("hot");
  ASSERT_EQ(grown.size(), 3u);
  EXPECT_EQ(store.read_node_of("hot", ReadPolicy::kRoundRobin),
            grown[4 % 3]);
  EXPECT_EQ(store.read_node_of("hot", ReadPolicy::kRoundRobin),
            grown[5 % 3]);
}

TYPED_TEST(ReplicatedStoreSuite, LeastLoadedHonorsAnExternalLoadProbe) {
  auto store = make_store<TypeParam>(919, 3);
  for (int n = 0; n < 8; ++n) store.add_node();
  store.put("hot", "v");
  const std::vector<placement::NodeId> replicas = store.replicas_of("hot");
  ASSERT_EQ(replicas.size(), 3u);
  // The probe's instantaneous loads override the store's cumulative
  // served-read counters: rank 1 reports the shortest queue and must
  // win every time, regardless of how often it already served.
  std::vector<std::uint64_t> depth(store.backend().node_slot_count(), 7);
  depth[replicas[0]] = 5;
  depth[replicas[1]] = 2;
  depth[replicas[2]] = 9;
  const NodeLoadProbe probe = [&depth](placement::NodeId node) {
    return depth[node];
  };
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(store.read_node_of("hot", ReadPolicy::kLeastLoaded, probe),
              replicas[1]);
  }
  // Equal probe loads tie-break by replica rank, like the unprobed
  // policy.
  depth.assign(depth.size(), 4);
  EXPECT_EQ(store.read_node_of("hot", ReadPolicy::kLeastLoaded, probe),
            replicas[0]);
  // The other policies ignore the probe entirely.
  EXPECT_EQ(store.read_node_of("hot", ReadPolicy::kPrimary, probe),
            replicas[0]);
  // Probed reads still counted into the served-read loads (three for
  // rank 1, one each for ranks 0 picked above), so the unprobed
  // policy sees rank 2 as least loaded next.
  EXPECT_EQ(store.read_node_of("hot", ReadPolicy::kLeastLoaded),
            replicas[2]);
}

TYPED_TEST(ReplicatedStoreSuite, BalancedReadsStayInsideTheLiveReplicaSet) {
  auto store = make_store<TypeParam>(916, 2);
  std::vector<placement::NodeId> nodes;
  for (int n = 0; n < 8; ++n) nodes.push_back(store.add_node());
  std::vector<std::string> keys;
  for (int i = 0; i < 150; ++i) {
    keys.push_back("b" + std::to_string(i));
    store.put(keys.back(), "v");
  }
  const std::vector<placement::NodeId> rack = {nodes[3]};
  store.fail_nodes(rack);
  for (const std::string& key : keys) {
    const auto replicas = store.replicas_of(key);
    for (const ReadPolicy policy :
         {ReadPolicy::kPrimary, ReadPolicy::kRoundRobin,
          ReadPolicy::kLeastLoaded}) {
      const placement::NodeId node = store.read_node_of(key, policy);
      EXPECT_TRUE(store.backend().is_live(node)) << key;
      EXPECT_NE(std::find(replicas.begin(), replicas.end(), node),
                replicas.end())
          << key << ": balanced read outside the replica set";
    }
  }
}

// --- graceful degradation under crashes ------------------------------

TYPED_TEST(ReplicatedStoreSuite, ReadsFailOverPastACrashedPrimary) {
  auto store = make_store<TypeParam>(920, 3);
  for (int n = 0; n < 8; ++n) store.add_node();
  std::vector<std::string> keys;
  for (int i = 0; i < 300; ++i) {
    keys.push_back("d" + std::to_string(i));
    store.put(keys.back(), "v");
  }
  // Crash the primary of the first key and remember who it served.
  const placement::NodeId victim = store.owner_of(keys.front());
  std::vector<std::string> orphaned;
  for (const std::string& key : keys) {
    if (store.owner_of(key) == victim) orphaned.push_back(key);
  }
  const std::vector<placement::NodeId> rack = {victim};
  ASSERT_EQ(store.fail_nodes(rack), 1u);

  // Every orphaned key reads from a live node under every policy: the
  // read path follows the repaired replica set, never the dead
  // primary.
  EXPECT_FALSE(orphaned.empty());
  for (const std::string& key : orphaned) {
    for (const ReadPolicy policy :
         {ReadPolicy::kPrimary, ReadPolicy::kRoundRobin,
          ReadPolicy::kLeastLoaded}) {
      const placement::NodeId node = store.read_node_of(key, policy);
      ASSERT_NE(node, victim) << key << ": read routed to the dead primary";
      ASSERT_TRUE(store.backend().is_live(node)) << key;
    }
  }
  // At k=3 a single crash cannot lose data.
  EXPECT_EQ(store.stats().replication.keys_lost, 0u);
}

TYPED_TEST(ReplicatedStoreSuite, CrashAfterChurnLeavesAccountingConserved) {
  // fail_nodes landing on a store that just went through membership
  // churn (the crash-during-repair shape): population, per-node key
  // sums, replica-copy mass and the loss counter must all stay
  // conserved, and no read may reach a dead node.
  auto store = make_store<TypeParam>(921, 2);
  std::vector<placement::NodeId> nodes;
  for (int n = 0; n < 9; ++n) nodes.push_back(store.add_node());
  std::vector<std::string> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back("m" + std::to_string(i));
    store.put(keys.back(), "v");
  }
  // Churn first (repair state in flux), then the crash batch.
  store.add_node();
  (void)store.remove_node(nodes[1]);
  const std::vector<placement::NodeId> rack = {nodes[4], nodes[6]};
  const std::size_t failed = store.fail_nodes(rack);

  // Population: every key survives in the simulator (losses are an
  // accounting fact), and the primary map partitions exactly it.
  EXPECT_EQ(store.size(), keys.size());
  const auto per_node = store.keys_per_node();
  std::size_t primary_sum = 0;
  for (std::size_t n = 0; n < per_node.size(); ++n) {
    if (per_node[n] > 0) {
      EXPECT_TRUE(store.backend().is_live(static_cast<placement::NodeId>(n)))
          << "dead node " << n << " still owns keys";
    }
    primary_sum += per_node[n];
  }
  EXPECT_EQ(primary_sum, keys.size());

  // Replica mass: exactly min(k, nodes) live copies per key.
  const std::size_t target =
      std::min(store.replication_spec().k, store.backend().node_count());
  const auto copies = store.replica_copies_per_node();
  std::size_t copy_sum = 0;
  for (const std::size_t c : copies) copy_sum += c;
  EXPECT_EQ(copy_sum, keys.size() * target);
  expect_fully_replicated(store, keys);

  // Only a completed crash may lose anything (at k=2 the two victims
  // can host whole replica pairs, so losses are possible but bounded).
  if (failed == 0) {
    EXPECT_EQ(store.stats().replication.keys_lost, 0u);
  }
  for (const std::string& key : keys) {
    const placement::NodeId node = store.read_node_of(key);
    EXPECT_TRUE(store.backend().is_live(node)) << key;
  }
}

}  // namespace
}  // namespace cobalt::kv
