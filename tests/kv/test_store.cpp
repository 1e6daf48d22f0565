// Tests for the unified key-value store: one typed suite drives
// kv::Store over all seven placement backends (local DHT, global DHT,
// Consistent Hashing, HRW, jump, maglev, bounded-load CH) through
// identical scenarios - the store-level counterpart of the paper's
// comparison - plus DHT-specific coverage of the migration
// accounting.

#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "dht/invariants.hpp"

namespace cobalt::kv {
namespace {

dht::Config cfg(std::uint64_t pmin, std::uint64_t vmin, std::uint64_t seed) {
  dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = seed;
  return c;
}

/// Per-backend store factory with a comparable footprint (one vnode or
/// one 16-point set per node).
template <typename StoreT>
StoreT make_store(std::uint64_t seed);

template <>
KvStore make_store<KvStore>(std::uint64_t seed) {
  return KvStore({cfg(8, 8, seed), 1});
}

template <>
GlobalKvStore make_store<GlobalKvStore>(std::uint64_t seed) {
  return GlobalKvStore({cfg(8, 1, seed), 1});
}

template <>
ChKvStore make_store<ChKvStore>(std::uint64_t seed) {
  return ChKvStore({seed, 16});
}

template <>
HrwKvStore make_store<HrwKvStore>(std::uint64_t seed) {
  return HrwKvStore({seed, 12});
}

template <>
JumpKvStore make_store<JumpKvStore>(std::uint64_t seed) {
  return JumpKvStore({seed, 12});
}

template <>
MaglevKvStore make_store<MaglevKvStore>(std::uint64_t seed) {
  return MaglevKvStore({seed, 12});
}

template <>
BoundedChKvStore make_store<BoundedChKvStore>(std::uint64_t seed) {
  return BoundedChKvStore({seed, 16, 0.25, 12});
}

template <typename StoreT>
class StoreSuite : public ::testing::Test {};

using StoreTypes =
    ::testing::Types<KvStore, GlobalKvStore, ChKvStore, HrwKvStore,
                     JumpKvStore, MaglevKvStore, BoundedChKvStore>;
TYPED_TEST_SUITE(StoreSuite, StoreTypes);

TYPED_TEST(StoreSuite, PutGetEraseRoundTrip) {
  auto store = make_store<TypeParam>(1);
  store.add_node();
  EXPECT_TRUE(store.put("alpha", "1"));
  EXPECT_FALSE(store.put("alpha", "2"));  // overwrite
  EXPECT_TRUE(store.put("beta", "3"));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get("alpha"), "2");
  EXPECT_EQ(store.get("beta"), "3");
  EXPECT_EQ(store.get("gamma"), std::nullopt);
  EXPECT_TRUE(store.erase("alpha"));
  EXPECT_FALSE(store.erase("alpha"));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get("alpha"), std::nullopt);
}

TYPED_TEST(StoreSuite, WritesRequireANode) {
  auto store = make_store<TypeParam>(2);
  EXPECT_THROW((void)store.put("k", "v"), InvalidArgument);
  EXPECT_EQ(store.get("k"), std::nullopt);
}

TYPED_TEST(StoreSuite, KeysSurviveGrowth) {
  auto store = make_store<TypeParam>(3);
  store.add_node();
  constexpr int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) {
    store.put("key-" + std::to_string(i), "value-" + std::to_string(i));
  }
  for (int i = 0; i < 40; ++i) store.add_node();
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(store.get("key-" + std::to_string(i)),
              "value-" + std::to_string(i))
        << "key " << i;
  }
}

TYPED_TEST(StoreSuite, KeysSurviveRemovals) {
  auto store = make_store<TypeParam>(4);
  std::vector<placement::NodeId> nodes;
  for (int i = 0; i < 20; ++i) nodes.push_back(store.add_node());
  constexpr int kKeys = 1000;
  for (int i = 0; i < kKeys; ++i) {
    store.put("k" + std::to_string(i), std::to_string(i));
  }
  // Remove up to 6 nodes; a backend may refuse some removals (the
  // local approach's honest boundary) - the node then simply stays.
  int removed = 0;
  for (std::size_t i = 0; i < nodes.size() && removed < 6; ++i) {
    if (store.remove_node(nodes[i])) ++removed;
  }
  EXPECT_GT(removed, 0);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(store.get("k" + std::to_string(i)), std::to_string(i));
  }
}

TYPED_TEST(StoreSuite, OwnerOfReturnsALiveNode) {
  auto store = make_store<TypeParam>(5);
  for (int n = 0; n < 4; ++n) store.add_node();
  for (int i = 0; i < 200; ++i) {
    const std::string key = "o" + std::to_string(i);
    store.put(key, "v");
    EXPECT_TRUE(store.backend().is_live(store.owner_of(key)));
  }
}

TYPED_TEST(StoreSuite, KeysPerNodeSumsToSizeAndTracksQuotas) {
  auto store = make_store<TypeParam>(6);
  for (int n = 0; n < 8; ++n) store.add_node();
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) store.put("d" + std::to_string(i), "v");
  const auto counts = store.keys_per_node();
  ASSERT_EQ(counts.size(), store.backend().node_slot_count());
  std::size_t total = 0;
  for (const auto c : counts) total += c;
  EXPECT_EQ(total, static_cast<std::size_t>(kKeys));
  // Observed shares approximate the backend's quotas.
  const auto quotas = store.backend().quotas();
  ASSERT_EQ(quotas.size(), counts.size());  // all nodes live
  for (std::size_t n = 0; n < counts.size(); ++n) {
    const double observed =
        static_cast<double>(counts[n]) / static_cast<double>(kKeys);
    EXPECT_NEAR(observed, quotas[n], 0.05) << "node " << n;
  }
}

TYPED_TEST(StoreSuite, ForEachVisitsEveryPairExactlyOnce) {
  auto store = make_store<TypeParam>(7);
  store.add_node();
  for (int i = 0; i < 300; ++i) {
    store.put("e" + std::to_string(i), std::to_string(i));
  }
  for (int i = 0; i < 6; ++i) store.add_node();
  std::map<std::string, std::string> seen;
  store.for_each([&](const std::string& k, const std::string& v) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate " << k;
  });
  EXPECT_EQ(seen.size(), 300u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(seen.at("e" + std::to_string(i)), std::to_string(i));
  }
}

TYPED_TEST(StoreSuite, ForEachOnNodePartitionsTheIteration) {
  auto store = make_store<TypeParam>(8);
  const auto n0 = store.add_node();
  const auto n1 = store.add_node();
  for (int i = 0; i < 500; ++i) store.put("p" + std::to_string(i), "v");
  std::size_t c0 = 0;
  std::size_t c1 = 0;
  store.for_each_on_node(n0, [&](const std::string&, const std::string&) {
    ++c0;
  });
  store.for_each_on_node(n1, [&](const std::string&, const std::string&) {
    ++c1;
  });
  EXPECT_EQ(c0 + c1, 500u);
  EXPECT_GT(c0, 0u);
  EXPECT_GT(c1, 0u);
  EXPECT_THROW(store.for_each_on_node(
                   99, [](const std::string&, const std::string&) {}),
               InvalidArgument);
}

TYPED_TEST(StoreSuite, KeysInRangeCountsByHashContainment) {
  auto store = make_store<TypeParam>(9);
  store.add_node();
  for (int i = 0; i < 1000; ++i) store.put("c" + std::to_string(i), "v");
  EXPECT_EQ(store.keys_in_range(0, HashSpace::kMaxIndex), 1000u);
  const HashIndex mid = HashIndex{1} << 63;
  EXPECT_EQ(store.keys_in_range(0, mid - 1) +
                store.keys_in_range(mid, HashSpace::kMaxIndex),
            1000u);
  // Roughly half on each side for a good hash.
  EXPECT_NEAR(static_cast<double>(store.keys_in_range(0, mid - 1)), 500.0,
              80.0);
}

TYPED_TEST(StoreSuite, ScanVisitsEveryPairOnceAndAgreesWithForEach) {
  auto store = make_store<TypeParam>(9);
  for (int n = 0; n < 3; ++n) store.add_node();
  for (int i = 0; i < 400; ++i) {
    store.put("r" + std::to_string(i), std::to_string(i));
  }
  std::map<std::string, std::string> scanned;
  store.scan(0, HashSpace::kMaxIndex,
             [&](const std::string& k, const std::string& v) {
               EXPECT_TRUE(scanned.emplace(k, v).second) << "duplicate " << k;
             });
  std::map<std::string, std::string> iterated;
  store.for_each([&](const std::string& k, const std::string& v) {
    iterated.emplace(k, v);
  });
  EXPECT_EQ(scanned, iterated);
  EXPECT_EQ(scanned.size(), store.size());
}

TYPED_TEST(StoreSuite, ScanSubrangesPartitionTheFullScanInOrder) {
  auto store = make_store<TypeParam>(9);
  for (int n = 0; n < 2; ++n) store.add_node();
  for (int i = 0; i < 600; ++i) store.put("q" + std::to_string(i), "v");

  std::vector<std::string> full;
  store.scan(0, HashSpace::kMaxIndex,
             [&](const std::string& k, const std::string&) {
               full.push_back(k);
             });

  // Quarter scans concatenate to exactly the full scan: same keys,
  // same (ascending-hash) order, nothing dropped or duplicated at the
  // range seams - and every sub-count matches the counting surface.
  std::vector<std::string> stitched;
  constexpr HashIndex kQuarter = HashIndex{1} << 62;
  for (int q = 0; q < 4; ++q) {
    const HashIndex lo = static_cast<HashIndex>(q) * kQuarter;
    const HashIndex hi =
        q == 3 ? HashSpace::kMaxIndex : (lo + kQuarter - 1);
    std::size_t count = 0;
    store.scan(lo, hi, [&](const std::string& k, const std::string&) {
      stitched.push_back(k);
      ++count;
    });
    EXPECT_EQ(count, store.keys_in_range(lo, hi)) << "quarter " << q;
  }
  EXPECT_EQ(stitched, full);
}

TYPED_TEST(StoreSuite, ScanSeesCurrentValuesAndSkipsErased) {
  auto store = make_store<TypeParam>(9);
  store.add_node();
  store.put("a", "1");
  store.put("b", "2");
  store.put("a", "updated");
  store.erase("b");
  std::map<std::string, std::string> seen;
  store.scan(0, HashSpace::kMaxIndex,
             [&](const std::string& k, const std::string& v) {
               seen.emplace(k, v);
             });
  const std::map<std::string, std::string> expected{{"a", "updated"}};
  EXPECT_EQ(seen, expected);
  // An inverted range is empty, not an error.
  store.scan(HashSpace::kMaxIndex, 0,
             [](const std::string&, const std::string&) { FAIL(); });
}

TYPED_TEST(StoreSuite, MovementAccountingMatchesOwnershipDiffOnJoin) {
  // The strongest property of the unified accounting: the keys the
  // relocation events charge for a join are exactly the keys whose
  // responsible node changed.
  auto store = make_store<TypeParam>(10);
  for (int n = 0; n < 4; ++n) store.add_node();
  constexpr int kKeys = 5000;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("m" + std::to_string(i));
    store.put(keys.back(), "v");
  }
  std::vector<placement::NodeId> owner_before;
  owner_before.reserve(keys.size());
  for (const auto& key : keys) owner_before.push_back(store.owner_of(key));

  const std::uint64_t across_before =
      store.stats().relocation.keys_moved_across_nodes;
  store.add_node();

  std::uint64_t changed = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (store.owner_of(keys[i]) != owner_before[i]) ++changed;
  }
  EXPECT_EQ(store.stats().relocation.keys_moved_across_nodes - across_before,
            changed);
  EXPECT_GT(changed, 0u);
}

TYPED_TEST(StoreSuite, FairShareMovementPerJoin) {
  // A join should move roughly K/N keys, not O(K).
  auto store = make_store<TypeParam>(11);
  store.add_node();
  constexpr std::uint64_t kKeys = 20000;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    store.put("f" + std::to_string(i), "v");
  }
  for (int i = 0; i < 15; ++i) store.add_node();
  const std::uint64_t before =
      store.stats().relocation.keys_moved_across_nodes;
  store.add_node();
  const std::uint64_t moved =
      store.stats().relocation.keys_moved_across_nodes - before;
  // Fair share at N=17 is ~K/17 ~ 1176; allow generous slack.
  EXPECT_LT(moved, kKeys / 4);
  EXPECT_GT(moved, kKeys / 60);
}

TYPED_TEST(StoreSuite, DeterministicPerSeed) {
  const auto run_once = [] {
    auto store = make_store<TypeParam>(12);
    for (int n = 0; n < 6; ++n) store.add_node();
    for (int i = 0; i < 800; ++i) store.put("s" + std::to_string(i), "v");
    return store.keys_per_node();
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- DHT-backend-specific coverage ----------------------------------

TEST(KvStore, IntraNodeVnodeHandoversAreNotCrossNodeTraffic) {
  KvStore store({cfg(8, 4, 21), 1});
  const auto n0 = store.add_node();
  for (int i = 0; i < 3000; ++i) store.put("m" + std::to_string(i), "x");
  EXPECT_EQ(store.stats().relocation.keys_moved_total, 0u);

  // A second vnode on the same node: keys move between vnodes but not
  // across nodes.
  store.backend().add_vnode(n0);
  const auto after_same = store.stats().relocation;
  EXPECT_GT(after_same.keys_moved_total, 0u);
  EXPECT_EQ(after_same.keys_moved_across_nodes, 0u);

  // A vnode on a new node: now cross-node movement happens.
  store.add_node();
  const auto after_cross = store.stats().relocation;
  EXPECT_GT(after_cross.keys_moved_across_nodes, 0u);
  EXPECT_LE(after_cross.keys_moved_across_nodes,
            after_cross.keys_moved_total);
}

TEST(KvStore, SplitsRebucketWithoutMoving) {
  KvStore store({cfg(4, 4, 22), 1});
  store.add_node();
  for (int i = 0; i < 1000; ++i) store.put("r" + std::to_string(i), "v");
  const auto before = store.stats().relocation;
  EXPECT_EQ(before.keys_rebucketed, 0u);
  // The second vnode forces one full split wave (V crosses 2^0).
  store.add_node();
  const auto after = store.stats().relocation;
  EXPECT_GT(after.keys_rebucketed, 0u);
}

TEST(KvStore, BalancerInvariantsHoldUnderStoreElasticity) {
  KvStore store({cfg(8, 4, 23), 2});
  for (int n = 0; n < 12; ++n) store.add_node();
  for (int i = 0; i < 1000; ++i) store.put("i" + std::to_string(i), "v");
  for (int n = 0; n < 4; ++n) store.add_node();
  dht::check_invariants(store.backend().dht());
  EXPECT_EQ(store.size(), 1000u);
}

TEST(KvStore, HashAlgorithmIsConfigurable) {
  KvStore fnv({cfg(8, 4, 24), 1}, hashing::Algorithm::kFnv1a64);
  fnv.add_node();
  fnv.put("key", "value");
  EXPECT_EQ(fnv.get("key"), "value");
}

TEST(KvStore, CapacityProportionalJoins) {
  KvStore store({cfg(16, 16, 25), 4});
  const auto small = store.add_node(1.0);
  const auto big = store.add_node(4.0);
  EXPECT_EQ(store.backend().vnodes_of(small), 4u);
  EXPECT_EQ(store.backend().vnodes_of(big), 16u);
  constexpr int kKeys = 30000;
  for (int i = 0; i < kKeys; ++i) store.put("h" + std::to_string(i), "v");
  const auto counts = store.keys_per_node();
  const double big_share =
      static_cast<double>(counts[big]) / static_cast<double>(kKeys);
  EXPECT_NEAR(big_share, 0.8, 0.1);
}

}  // namespace
}  // namespace cobalt::kv
