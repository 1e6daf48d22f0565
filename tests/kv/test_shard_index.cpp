// Property tests for the sharded store core (kv/shard_index.hpp +
// the rewritten kv::Store): a reference model implementing the seed's
// exact semantics - std::map<HashIndex, Bucket> with a per-bucket
// materialized replica vector, per-event count_range, full-scan
// repair at k > 1 - is driven in lockstep with the sharded store
// through randomized membership/workload sequences over all seven
// placement backends, and every observable surface must stay
// bit-identical: lookups, iteration, per-node counts, relocation and
// replication accounting. The refactor changes cost, not semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "kv/store.hpp"

namespace cobalt::kv {
namespace {

using placement::ReplicationSpec;
using placement::SpreadPolicy;

// --- the reference model: the seed store, verbatim semantics --------

template <placement::PlacementBackend Backend>
class ModelStore final : private placement::RelocationObserver {
 public:
  using Options = typename Backend::Options;

  ModelStore(Options options, std::size_t replication)
      : backend_(std::move(options)), replication_(replication) {
    backend_.set_observer(this);
  }
  ~ModelStore() override { backend_.set_observer(nullptr); }

  placement::NodeId add_node(double capacity = 1.0) {
    const placement::NodeId id = backend_.add_node(capacity);
    rereplicate(false);
    return id;
  }
  bool remove_node(placement::NodeId node) {
    const bool removed = backend_.remove_node(node);
    rereplicate(false);
    return removed;
  }
  std::size_t fail_nodes(std::span<const placement::NodeId> nodes) {
    std::size_t failed = 0;
    for (const placement::NodeId node : nodes) {
      if (backend_.node_count() < 2 || !backend_.is_live(node)) continue;
      if (backend_.remove_node(node)) ++failed;
    }
    rereplicate(true);
    return failed;
  }

  bool put(const std::string& key, std::string value) {
    const HashIndex h = hash_key(key);
    Bucket& bucket = buckets_[h];
    if (bucket.replicas.empty()) {
      bucket.replicas = backend_.replica_set(h, replica_target());
    }
    replication_stats_.replica_writes += bucket.replicas.size();
    const auto [it, inserted] =
        bucket.entries.insert_or_assign(key, std::move(value));
    (void)it;
    if (inserted) ++size_;
    return inserted;
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto bucket = buckets_.find(hash_key(key));
    if (bucket == buckets_.end()) return std::nullopt;
    const auto it = bucket->second.entries.find(key);
    if (it == bucket->second.entries.end()) return std::nullopt;
    return it->second;
  }

  bool erase(const std::string& key) {
    const auto bucket = buckets_.find(hash_key(key));
    if (bucket == buckets_.end()) return false;
    if (bucket->second.entries.erase(key) == 0) return false;
    if (bucket->second.entries.empty()) buckets_.erase(bucket);
    --size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] std::vector<placement::NodeId> replicas_of(
      const std::string& key) const {
    const auto bucket = buckets_.find(hash_key(key));
    if (bucket == buckets_.end() ||
        bucket->second.entries.find(key) == bucket->second.entries.end()) {
      return {};
    }
    return bucket->second.replicas;
  }

  [[nodiscard]] placement::NodeId read_node_of(const std::string& key) const {
    const auto bucket = buckets_.find(hash_key(key));
    if (bucket == buckets_.end() ||
        bucket->second.entries.find(key) == bucket->second.entries.end()) {
      return placement::kInvalidNode;
    }
    for (const placement::NodeId node : bucket->second.replicas) {
      if (backend_.is_live(node)) return node;
    }
    return placement::kInvalidNode;
  }

  [[nodiscard]] std::vector<std::size_t> keys_per_node() const {
    std::vector<std::size_t> counts(backend_.node_slot_count(), 0);
    for (const auto& [hash, bucket] : buckets_) {
      counts.at(backend_.owner_of(hash)) += bucket.entries.size();
    }
    return counts;
  }

  [[nodiscard]] std::vector<std::size_t> replica_copies_per_node() const {
    std::vector<std::size_t> counts(backend_.node_slot_count(), 0);
    for (const auto& [hash, bucket] : buckets_) {
      for (const placement::NodeId node : bucket.replicas) {
        counts.at(node) += bucket.entries.size();
      }
    }
    return counts;
  }

  [[nodiscard]] std::map<std::string, std::string> contents() const {
    std::map<std::string, std::string> all;
    for (const auto& [hash, bucket] : buckets_) {
      for (const auto& [key, value] : bucket.entries) all.emplace(key, value);
    }
    return all;
  }

  [[nodiscard]] std::size_t keys_in_range(HashIndex first,
                                          HashIndex last) const {
    return static_cast<std::size_t>(count_range(first, last));
  }

  [[nodiscard]] StatsSnapshot stats() const {
    return {relocation_stats_, replication_stats_};
  }
  [[nodiscard]] Backend& backend() { return backend_; }

 private:
  struct Bucket {
    std::unordered_map<std::string, std::string> entries;
    std::vector<placement::NodeId> replicas;
  };

  [[nodiscard]] HashIndex hash_key(const std::string& key) const {
    return hashing::hash_bytes(hashing::Algorithm::kXxh64, key.data(),
                               key.size());
  }

  [[nodiscard]] std::size_t replica_target() const {
    const std::size_t live = backend_.node_count();
    return replication_ < live ? replication_ : live;
  }

  void rereplicate(bool crash) {
    if (backend_.node_count() == 0) {
      pending_relocations_.clear();
      return;
    }
    ++replication_stats_.rereplication_passes;
    if (replication_ == 1) {
      for (const auto& [first, last] : pending_relocations_) {
        for (auto it = buckets_.lower_bound(first);
             it != buckets_.end() && it->first <= last; ++it) {
          repair_bucket(it->first, it->second, crash);
        }
      }
    } else {
      for (auto& [hash, bucket] : buckets_) {
        repair_bucket(hash, bucket, crash);
      }
    }
    pending_relocations_.clear();
  }

  void repair_bucket(HashIndex hash, Bucket& bucket, bool crash) {
    std::vector<placement::NodeId> desired =
        backend_.replica_set(hash, replica_target());
    if (desired == bucket.replicas) return;
    if (crash) {
      const bool survived = std::any_of(
          bucket.replicas.begin(), bucket.replicas.end(),
          [&](placement::NodeId node) { return backend_.is_live(node); });
      if (!survived) {
        replication_stats_.keys_lost += bucket.entries.size();
      }
    }
    std::uint64_t joiners = 0;
    for (const placement::NodeId node : desired) {
      if (std::find(bucket.replicas.begin(), bucket.replicas.end(), node) ==
          bucket.replicas.end()) {
        ++joiners;
      }
    }
    replication_stats_.keys_rereplicated += joiners * bucket.entries.size();
    bucket.replicas = std::move(desired);
  }

  [[nodiscard]] std::uint64_t count_range(HashIndex first,
                                          HashIndex last) const {
    std::uint64_t count = 0;
    for (auto it = buckets_.lower_bound(first);
         it != buckets_.end() && it->first <= last; ++it) {
      count += it->second.entries.size();
    }
    return count;
  }

  void on_relocate(HashIndex first, HashIndex last, placement::NodeId from,
                   placement::NodeId to) override {
    const std::uint64_t moved = count_range(first, last);
    relocation_stats_.keys_moved_total += moved;
    if (from != to) {
      relocation_stats_.keys_moved_across_nodes += moved;
      if (replication_ == 1) pending_relocations_.emplace_back(first, last);
    }
  }

  void on_rebucket(HashIndex first, HashIndex last) override {
    relocation_stats_.keys_rebucketed += count_range(first, last);
    if (replication_ == 1) pending_relocations_.emplace_back(first, last);
  }

  Backend backend_;
  std::size_t replication_;
  std::map<HashIndex, Bucket> buckets_;
  std::size_t size_ = 0;
  placement::MigrationStats relocation_stats_;
  ReplicationStats replication_stats_;
  std::vector<std::pair<HashIndex, HashIndex>> pending_relocations_;
};

// --- the lockstep driver --------------------------------------------

dht::Config cfg(std::uint64_t pmin, std::uint64_t vmin, std::uint64_t seed) {
  dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = seed;
  return c;
}

/// Per-backend option factory: both instances (model and store) are
/// built from the same options, so their membership decisions are
/// identical by determinism.
template <typename StoreT>
typename StoreT::Options make_options(std::uint64_t seed);

template <>
KvStore::Options make_options<KvStore>(std::uint64_t seed) {
  return {cfg(8, 8, seed), 1};
}
template <>
GlobalKvStore::Options make_options<GlobalKvStore>(std::uint64_t seed) {
  return {cfg(8, 1, seed), 1};
}
template <>
ChKvStore::Options make_options<ChKvStore>(std::uint64_t seed) {
  return {seed, 16};
}
template <>
HrwKvStore::Options make_options<HrwKvStore>(std::uint64_t seed) {
  return {seed, 10};
}
template <>
JumpKvStore::Options make_options<JumpKvStore>(std::uint64_t seed) {
  return {seed, 10};
}
template <>
MaglevKvStore::Options make_options<MaglevKvStore>(std::uint64_t seed) {
  return {seed, 10};
}
template <>
BoundedChKvStore::Options make_options<BoundedChKvStore>(std::uint64_t seed) {
  return {seed, 16, 0.25, 10};
}

template <typename StoreT>
struct BackendOf;
template <placement::PlacementBackend B>
struct BackendOf<Store<B>> {
  using type = B;
};

template <typename StoreT>
class ShardedStoreModelSuite : public ::testing::Test {};

using StoreTypes =
    ::testing::Types<KvStore, GlobalKvStore, ChKvStore, HrwKvStore,
                     JumpKvStore, MaglevKvStore, BoundedChKvStore>;
TYPED_TEST_SUITE(ShardedStoreModelSuite, StoreTypes);

/// Asserts every observable surface of `store` equals the model's.
template <typename StoreT, typename ModelT>
void expect_equal(const StoreT& store, const ModelT& model,
                  const std::vector<std::string>& keys, Xoshiro256& rng,
                  const std::string& where) {
  ASSERT_EQ(store.size(), model.size()) << where;
  ASSERT_EQ(store.keys_per_node(), model.keys_per_node()) << where;
  ASSERT_EQ(store.replica_copies_per_node(), model.replica_copies_per_node())
      << where;

  const auto sr = store.stats().relocation;
  const auto mr = model.stats().relocation;
  ASSERT_EQ(sr.keys_moved_total, mr.keys_moved_total) << where;
  ASSERT_EQ(sr.keys_moved_across_nodes, mr.keys_moved_across_nodes) << where;
  ASSERT_EQ(sr.keys_rebucketed, mr.keys_rebucketed) << where;

  const auto ss = store.stats().replication;
  const auto ms = model.stats().replication;
  ASSERT_EQ(ss.replica_writes, ms.replica_writes) << where;
  ASSERT_EQ(ss.keys_rereplicated, ms.keys_rereplicated) << where;
  ASSERT_EQ(ss.keys_lost, ms.keys_lost) << where;
  ASSERT_EQ(ss.rereplication_passes, ms.rereplication_passes) << where;

  // Sampled point surfaces (all keys would dominate the runtime).
  for (int probe = 0; probe < 40 && !keys.empty(); ++probe) {
    const std::string& key =
        keys[static_cast<std::size_t>(rng.next_below(keys.size()))];
    ASSERT_EQ(store.get(key), model.get(key)) << where << " key " << key;
    ASSERT_EQ(store.replicas_of(key), model.replicas_of(key))
        << where << " key " << key;
    ASSERT_EQ(store.read_node_of(key), model.read_node_of(key))
        << where << " key " << key;
  }
  for (int probe = 0; probe < 10; ++probe) {
    HashIndex a = rng.next();
    HashIndex b = rng.next();
    if (a > b) std::swap(a, b);
    ASSERT_EQ(store.keys_in_range(a, b), model.keys_in_range(a, b)) << where;
  }

  // Full iteration equality (as sets - in-bucket order is
  // unspecified on both sides).
  std::map<std::string, std::string> seen;
  store.for_each([&](const std::string& k, const std::string& v) {
    ASSERT_TRUE(seen.emplace(k, v).second) << where << " duplicate " << k;
  });
  ASSERT_EQ(seen, model.contents()) << where;
}

/// One seeded lockstep run of the store against the model at
/// replication `k`; `label` names the run in every failure.
template <typename StoreT>
void run_model_churn(std::uint64_t seed, std::size_t k,
                     const std::string& label) {
  using Backend = typename BackendOf<StoreT>::type;
  StoreT store(make_options<StoreT>(seed),
               ReplicationSpec{k, SpreadPolicy::kNone});
  ModelStore<Backend> model(make_options<StoreT>(seed), k);
  Xoshiro256 driver(derive_seed(seed, 0x5Du, k));
  Xoshiro256 probe_rng(derive_seed(seed, 0x5Eu, k));

  std::vector<std::string> keys;
  const auto fresh_key = [&] {
    keys.push_back("key-" + std::to_string(keys.size()));
    return keys.back();
  };
  const auto live_nodes = [&] {
    std::vector<placement::NodeId> live;
    for (placement::NodeId node = 0;
         node < store.backend().node_slot_count(); ++node) {
      if (store.backend().is_live(node)) live.push_back(node);
    }
    return live;
  };

  // Bootstrap: a few nodes, a key population.
  for (int n = 0; n < 4; ++n) {
    store.add_node();
    model.add_node();
  }
  for (int i = 0; i < 300; ++i) {
    const std::string key = fresh_key();
    store.put(key, "v0");
    model.put(key, "v0");
  }
  ASSERT_NO_FATAL_FAILURE(
      expect_equal(store, model, keys, probe_rng, label + " bootstrap"));

  for (int cycle = 0; cycle < 14; ++cycle) {
    const std::uint64_t op = driver.next_below(6);
    switch (op) {
      case 0: {  // join (jump hash is unweighted, so capacity stays 1)
        store.add_node();
        model.add_node();
        break;
      }
      case 1: {  // graceful drain of a random live node
        const auto live = live_nodes();
        if (live.size() < 3) break;
        const placement::NodeId victim =
            live[static_cast<std::size_t>(driver.next_below(live.size()))];
        ASSERT_EQ(store.remove_node(victim), model.remove_node(victim))
            << label;
        break;
      }
      case 2: {  // correlated crash of a small rack
        const auto live = live_nodes();
        if (live.size() < 4) break;
        std::vector<placement::NodeId> rack;
        for (int r = 0; r < 2; ++r) {
          rack.push_back(live[static_cast<std::size_t>(
              driver.next_below(live.size()))]);
        }
        ASSERT_EQ(store.fail_nodes(rack), model.fail_nodes(rack)) << label;
        break;
      }
      case 3: {  // write burst (new keys and overwrites)
        for (int i = 0; i < 40; ++i) {
          const bool fresh = keys.empty() || driver.next_below(3) != 0;
          const std::string key =
              fresh ? fresh_key()
                    : keys[static_cast<std::size_t>(
                          driver.next_below(keys.size()))];
          const std::string value = "v" + std::to_string(cycle);
          ASSERT_EQ(store.put(key, value), model.put(key, value))
              << label << " key " << key;
        }
        break;
      }
      case 4: {  // erase burst
        for (int i = 0; i < 12 && !keys.empty(); ++i) {
          const std::string& key = keys[static_cast<std::size_t>(
              driver.next_below(keys.size()))];
          ASSERT_EQ(store.erase(key), model.erase(key))
              << label << " key " << key;
        }
        break;
      }
      default: {  // read-only cycle: nothing mutates
        break;
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_equal(
        store, model, keys, probe_rng,
        label + " cycle " + std::to_string(cycle)));
  }
}

/// Seeds per replication factor of the model sweep.
constexpr std::uint64_t kModelSeeds = 16;

TYPED_TEST(ShardedStoreModelSuite, MatchesSeedSemanticsUnderRandomChurn) {
  const ::testing::TestInfo& test =
      *::testing::UnitTest::GetInstance()->current_test_info();
  const std::string repro = std::string("kv_test_shard_index --gtest_filter=") +
                            test.test_suite_name() + "." + test.name();
  for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                              std::size_t{3}}) {
    for (std::uint64_t n = 0; n < kModelSeeds; ++n) {
      const std::uint64_t seed = 700 + k + 4 * n;
      run_model_churn<TypeParam>(
          seed, k,
          "seed " + std::to_string(seed) + " k=" + std::to_string(k) +
              " (repro: " + repro + ")");
      if (this->HasFatalFailure()) return;
    }
  }
}

// --- the planned-repair cost claims ---------------------------------

TEST(ShardedStore, ReplicatedRepairDoesNotScanEveryShard) {
  // The acceptance claim of the shard refactor: at k > 1 a membership
  // event repairs only the shards its dirty ranges touch. CH joins
  // disturb a handful of arcs, so with many resident shards the visit
  // counter must stay well below the full scan the seed always paid.
  ChKvStore store({11, 16}, ReplicationSpec{2, SpreadPolicy::kNone});
  for (int n = 0; n < 24; ++n) store.add_node();
  for (int i = 0; i < 20000; ++i) {
    store.put("key-" + std::to_string(i), "v");
  }
  const auto before = store.stats().replication;
  const std::size_t shards = store.shard_index().shard_count();
  ASSERT_GT(shards, 8u);  // the claim is vacuous on a tiny index
  store.add_node();
  const auto after = store.stats().replication;
  const std::uint64_t visited =
      after.repair_shards_visited - before.repair_shards_visited;
  const std::uint64_t total =
      after.repair_shards_total - before.repair_shards_total;
  EXPECT_GT(visited, 0u);
  EXPECT_LT(visited, total / 2) << "planned repair degenerated to a scan";
}

TEST(ShardedStore, RefusedDrainRepairsNothing) {
  // An event that relocated nothing must visit zero shards even at
  // k > 1 (the seed scanned every bucket regardless). The local
  // approach's refused drains are exactly such events - find one.
  KvStore store({cfg(4, 4, 1), 1}, ReplicationSpec{2, SpreadPolicy::kNone});
  std::vector<placement::NodeId> nodes;
  for (int n = 0; n < 16; ++n) nodes.push_back(store.add_node());
  for (int i = 0; i < 3000; ++i) store.put("key-" + std::to_string(i), "v");

  bool found_clean_refusal = false;
  for (const placement::NodeId node : nodes) {
    if (store.backend().node_count() < 3) break;
    const auto stats_before = store.stats().replication;
    const auto moved_before = store.stats().relocation.keys_moved_total;
    if (store.remove_node(node)) continue;  // completed drains do repair
    const auto stats_after = store.stats().replication;
    if (store.stats().relocation.keys_moved_total != moved_before) {
      continue;  // an aborted decommission that still rebalanced
    }
    found_clean_refusal = true;
    EXPECT_EQ(stats_after.repair_shards_visited,
              stats_before.repair_shards_visited)
        << "a no-op event should repair no shards";
    EXPECT_EQ(stats_after.keys_rereplicated, stats_before.keys_rereplicated);
  }
  ASSERT_TRUE(found_clean_refusal)
      << "no refused drain without movement found - pick another seed";
}

TEST(ShardedStore, ShardCountStaysBoundedUnderChurn) {
  // Boundary splits (write path + repair regrouping) must not
  // fragment the index without bound: the post-pass coalescing keeps
  // the shard count proportional to the replica-set arc structure.
  ChKvStore store({13, 8}, ReplicationSpec{3, SpreadPolicy::kNone});
  for (int n = 0; n < 10; ++n) store.add_node();
  for (int i = 0; i < 5000; ++i) store.put("key-" + std::to_string(i), "v");
  Xoshiro256 rng(99);
  for (int cycle = 0; cycle < 30; ++cycle) {
    std::vector<placement::NodeId> live;
    for (placement::NodeId node = 0;
         node < store.backend().node_slot_count(); ++node) {
      if (store.backend().is_live(node)) live.push_back(node);
    }
    store.remove_node(
        live[static_cast<std::size_t>(rng.next_below(live.size()))]);
    store.add_node();
  }
  EXPECT_EQ(store.size(), 5000u);
  // ~10 nodes x 8-16 points each bounds the arc count; shards track
  // arcs (plus size splits), not keys or churn length.
  EXPECT_LT(store.shard_index().shard_count(), 600u);
}

// --- the flat shard layout -------------------------------------------

/// The most common materialized set among shard `s`'s entries, as a
/// count; and the count of the shard's own set.
std::pair<std::size_t, std::size_t> majority_and_own(
    const ShardIndex::Shard& s) {
  std::map<std::vector<placement::NodeId>, std::size_t> counts;
  for (std::size_t pos = 0; pos < s.size(); ++pos) {
    const ShardIndex::ReplicaSet set = s.replicas(pos);
    ++counts[{set.begin(), set.end()}];
  }
  std::size_t majority = 0;
  for (const auto& [set, count] : counts) majority = std::max(majority, count);
  const ShardIndex::ReplicaSet own = s.replicas();
  const auto it = counts.find({own.begin(), own.end()});
  return {majority, it == counts.end() ? 0 : it->second};
}

/// ShardIndex::insert at the end of `hash`'s run in shard `i`, the
/// position the store's write path hands it.
void insert_sorted(ShardIndex& index, std::size_t i, HashIndex hash,
                   std::string_view key, std::string_view value,
                   ShardIndex::ReplicaSet replicas) {
  index.insert(i, index.shard(i).upper_bound(hash, index.shard_range(i)),
               hash, key, value, replicas);
}

TEST(ShardIndexLayout, CollidingEntriesShareAHashInlineAndNeverSplitApart) {
  // Two keys at one hash sit side by side in the flat arrays: each
  // reads, overwrites and erases on its own, and range counts see both.
  ShardIndex index;
  const std::vector<placement::NodeId> set{1, 2, 3};
  constexpr HashIndex kHash = HashIndex{1} << 63;
  insert_sorted(index, 0, kHash, "alpha", "a", set);
  insert_sorted(index, 0, kHash, "beta", "b", set);
  const ShardIndex::Shard& s = index.shard(0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.distinct_hashes(), 1u);
  EXPECT_EQ(index.total_entries(), 2u);
  ASSERT_NE(s.find(kHash, "alpha", index.shard_range(0)), ShardIndex::npos);
  ASSERT_NE(s.find(kHash, "beta", index.shard_range(0)), ShardIndex::npos);
  EXPECT_EQ(s.find(kHash, "gamma", index.shard_range(0)), ShardIndex::npos);
  EXPECT_EQ(s.find(kHash + 1, "alpha", index.shard_range(0)), ShardIndex::npos);
  EXPECT_EQ(s.value(s.find(kHash, "alpha", index.shard_range(0))), "a");
  EXPECT_EQ(s.value(s.find(kHash, "beta", index.shard_range(0))), "b");
  EXPECT_EQ(index.count_range(kHash, kHash), 2u);
  EXPECT_EQ(index.count_range(0, kHash - 1), 0u);
  EXPECT_EQ(index.count_range(kHash + 1, HashSpace::kMaxIndex), 0u);

  // Same-length overwrites stay in place; a resized one leaves garbage.
  const std::size_t arena = s.arena_bytes();
  index.assign(0, s.find(kHash, "alpha", index.shard_range(0)), "A");
  EXPECT_EQ(s.arena_bytes(), arena);
  EXPECT_EQ(s.garbage_bytes(), 0u);
  index.assign(0, s.find(kHash, "beta", index.shard_range(0)), "a longer value");
  EXPECT_GT(s.garbage_bytes(), 0u);
  EXPECT_EQ(s.value(s.find(kHash, "alpha", index.shard_range(0))), "A");
  EXPECT_EQ(s.value(s.find(kHash, "beta", index.shard_range(0))), "a longer value");

  index.erase(0, s.find(kHash, "alpha", index.shard_range(0)));
  EXPECT_EQ(s.find(kHash, "alpha", index.shard_range(0)), ShardIndex::npos);
  ASSERT_NE(s.find(kHash, "beta", index.shard_range(0)), ShardIndex::npos);
  EXPECT_EQ(s.value(s.find(kHash, "beta", index.shard_range(0))), "a longer value");
  EXPECT_EQ(s.distinct_hashes(), 1u);
  EXPECT_EQ(index.count_range(kHash, kHash), 1u);
  index.erase(0, s.find(kHash, "beta", index.shard_range(0)));
  EXPECT_TRUE(index.shard(0).empty());
  EXPECT_EQ(index.total_entries(), 0u);

  // Fill until the shard splits, with a run of colliding keys at a
  // hash an entry-count median would cut through: the boundary is the
  // median *distinct* hash, and the run stays whole on one side.
  constexpr std::size_t kRun = 40;
  std::vector<HashIndex> distinct;
  for (std::size_t i = 0; i < ShardIndex::kSplitBuckets; ++i) {
    distinct.push_back((HashIndex{i} + 1) << 50);
  }
  const HashIndex run_hash = distinct[10];
  for (std::size_t i = 0; i < kRun; ++i) {
    insert_sorted(index, 0, run_hash, "run-" + std::to_string(i), "v", set);
  }
  for (const HashIndex hash : distinct) {
    if (hash == run_hash) continue;
    insert_sorted(index, index.shard_of(hash), hash,
                  "d-" + std::to_string(hash), "v", set);
  }
  ASSERT_EQ(index.shard_count(), 1u);
  EXPECT_EQ(index.shard(0).distinct_hashes(), ShardIndex::kSplitBuckets);
  const HashIndex extra = distinct.back() + 1;
  insert_sorted(index, 0, extra, "extra", "v", set);
  ASSERT_EQ(index.shard_count(), 2u);
  EXPECT_EQ(index.shard_first(1), distinct[ShardIndex::kSplitBuckets / 2]);
  EXPECT_NE(index.shard(1).find(extra, "extra", index.shard_range(1)), ShardIndex::npos);
  const std::size_t run_shard = index.shard_of(run_hash);
  const placement::HashRange run_range = index.shard_range(run_shard);
  EXPECT_EQ(index.shard(run_shard).upper_bound(run_hash, run_range) -
                index.shard(run_shard).lower_bound(run_hash, run_range),
            kRun);
  for (std::size_t i = 0; i < kRun; ++i) {
    EXPECT_NE(index.shard(run_shard).find(run_hash, "run-" + std::to_string(i),
                                          run_range),
              ShardIndex::npos);
  }
  EXPECT_EQ(index.count_range(run_hash, run_hash), kRun);
  EXPECT_EQ(index.total_entries(), kRun + ShardIndex::kSplitBuckets);
  // Every boundary is a hash value, so equal hashes cannot straddle it:
  // the last entry before a boundary always differs from the first
  // after it.
  for (std::size_t i = 0; i + 1 < index.shard_count(); ++i) {
    const ShardIndex::Shard& head = index.shard(i);
    const ShardIndex::Shard& tail = index.shard(i + 1);
    ASSERT_FALSE(head.empty());
    ASSERT_FALSE(tail.empty());
    EXPECT_LT(head.hash(head.size() - 1), tail.hash(0));
  }
}

TEST(ShardIndexLayout, AnEmptiedShardFoldsIntoItsNeighbour) {
  // Erasing a shard's last entry drops the shard: its range joins the
  // predecessor's, or for shard 0 the successor's, which then starts
  // at 0. The neighbour's entries stay put.
  ShardIndex index;
  const std::vector<placement::NodeId> set{1};
  const auto fill = [&](HashIndex from) {
    for (HashIndex h = from; index.shard_count() == 1; ++h) {
      insert_sorted(index, index.shard_of(h << 48), h << 48,
                    std::to_string(h), "v", set);
    }
  };
  const auto empty_shard = [&](std::size_t i) {
    while (index.shard_count() == 2) index.erase(i, 0);
  };
  fill(1);
  const std::size_t head = index.shard(0).size();
  empty_shard(1);
  ASSERT_EQ(index.shard_count(), 1u);
  EXPECT_EQ(index.shard(0).size(), head);
  EXPECT_EQ(index.total_entries(), head);
  fill(1000);
  const std::size_t tail = index.shard(1).size();
  empty_shard(0);
  ASSERT_EQ(index.shard_count(), 1u);
  EXPECT_EQ(index.shard_first(0), 0u);
  EXPECT_EQ(index.shard(0).size(), tail);
  EXPECT_EQ(index.count_range(0, HashSpace::kMaxIndex), tail);
}

TEST(ShardIndexLayout, ResizedOverwritesCompactTheArena) {
  // Garbage never outgrows the live bytes: a burst of resized
  // overwrites compacts as it goes, and every value survives.
  ShardIndex index;
  const std::vector<placement::NodeId> set{7};
  for (HashIndex h = 1; h <= 32; ++h) {
    insert_sorted(index, 0, h << 40, "key-" + std::to_string(h), "v", set);
  }
  for (int round = 0; round < 6; ++round) {
    const std::string value(static_cast<std::size_t>(round) * 9 + 2, 'x');
    for (HashIndex h = 1; h <= 32; ++h) {
      const ShardIndex::Shard& s = index.shard(0);
      index.assign(
          0, s.find(h << 40, "key-" + std::to_string(h), index.shard_range(0)),
          value);
      EXPECT_LE(s.garbage_bytes(), s.arena_bytes() - s.garbage_bytes());
    }
    for (HashIndex h = 1; h <= 32; ++h) {
      const ShardIndex::Shard& s = index.shard(0);
      EXPECT_EQ(s.value(s.find(h << 40, "key-" + std::to_string(h),
                               index.shard_range(0))),
                value);
    }
  }
}

TEST(ShardIndexLayout, OverridesTakeOneBytePaletteSlots) {
  // An entry whose set differs from the shard's is an override; a
  // repair that finds the shard uniform again adopts one set and the
  // palette shrinks back to it.
  ShardIndex index;
  const std::vector<placement::NodeId> a{1, 2, 3};
  const std::vector<placement::NodeId> b{4, 5, 6};
  insert_sorted(index, 0, 100, "k1", "v", a);
  insert_sorted(index, 0, 200, "k2", "v", b);
  insert_sorted(index, 0, 300, "k3", "v", a);
  ShardIndex::Shard& s = index.shard(0);
  EXPECT_TRUE(std::ranges::equal(s.replicas(), a));
  EXPECT_EQ(s.override_count(), 1u);
  EXPECT_TRUE(std::ranges::equal(s.replicas(s.find(200, "k2", index.shard_range(0))), b));
  s.set_replicas(0, s.size(), b);
  EXPECT_EQ(s.override_count(), 3u);
  s.adopt(b);
  EXPECT_EQ(s.override_count(), 0u);
  for (std::size_t pos = 0; pos < s.size(); ++pos) {
    EXPECT_TRUE(std::ranges::equal(s.replicas(pos), b));
  }
}

TEST(ShardedStore, SplitPiecesAnchorOnTheirMostCommonSet) {
  // A size split re-anchors each piece on the most common set among
  // its entries (the parent's first set must not ride along into the
  // tail), and no key's materialized set changes.
  KvStore store({cfg(32, 4, 5), 1}, ReplicationSpec{3, SpreadPolicy::kNone});
  for (int n = 0; n < 24; ++n) store.add_node();
  const ShardIndex& index = store.shard_index();
  std::unordered_map<std::string, std::vector<placement::NodeId>> placed;
  const auto check_piece = [&](std::size_t i) {
    const auto [majority, own] = majority_and_own(index.shard(i));
    EXPECT_EQ(own, majority) << "piece " << i << " is not anchored";
    store.scan(index.shard_first(i), index.shard_last(i),
               [&](const std::string& key, const std::string&) {
                 EXPECT_EQ(store.replicas_of(key), placed.at(key)) << key;
               });
  };
  std::size_t splits = 0;
  for (int i = 0; i < 6000; ++i) {
    const std::string key = "anchor-" + std::to_string(i);
    const HashIndex h = hashing::hash_bytes(hashing::Algorithm::kXxh64,
                                            key.data(), key.size());
    const std::size_t shards = index.shard_count();
    const std::size_t split = index.shard_of(h);
    store.put(key, "v");
    placed[key] = store.replicas_of(key);
    ASSERT_EQ(placed[key], store.backend().replica_set(h, 3));
    if (index.shard_count() == shards) continue;
    ASSERT_EQ(index.shard_count(), shards + 1);
    ++splits;
    check_piece(split);
    check_piece(split + 1);
  }
  EXPECT_GT(splits, 40u);
}

// --- the point path: radix directory and interpolation search -------

/// Every directory bucket names the shard holding its first index, and
/// shard_of answers the reference at every boundary, its neighbours,
/// both ends of R_h and `random` more hashes.
void expect_directory_exact(const ShardIndex& index, Xoshiro256& rng,
                            std::size_t random) {
  std::vector<HashIndex> firsts;
  for (std::size_t i = 0; i < index.shard_count(); ++i) {
    firsts.push_back(index.shard_first(i));
  }
  const auto reference = [&firsts](HashIndex h) {
    return static_cast<std::size_t>(
               std::upper_bound(firsts.begin(), firsts.end(), h) -
               firsts.begin()) -
           1;
  };
  const std::size_t buckets = index.directory_size();
  ASSERT_GE(buckets, index.shard_count());
  const auto shift = static_cast<unsigned>(
      HashSpace::kBits - std::countr_zero(buckets));
  for (std::size_t b = 0; b < buckets; ++b) {
    ASSERT_EQ(index.directory_entry(b), reference(HashIndex{b} << shift))
        << "bucket " << b << " of " << buckets;
  }
  std::vector<HashIndex> probes{0, HashSpace::kMaxIndex};
  for (const HashIndex first : firsts) {
    probes.insert(probes.end(), {first - 1, first, first + 1});
  }
  for (std::size_t n = 0; n < random; ++n) probes.push_back(rng.next());
  for (const HashIndex h : probes) {
    ASSERT_EQ(index.shard_of(h), reference(h)) << "hash " << h;
  }
}

TEST(ShardIndexDirectory, ShardOfMatchesAReferenceThroughDoublingsAndFolds) {
  // A seeded run of splits and folds: the shard count passes 2^8 .. 2^11,
  // so the directory doubles four times, and folds drop shard 0, the
  // last shard and random ones. Some boundaries sit on a bucket's first
  // index, where an off-by-one in the suffix shift would show.
  ShardIndex index;
  const std::vector<placement::NodeId> set{1, 2, 3};
  Xoshiro256 rng(2121);
  std::vector<std::size_t> sizes{index.directory_size()};
  std::size_t folds_of_first = 0;
  std::size_t folds_of_last = 0;
  for (std::size_t step = 0; index.shard_count() < 2100; ++step) {
    const std::size_t choice = rng.next_below(10);
    if (choice < 7 || index.shard_count() < 3) {
      const std::size_t i = rng.next_below(index.shard_count());
      const HashIndex first = index.shard_first(i);
      const HashIndex span = index.shard_last(i) - first;
      if (span == 0) continue;
      HashIndex boundary = first + 1 + rng.next_below(span);
      // A boundary on a 2^52 grid starts a bucket at every directory
      // size this run reaches.
      const HashIndex aligned = (boundary >> 52) << 52;
      if (rng.next_below(3) == 0 && aligned > first) boundary = aligned;
      index.split_shard(i, boundary);
    } else {
      const std::size_t i = choice == 7   ? 0
                            : choice == 8 ? index.shard_count() - 1
                                          : rng.next_below(index.shard_count());
      if (!index.shard(i).empty()) continue;
      folds_of_first += i == 0 ? 1 : 0;
      folds_of_last += i + 1 == index.shard_count() ? 1 : 0;
      // One entry in, one out: the emptied shard folds away.
      const HashIndex h = index.shard_first(i);
      insert_sorted(index, i, h, "fold", "v", set);
      index.erase(i, 0);
    }
    if (index.directory_size() != sizes.back()) {
      sizes.push_back(index.directory_size());
    }
    expect_directory_exact(index, rng, 16);
    if (testing::Test::HasFatalFailure()) {
      FAIL() << "step " << step;
    }
  }
  EXPECT_EQ(sizes, (std::vector<std::size_t>{256, 512, 1024, 2048, 4096}));
  EXPECT_GT(folds_of_first, 10u);
  EXPECT_GT(folds_of_last, 10u);
}

/// Shard `i`'s interpolation search against std::lower_bound and
/// std::upper_bound at every resident hash, its neighbours, the
/// shard's range ends and their neighbours, both ends of R_h and
/// `extra`; and find() locates every resident key.
void expect_search_exact(const ShardIndex& index, std::size_t i,
                         const std::vector<HashIndex>& extra = {}) {
  const ShardIndex::Shard& s = index.shard(i);
  const placement::HashRange range = index.shard_range(i);
  std::vector<HashIndex> hashes;
  for (std::size_t pos = 0; pos < s.size(); ++pos) hashes.push_back(s.hash(pos));
  ASSERT_TRUE(std::ranges::is_sorted(hashes));
  std::vector<HashIndex> probes{0, HashSpace::kMaxIndex, range.first - 1,
                                range.first, range.first + 1, range.last - 1,
                                range.last, range.last + 1};
  for (const HashIndex h : hashes) probes.insert(probes.end(), {h - 1, h, h + 1});
  probes.insert(probes.end(), extra.begin(), extra.end());
  for (const HashIndex h : probes) {
    const auto lower = static_cast<std::size_t>(
        std::ranges::lower_bound(hashes, h) - hashes.begin());
    const auto upper = static_cast<std::size_t>(
        std::ranges::upper_bound(hashes, h) - hashes.begin());
    ASSERT_EQ(s.lower_bound(h, range), lower) << "hash " << h;
    ASSERT_EQ(s.upper_bound(h, range), upper) << "hash " << h;
  }
  for (std::size_t pos = 0; pos < s.size(); ++pos) {
    ASSERT_EQ(s.find(s.hash(pos), s.key(pos), range), pos);
  }
}

TEST(ShardIndexSearch, InterpolationMatchesBinarySearchOnAdversarialLayouts) {
  const std::vector<placement::NodeId> set{1, 2, 3};
  Xoshiro256 rng(2122);
  const auto fill = [&set](ShardIndex& index, std::size_t i,
                           const std::vector<HashIndex>& hashes) {
    for (std::size_t n = 0; n < hashes.size(); ++n) {
      insert_sorted(index, i, hashes[n], "k" + std::to_string(n), "v", set);
    }
  };
  {
    // Clustered at the top of a full-range shard: every guess lands far
    // below the answer.
    ShardIndex index;
    std::vector<HashIndex> hashes;
    for (std::size_t n = 0; n < 100; ++n) {
      hashes.push_back(HashSpace::kMaxIndex - rng.next_below(5000));
    }
    fill(index, 0, hashes);
    ASSERT_EQ(index.shard_count(), 1u);
    expect_search_exact(index, 0);
  }
  {
    // ... and at the bottom, with a 40-key collision run among them.
    ShardIndex index;
    std::vector<HashIndex> hashes(40, 2500);
    for (std::size_t n = 0; n < 60; ++n) hashes.push_back(rng.next_below(5000));
    fill(index, 0, hashes);
    expect_search_exact(index, 0, {2499, 2500, 2501});
    EXPECT_EQ(index.shard(0).upper_bound(2500, index.shard_range(0)) -
                  index.shard(0).lower_bound(2500, index.shard_range(0)),
              40u + static_cast<std::size_t>(
                        std::ranges::count(hashes.begin() + 40, hashes.end(),
                                           HashIndex{2500})));
  }
  {
    // A 40-key run in the middle of a uniform shard.
    ShardIndex index;
    std::vector<HashIndex> hashes;
    for (std::size_t n = 0; n < 60; ++n) hashes.push_back(rng.next());
    hashes.insert(hashes.end(), 40, HashIndex{1} << 63);
    fill(index, 0, hashes);
    expect_search_exact(index, 0);
  }
  {
    // A fold doubles a shard's range: shard 0 empties, so shard 1's
    // entries (all in the upper half) now scale against all of R_h.
    ShardIndex index;
    constexpr HashIndex kMid = HashIndex{1} << 63;
    index.split_shard(0, kMid);
    insert_sorted(index, 0, 7, "low", "v", set);
    std::vector<HashIndex> hashes;
    for (std::size_t n = 0; n < 120; ++n) {
      hashes.push_back(kMid + rng.next_below(kMid));
    }
    fill(index, 1, hashes);
    index.erase(0, 0);
    ASSERT_EQ(index.shard_count(), 1u);
    ASSERT_EQ(index.shard_range(0), (placement::HashRange{0, HashSpace::kMaxIndex}));
    expect_search_exact(index, 0, {kMid - 1, kMid});
  }
  for (std::size_t n = 0; n < 8; ++n) {
    // Shards of 0-7 entries, as splits, folds and a fresh index leave
    // them: the search has no separate small-shard path.
    ShardIndex index;
    std::vector<HashIndex> hashes;
    for (std::size_t m = 0; m < n; ++m) hashes.push_back(rng.next());
    fill(index, 0, hashes);
    expect_search_exact(index, 0);
  }
  {
    // Entries on the first and last index of an inner shard's range,
    // with the range's outside neighbours probed too.
    ShardIndex index;
    constexpr HashIndex kFirst = HashIndex{3} << 60;
    constexpr HashIndex kEnd = HashIndex{5} << 60;
    index.split_shard(0, kFirst);
    index.split_shard(1, kEnd);
    std::vector<HashIndex> hashes{kFirst, kFirst, kEnd - 1, kEnd - 1};
    for (std::size_t n = 0; n < 50; ++n) {
      hashes.push_back(kFirst + rng.next_below(kEnd - kFirst));
    }
    fill(index, 1, hashes);
    ASSERT_EQ(index.shard_range(1), (placement::HashRange{kFirst, kEnd - 1}));
    expect_search_exact(index, 1);
  }
}

}  // namespace
}  // namespace cobalt::kv
