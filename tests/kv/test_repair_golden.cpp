// Golden digests of the store's repair structure.
//
// The lockstep model suite (test_shard_index.cpp) checks that every
// key's materialized set is right; it does not see *how* the store
// holds them - which shards the tiling has, which set each shard
// adopted, which entries ride on overrides - nor the exact counters
// and repair batches a pass reports. This test pins all of it: a
// seeded script of joins, drains, a two-node crash batch and a
// topology re-attach runs on a loaded store of every scheme at k = 1,
// k = 3 and k = 3 under rack spread, and after every event the tiling
// (shard count; each shard's first hash, size, override count and own
// set; every override entry's set), the ReplicationStats counters and
// the event's repair batches are folded into one FNV-1a digest per
// (scheme, configuration).
//
// The script also has to reach the two structural cases of a pass: a
// shard that two emitted repair batches meet (the last shard of one
// plan range and the first of the next), and a shard whose arcs are
// wide enough to split it (the shard count rises across an event).
//
// A digest mismatch means placement or the repair pass changed what
// the store holds. When the change is intended, re-record the table
// from the failure messages and say why in the change's notes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "kv/store.hpp"

namespace cobalt::kv {
namespace {

using placement::HashRange;
using placement::NodeId;
using placement::ReplicationSpec;
using placement::SpreadPolicy;

/// FNV-1a over the little-endian bytes of 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

dht::Config cfg(std::uint64_t pmin, std::uint64_t vmin, std::uint64_t seed) {
  dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = seed;
  return c;
}

/// Per-scheme options. The local approach enrolls 4 vnodes per node, so
/// one event dirties several ranges; the grid schemes get 2^8 cells, so
/// a cell holds about 20 of the script's keys and arcs can split shards.
template <typename StoreT>
typename StoreT::Options make_options(std::uint64_t seed);

template <>
KvStore::Options make_options<KvStore>(std::uint64_t seed) {
  return {cfg(8, 8, seed), 4};
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
  return {seed, 8};
}
template <>
JumpKvStore::Options make_options<JumpKvStore>(std::uint64_t seed) {
  return {seed, 8};
}
template <>
MaglevKvStore::Options make_options<MaglevKvStore>(std::uint64_t seed) {
  return {seed, 8};
}
template <>
BoundedChKvStore::Options make_options<BoundedChKvStore>(std::uint64_t seed) {
  return {seed, 16, 0.25, 8};
}

/// Folds every repair batch into its own digest and keeps the plan
/// ranges of the batches since the script last cleared them.
class BatchRecorder final : public StoreEventSink {
 public:
  void on_repair_batch(HashIndex first, HashIndex last, std::uint64_t copies,
                       std::uint64_t lost, std::size_t replicas) override {
    ranges.push_back({first, last});
    digest.add(first);
    digest.add(last);
    digest.add(copies);
    digest.add(lost);
    digest.add(replicas);
  }

  std::vector<HashRange> ranges;
  Digest digest;
};

/// What one configuration's script left behind.
struct Outcome {
  std::uint64_t digest = 0;
  bool shared_shard = false;  // a pre-event shard met two repair batches
  bool split = false;         // the shard count rose across an event
};

/// Folds what the store holds into `digest`: the tiling, each shard's
/// own set and override entries, and the replication counters.
template <typename StoreT>
void fold_structure(const StoreT& store, Digest& digest) {
  const ShardIndex& index = store.shard_index();
  digest.add(index.shard_count());
  for (std::size_t i = 0; i < index.shard_count(); ++i) {
    const ShardIndex::Shard& s = index.shard(i);
    digest.add(index.shard_first(i));
    digest.add(s.size());
    digest.add(s.override_count());
    const ShardIndex::ReplicaSet own = s.replicas();
    digest.add(own.size());
    for (const NodeId node : own) digest.add(node);
    if (s.override_count() == 0) continue;
    for (std::size_t pos = 0; pos < s.size(); ++pos) {
      const ShardIndex::ReplicaSet set = s.replicas(pos);
      if (std::ranges::equal(set, own)) continue;
      digest.add(pos);
      digest.add(set.size());
      for (const NodeId node : set) digest.add(node);
    }
  }
  const ReplicationStats stats = store.stats().replication;
  for (const std::uint64_t counter :
       {stats.replica_writes, stats.keys_rereplicated,
        stats.keys_rereplicated_cross_rack, stats.keys_rereplicated_cross_zone,
        stats.keys_lost, stats.rereplication_passes,
        stats.repair_shards_visited, stats.repair_shards_total,
        stats.replica_walks}) {
    digest.add(counter);
  }
}

/// Runs the script on a store of `StoreT` under `spec`.
template <typename StoreT>
Outcome run_script(ReplicationSpec spec) {
  // Racks striped by id, then regrouped in pairs for the re-attach;
  // every id the script can reach is mapped up front.
  cluster::Topology striped;
  cluster::Topology paired;
  for (NodeId node = 0; node < 64; ++node) {
    striped.assign(node, node % 4);
    paired.assign(node, (node / 2) % 4);
  }
  StoreT store(make_options<StoreT>(2411), spec);
  BatchRecorder recorder;
  store.set_event_sink(&recorder);
  store.set_topology(&striped);
  for (int n = 0; n < 8; ++n) store.add_node();
  for (int i = 0; i < 5000; ++i) store.put("key-" + std::to_string(i), "v");

  Outcome outcome;
  Digest digest;
  Xoshiro256 rng(2412);
  const auto live_node = [&] {
    std::vector<NodeId> live;
    for (NodeId node = 0; node < store.backend().node_slot_count(); ++node) {
      if (store.backend().is_live(node)) live.push_back(node);
    }
    return live[static_cast<std::size_t>(rng.next_below(live.size()))];
  };
  // Runs one event and folds what it left; notes the structural cases
  // against the tiling from before the event.
  const auto event = [&](auto&& change) {
    const ShardIndex& index = store.shard_index();
    std::vector<HashRange> tiling;
    for (std::size_t i = 0; i < index.shard_count(); ++i) {
      tiling.push_back(index.shard_range(i));
    }
    recorder.ranges.clear();
    change();
    for (const HashRange& shard : tiling) {
      std::size_t met = 0;
      for (const HashRange& batch : recorder.ranges) {
        if (batch.first <= shard.last && shard.first <= batch.last) ++met;
      }
      if (met >= 2) outcome.shared_shard = true;
    }
    if (index.shard_count() > tiling.size()) outcome.split = true;
    fold_structure(store, digest);
  };

  event([] {});  // the loaded store before any event
  for (int n = 0; n < 4; ++n) event([&] { digest.add(store.add_node()); });
  for (int n = 0; n < 2; ++n) {
    event([&] { digest.add(store.remove_node(live_node()) ? 1 : 0); });
  }
  event([&] {
    const NodeId first = live_node();
    NodeId second = live_node();
    while (second == first) second = live_node();
    const std::array<NodeId, 2> crashed{first, second};
    digest.add(store.fail_nodes(crashed));
  });
  event([&] { store.set_topology(&paired); });
  for (int n = 0; n < 2; ++n) event([&] { digest.add(store.add_node()); });
  event([&] { digest.add(store.remove_node(live_node()) ? 1 : 0); });

  store.set_event_sink(nullptr);
  digest.add(recorder.digest.value());
  outcome.digest = digest.value();
  return outcome;
}

constexpr std::array<ReplicationSpec, 3> kSpecs{{
    {1, SpreadPolicy::kNone},
    {3, SpreadPolicy::kNone},
    {3, SpreadPolicy::kRack},
}};

/// Digests for kSpecs, recorded before the repair pass became one walk
/// per shard with inline splits.
std::array<std::uint64_t, 3> golden(std::string_view scheme) {
  struct Entry {
    std::string_view scheme;
    std::array<std::uint64_t, 3> digests;
  };
  static constexpr Entry kGolden[] = {
      {"local",
       {0x736403bb5a116dc1ull, 0x6d2413f94917d25dull,
        0xbbf57ee9a2bd2afbull}},
      {"global",
       {0x381fdbc7261ccd39ull, 0x800ebfba9818c206ull,
        0x8c930b90988cf229ull}},
      {"ch",
       {0x37b88cf7fe7a00eaull, 0x6a26d7eb1a78d684ull,
        0x9a4e7090b7063853ull}},
      {"hrw",
       {0xc78d9c9f089fcf78ull, 0xecf9e0d86a55935bull,
        0xfcb828d0d3fa4536ull}},
      {"jump",
       {0xc9d46781195e7af5ull, 0xc7deea3fe4d47dc7ull,
        0x4c9cd3dce6df6f1ull}},
      {"maglev",
       {0x50c59834711e83ull, 0x492e19e515311195ull,
        0x970d1622a4fbd905ull}},
      {"bounded-ch",
       {0xa8bbf8cfa9475ddull, 0xc983dbd14ab8e2ccull,
        0x8dc6fd877336ce63ull}},
  };
  for (const Entry& entry : kGolden) {
    if (entry.scheme == scheme) return entry.digests;
  }
  ADD_FAILURE() << "no golden digests for scheme " << scheme;
  return {};
}

template <typename StoreT>
class RepairGoldenSuite : public ::testing::Test {};

using StoreTypes =
    ::testing::Types<KvStore, GlobalKvStore, ChKvStore, HrwKvStore,
                     JumpKvStore, MaglevKvStore, BoundedChKvStore>;
TYPED_TEST_SUITE(RepairGoldenSuite, StoreTypes);

TYPED_TEST(RepairGoldenSuite, StructureMatchesTheRecordedDigests) {
  const std::string_view scheme = TypeParam::BackendType::scheme_name();
  const auto expected = golden(scheme);
  bool shared_shard = false;
  bool split = false;
  for (std::size_t c = 0; c < kSpecs.size(); ++c) {
    const Outcome outcome = run_script<TypeParam>(kSpecs[c]);
    EXPECT_EQ(outcome.digest, expected[c])
        << scheme << " k=" << kSpecs[c].k
        << (kSpecs[c].spread == SpreadPolicy::kRack ? " rack" : "")
        << ": digest 0x" << std::hex << outcome.digest;
    shared_shard = shared_shard || outcome.shared_shard;
    split = split || outcome.split;
  }
  EXPECT_TRUE(shared_shard) << scheme << ": no shard met two repair batches";
  EXPECT_TRUE(split) << scheme << ": no event split a shard";
}

}  // namespace
}  // namespace cobalt::kv
