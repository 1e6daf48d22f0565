// Golden digests of what the store holds and how it holds it.
//
// The lockstep model suite (test_shard_index.cpp) checks that every
// key's materialized set is right; it does not see *how* the store
// holds them - which shards the tiling has, which set each shard
// adopted, which entries ride on overrides - nor the exact counters
// and repair batches a pass reports. This test pins all of it: a
// seeded script of joins, drains, a two-node crash batch and a
// topology re-attach runs on a loaded store of every scheme at k = 1,
// k = 3 and k = 3 under rack spread, and after every event two FNV-1a
// digests per (scheme, configuration) fold what the event left:
//   * the *held* half: every key's hash and materialized set, in hash
//     order, plus the keys_moved_total, keys_rereplicated and
//     keys_lost counters - what moved and where the copies live;
//   * the *structure* half: the tiling (shard count; each shard's
//     first hash, size, override count and own set; every override
//     entry's set), the remaining ReplicationStats counters (among
//     them repair_shards_visited and replica_walks) and the event's
//     repair batches - what the repair cost and how the store lays
//     the sets out.
//
// The script also has to reach the two structural cases of a pass: a
// shard that two emitted repair batches meet (the last shard of one
// plan range and the first of the next), and a shard whose arcs are
// wide enough to split it (the shard count rises across an event).
//
// A held mismatch means placement or the repair pass changed what the
// store holds or what moved. A structure mismatch with the held half
// unchanged means the same sets are reached through a different plan
// or laid out differently: a tighter dirty report, for one, narrows
// the repair batches and the shards a pass visits and splits. When
// such a change is intended, re-record the structure half (or both
// halves, when placement itself changed) from the failure messages
// and say why in the change's notes.

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

/// The two digests of one configuration (see the header).
struct Halves {
  std::uint64_t held = 0;
  std::uint64_t structure = 0;
};

/// What one configuration's script left behind.
struct Outcome {
  Halves digests;
  bool shared_shard = false;  // a pre-event shard met two repair batches
  bool split = false;         // the shard count rose across an event
};

/// Folds what the store holds into `digest`: every key's hash and
/// materialized set in hash order, and the moved, re-replicated and
/// lost counters.
template <typename StoreT>
void fold_held(const StoreT& store, Digest& digest) {
  for (const ShardIndex::Shard& s : store.shard_index().shards()) {
    for (std::size_t pos = 0; pos < s.size(); ++pos) {
      digest.add(s.hash(pos));
      const ShardIndex::ReplicaSet set = s.replicas(pos);
      digest.add(set.size());
      for (const NodeId node : set) digest.add(node);
    }
  }
  const StatsSnapshot stats = store.stats();
  digest.add(stats.relocation.keys_moved_total);
  digest.add(stats.replication.keys_rereplicated);
  digest.add(stats.replication.keys_lost);
}

/// Folds how the store holds it into `digest`: the tiling, each
/// shard's own set and override entries, and the replication counters
/// the held half leaves out.
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
       {stats.replica_writes, stats.keys_rereplicated_cross_rack,
        stats.keys_rereplicated_cross_zone, stats.rereplication_passes,
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
  Digest held;
  Digest structure;
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
    fold_held(store, held);
    fold_structure(store, structure);
  };

  event([] {});  // the loaded store before any event
  for (int n = 0; n < 4; ++n) event([&] { held.add(store.add_node()); });
  for (int n = 0; n < 2; ++n) {
    event([&] { held.add(store.remove_node(live_node()) ? 1 : 0); });
  }
  event([&] {
    const NodeId first = live_node();
    NodeId second = live_node();
    while (second == first) second = live_node();
    const std::array<NodeId, 2> crashed{first, second};
    held.add(store.fail_nodes(crashed));
  });
  event([&] { store.set_topology(&paired); });
  for (int n = 0; n < 2; ++n) event([&] { held.add(store.add_node()); });
  event([&] { held.add(store.remove_node(live_node()) ? 1 : 0); });

  store.set_event_sink(nullptr);
  structure.add(recorder.digest.value());
  outcome.digests = {held.value(), structure.value()};
  return outcome;
}

constexpr std::array<ReplicationSpec, 3> kSpecs{{
    {1, SpreadPolicy::kNone},
    {3, SpreadPolicy::kNone},
    {3, SpreadPolicy::kRack},
}};

/// Digest halves for kSpecs, {held, structure} per configuration. The
/// structure halves of the six successor schemes' k=3 rack rows were
/// re-recorded when the spread dirty report began counting failure
/// domains instead of owners: the narrower report visits fewer shards
/// and emits narrower batches, while every held half stayed put.
std::array<Halves, 3> golden(std::string_view scheme) {
  struct Entry {
    std::string_view scheme;
    std::array<Halves, 3> digests;
  };
  static constexpr Entry kGolden[] = {
      {"local",
       {{{0x6b04e0c4acf6d15aull, 0x15ac75f79b65ea41ull},
         {0xae9c3310719f794cull, 0x57f1b3509a375eb5ull},
         {0x70179ea40b98aef9ull, 0x8639f023c3af5f70ull}}}},
      {"global",
       {{{0xc104670bf1d747eull, 0x56c9268cb27cec36ull},
         {0xf05b41e3b5c8c7c6ull, 0x76f6feb1ce468887ull},
         {0xe65a1794c0cad3daull, 0xf6892c897d94323full}}}},
      {"ch",
       {{{0xd077696c74ef91abull, 0x46b9738d0d0bcda0ull},
         {0x59e450170df8c7dcull, 0x40f9bc39d8f902beull},
         {0xa664728f550e96abull, 0xeaf234e3a6749addull}}}},
      {"hrw",
       {{{0xacf2f3238626fb2dull, 0xcad60aebdd3ad178ull},
         {0x789069fb92cf3d3bull, 0x3fa0e140faacec65ull},
         {0xb27e057c878cfbd2ull, 0x3b8549a4e26a5ebfull}}}},
      {"jump",
       {{{0xbea35eef21b63082ull, 0x13e1c7bf410ae346ull},
         {0x6e2ac296243320e1ull, 0xf226ea635130d26dull},
         {0xaf89a071db8da82full, 0xf3c9efe7e4655edfull}}}},
      {"maglev",
       {{{0xcdb6f8f484f99ddeull, 0xd2de81643ff13983ull},
         {0xf83ee7b460f609bdull, 0x89ae84f036641a88ull},
         {0x3d7c333e30be7c94ull, 0xa9c83921167a0f6bull}}}},
      {"bounded-ch",
       {{{0xa4e8e9a6dcd6ffa8ull, 0x6259087dcc70aabeull},
         {0xe341237e211de27ull, 0x87fd95f792f2d49cull},
         {0xfcf06cca163016acull, 0xdd81ade51a569d34ull}}}},
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
    const char* rack = kSpecs[c].spread == SpreadPolicy::kRack ? " rack" : "";
    EXPECT_EQ(outcome.digests.held, expected[c].held)
        << scheme << " k=" << kSpecs[c].k << rack << ": held digest 0x"
        << std::hex << outcome.digests.held;
    EXPECT_EQ(outcome.digests.structure, expected[c].structure)
        << scheme << " k=" << kSpecs[c].k << rack << ": structure digest 0x"
        << std::hex << outcome.digests.structure;
    shared_shard = shared_shard || outcome.shared_shard;
    split = split || outcome.split;
  }
  EXPECT_TRUE(shared_shard) << scheme << ": no shard met two repair batches";
  EXPECT_TRUE(split) << scheme << ": no event split a shard";
}

}  // namespace
}  // namespace cobalt::kv
