// Tests for the store's concurrent mode (set_thread_pool): one typed
// suite drives every placement backend through
//   * a scripted churn run on a pooled store vs a serial reference,
//     asserting bit-identical results - sizes, tiling, both stats
//     channels and the full counted event-sink stream (the
//     deterministic-merge guarantee of the shard-parallel passes) -
//     at raw k = 1 and k = 3 and at k = 3 rack spread with a
//     whole-rack crash;
//   * exact accounting under genuinely concurrent writers; and
//   * a contended get/put/scan/churn mix - the ThreadSanitizer
//     workhorse (the tsan CI job runs this binary across all seven
//     backends; see -DCOBALT_TSAN=ON).
// Iteration counts stay modest: under TSan each of the seven backends
// runs the full mix, and the value is in the interleavings, not the
// volume.

#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/topology.hpp"
#include "common/thread_pool.hpp"

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
StoreT make_store(std::uint64_t seed, std::size_t replication,
                  SpreadPolicy spread = SpreadPolicy::kNone);

template <>
KvStore make_store<KvStore>(std::uint64_t seed, std::size_t replication,
                            SpreadPolicy spread) {
  return KvStore({cfg(8, 8, seed), 1}, ReplicationSpec{replication, spread});
}

template <>
GlobalKvStore make_store<GlobalKvStore>(std::uint64_t seed,
                                        std::size_t replication,
                                        SpreadPolicy spread) {
  return GlobalKvStore({cfg(8, 1, seed), 1},
                       ReplicationSpec{replication, spread});
}

template <>
ChKvStore make_store<ChKvStore>(std::uint64_t seed, std::size_t replication,
                                SpreadPolicy spread) {
  return ChKvStore({seed, 16}, ReplicationSpec{replication, spread});
}

template <>
HrwKvStore make_store<HrwKvStore>(std::uint64_t seed, std::size_t replication,
                                  SpreadPolicy spread) {
  return HrwKvStore({seed, 12}, ReplicationSpec{replication, spread});
}

template <>
JumpKvStore make_store<JumpKvStore>(std::uint64_t seed, std::size_t replication,
                                    SpreadPolicy spread) {
  return JumpKvStore({seed, 12}, ReplicationSpec{replication, spread});
}

template <>
MaglevKvStore make_store<MaglevKvStore>(std::uint64_t seed,
                                        std::size_t replication,
                                        SpreadPolicy spread) {
  return MaglevKvStore({seed, 12}, ReplicationSpec{replication, spread});
}

template <>
BoundedChKvStore make_store<BoundedChKvStore>(std::uint64_t seed,
                                              std::size_t replication,
                                              SpreadPolicy spread) {
  return BoundedChKvStore({seed, 16, 0.25, 12},
                          ReplicationSpec{replication, spread});
}

template <typename StoreT>
class StoreConcurrencySuite : public ::testing::Test {};

using StoreTypes =
    ::testing::Types<KvStore, GlobalKvStore, ChKvStore, HrwKvStore,
                     JumpKvStore, MaglevKvStore, BoundedChKvStore>;
TYPED_TEST_SUITE(StoreConcurrencySuite, StoreTypes);

/// Records every sink callback as one formatted line, so two runs can
/// be compared as whole event streams.
class RecordingSink final : public StoreEventSink {
 public:
  void on_membership_begin(MembershipEventKind kind) override {
    std::ostringstream line;
    line << "begin " << static_cast<int>(kind);
    log_.push_back(line.str());
  }
  void on_relocation_batch(HashIndex first, HashIndex last,
                           placement::NodeId from, placement::NodeId to,
                           std::uint64_t keys, bool rebucket) override {
    std::ostringstream line;
    line << "reloc " << first << ' ' << last << ' ' << from << ' ' << to
         << ' ' << keys << ' ' << rebucket;
    log_.push_back(line.str());
  }
  void on_repair_batch(HashIndex first, HashIndex last, std::uint64_t copies,
                       std::uint64_t lost, std::size_t replicas) override {
    std::ostringstream line;
    line << "repair " << first << ' ' << last << ' ' << copies << ' ' << lost
         << ' ' << replicas;
    log_.push_back(line.str());
  }
  void on_membership_end() override { log_.push_back("end"); }

  [[nodiscard]] const std::vector<std::string>& log() const { return log_; }

 private:
  std::vector<std::string> log_;
};

/// Drives one store through the scripted churn used by the determinism
/// test: joins, bulk writes, a drain, a correlated crash, erases and a
/// final join - every heavy pass (planned repair, relocation flush,
/// full-scan fallback via the target change at small cluster sizes)
/// fires at least once.
template <typename StoreT>
void run_script(StoreT& store) {
  for (int n = 0; n < 6; ++n) store.add_node();
  for (int i = 0; i < 400; ++i) {
    store.put("key" + std::to_string(i), "v" + std::to_string(i));
  }
  store.add_node();
  store.remove_node(2);
  for (int i = 400; i < 600; ++i) {
    store.put("key" + std::to_string(i), "v" + std::to_string(i));
  }
  const std::vector<placement::NodeId> dead{1, 4};
  store.fail_nodes(dead);
  for (int i = 0; i < 100; ++i) {
    store.erase("key" + std::to_string(i * 5));
  }
  store.add_node();
  for (int i = 600; i < 700; ++i) {
    store.put("key" + std::to_string(i), "v" + std::to_string(i));
  }
}

/// The rack-spread variant of run_script: twelve nodes in four racks of
/// three, a join outside the topology (a synthetic singleton rack), a
/// drain, and a whole-rack crash (rack 1) that leaves the spread walk
/// fewer fresh racks to find.
template <typename StoreT>
void run_rack_script(StoreT& store) {
  for (int n = 0; n < 12; ++n) store.add_node();
  for (int i = 0; i < 400; ++i) {
    store.put("key" + std::to_string(i), "v" + std::to_string(i));
  }
  store.add_node();
  store.remove_node(2);
  for (int i = 400; i < 600; ++i) {
    store.put("key" + std::to_string(i), "v" + std::to_string(i));
  }
  const std::vector<placement::NodeId> rack_one{3, 4, 5};
  store.fail_nodes(rack_one);
  for (int i = 0; i < 100; ++i) {
    store.erase("key" + std::to_string(i * 5));
  }
  store.add_node();
}

/// Asserts that a pooled run reproduced its serial reference bit for
/// bit: sizes, tiling, both stats channels, the counted event stream
/// and a sample of keys.
template <typename StoreT>
void expect_same_run(const StoreT& serial, const StoreT& pooled,
                     const RecordingSink& serial_sink,
                     const RecordingSink& pooled_sink,
                     const std::string& label) {
  EXPECT_EQ(serial.size(), pooled.size()) << label;
  const ShardIndex& serial_index = serial.shard_index();
  const ShardIndex& pooled_index = pooled.shard_index();
  EXPECT_EQ(serial_index.shard_count(), pooled_index.shard_count()) << label;
  // The tiling itself, shard by shard: a pass that regrouped or split
  // the wrong shard could still leave every key's set in agreement.
  for (std::size_t i = 0; i < std::min(serial_index.shard_count(),
                                       pooled_index.shard_count());
       ++i) {
    const ShardIndex::Shard& ss = serial_index.shard(i);
    const ShardIndex::Shard& ps = pooled_index.shard(i);
    EXPECT_EQ(serial_index.shard_first(i), pooled_index.shard_first(i))
        << label << " shard " << i;
    EXPECT_EQ(ss.override_count(), ps.override_count())
        << label << " shard " << i;
    EXPECT_EQ(std::vector<placement::NodeId>(ss.replicas().begin(),
                                             ss.replicas().end()),
              std::vector<placement::NodeId>(ps.replicas().begin(),
                                             ps.replicas().end()))
        << label << " shard " << i;
  }
  EXPECT_EQ(serial.keys_per_node(), pooled.keys_per_node()) << label;
  EXPECT_EQ(serial.replica_copies_per_node(), pooled.replica_copies_per_node())
      << label;

  const auto sm = serial.stats().relocation;
  const auto pm = pooled.stats().relocation;
  EXPECT_EQ(sm.keys_moved_total, pm.keys_moved_total) << label;
  EXPECT_EQ(sm.keys_moved_across_nodes, pm.keys_moved_across_nodes) << label;
  EXPECT_EQ(sm.keys_rebucketed, pm.keys_rebucketed) << label;

  const ReplicationStats sr = serial.stats().replication;
  const ReplicationStats pr = pooled.stats().replication;
  EXPECT_EQ(sr.replica_writes, pr.replica_writes) << label;
  EXPECT_EQ(sr.keys_rereplicated, pr.keys_rereplicated) << label;
  EXPECT_EQ(sr.keys_lost, pr.keys_lost) << label;
  EXPECT_EQ(sr.rereplication_passes, pr.rereplication_passes) << label;
  EXPECT_EQ(sr.repair_shards_visited, pr.repair_shards_visited) << label;
  EXPECT_EQ(sr.repair_shards_total, pr.repair_shards_total) << label;

  // The counted event streams must be identical line for line: the
  // parallel passes merge per-worker accounting and emit in plan
  // order, so the DES consumer cannot tell the modes apart.
  EXPECT_EQ(serial_sink.log(), pooled_sink.log()) << label;

  for (int i = 0; i < 700; i += 13) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ(serial.get(key), pooled.get(key)) << key;
    EXPECT_EQ(serial.replicas_of(key), pooled.replicas_of(key)) << key;
    EXPECT_EQ(serial.read_node_of(key), pooled.read_node_of(key)) << key;
  }
}

TYPED_TEST(StoreConcurrencySuite, PooledRunMatchesSerialBitForBit) {
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
    auto serial = make_store<TypeParam>(4242, k);
    auto pooled = make_store<TypeParam>(4242, k);
    RecordingSink serial_sink;
    RecordingSink pooled_sink;
    serial.set_event_sink(&serial_sink);
    pooled.set_event_sink(&pooled_sink);
    ThreadPool pool(4);
    pooled.set_thread_pool(&pool);

    run_script(serial);
    run_script(pooled);

    expect_same_run(serial, pooled, serial_sink, pooled_sink,
                    "k=" + std::to_string(k));
  }
}

TYPED_TEST(StoreConcurrencySuite, PooledRackSpreadRunMatchesSerialBitForBit) {
  // Spread placement on the parallel repair path: every worker runs
  // stopped spread walks at once, each with its own stop state.
  const cluster::Topology topo = cluster::Topology::uniform(4, 3);
  auto serial = make_store<TypeParam>(4243, 3, SpreadPolicy::kRack);
  auto pooled = make_store<TypeParam>(4243, 3, SpreadPolicy::kRack);
  serial.set_topology(&topo);
  pooled.set_topology(&topo);
  RecordingSink serial_sink;
  RecordingSink pooled_sink;
  serial.set_event_sink(&serial_sink);
  pooled.set_event_sink(&pooled_sink);
  ThreadPool pool(4);
  pooled.set_thread_pool(&pool);

  run_rack_script(serial);
  run_rack_script(pooled);

  expect_same_run(serial, pooled, serial_sink, pooled_sink, "k=3 rack");
  EXPECT_GT(serial.stats().replication.keys_rereplicated, 0u);
}

TYPED_TEST(StoreConcurrencySuite, ConcurrentDistinctKeyPutsAccountExactly) {
  auto store = make_store<TypeParam>(77, 3);
  for (int n = 0; n < 6; ++n) store.add_node();
  ThreadPool pool(4);
  store.set_thread_pool(&pool);

  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kPerWriter = 250;
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        store.put("w" + std::to_string(w) + "-" + std::to_string(i), "v");
      }
    });
  }
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(store.size(), kWriters * kPerWriter);
  // Every put was a distinct new key into a fixed 6-node cluster: the
  // fan-out accounting is exact, not approximate, under any
  // interleaving of the writers.
  EXPECT_EQ(store.stats().replication.replica_writes,
            kWriters * kPerWriter * 3);
  for (std::size_t w = 0; w < kWriters; ++w) {
    const std::string key = "w" + std::to_string(w) + "-0";
    EXPECT_EQ(store.get(key), std::optional<std::string>("v"));
    EXPECT_EQ(store.replicas_of(key).size(), 3u);
  }
}

TYPED_TEST(StoreConcurrencySuite, ContendedGetsPutsScansAndChurnStayExact) {
  auto store = make_store<TypeParam>(909, 3);
  for (int n = 0; n < 5; ++n) store.add_node();

  constexpr int kStable = 300;
  for (int i = 0; i < kStable; ++i) {
    store.put("stable" + std::to_string(i), "s" + std::to_string(i));
  }

  ThreadPool pool(2);
  store.set_thread_pool(&pool);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_ok{0};
  // Reader progress, apart from the writers': rounds finished, readers
  // that finished their first round, readers that retired.
  constexpr int kReaders = 2;
  std::atomic<std::uint64_t> reader_rounds{0};
  std::atomic<int> readers_started{0};
  std::atomic<int> readers_done{0};
  // Round caps keep the test bounded on slow schedulers (TSan, 1-core
  // CI): threads retire after kMaxRounds even if the churn driver is
  // still being starved of cycles.
  constexpr int kMaxRounds = 4000;

  // Readers: point gets on the stable keys (their values never change,
  // so every hit must see the written value), full and partial scans,
  // balanced reads and stats snapshots - all while membership churns
  // and writers mutate their own lanes.
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &stop, &reads_ok, &reader_rounds,
                          &readers_started, &readers_done, r] {
      std::uint64_t ok = 0;
      int round = 0;
      while (!stop.load(std::memory_order_relaxed) && round < kMaxRounds) {
        const std::string key =
            "stable" + std::to_string((round * 7 + r * 13) % kStable);
        const auto value = store.get(key);
        ASSERT_TRUE(value.has_value()) << key;
        ASSERT_EQ(*value, "s" + key.substr(6)) << key;
        ++ok;
        (void)store.read_node_of(key, ReadPolicy::kRoundRobin);
        if (round % 8 == 0) {
          std::size_t seen = 0;
          store.scan(0, HashSpace::kMaxIndex,
                     [&seen](const std::string&, const std::string&) {
                       ++seen;
                     });
          ASSERT_GE(seen, static_cast<std::size_t>(kStable));
        }
        if (round % 16 == 0) {
          const auto snap = store.stats().replication;
          ASSERT_GE(snap.replica_writes, static_cast<std::uint64_t>(kStable));
          (void)store.stats().relocation;
        }
        ++round;
        reader_rounds.fetch_add(1, std::memory_order_relaxed);
        if (round == 1) readers_started.fetch_add(1);
      }
      reads_ok.fetch_add(ok);
      readers_done.fetch_add(1);
    });
  }

  // Writers: put/erase cycles inside private key lanes (contending on
  // shards and accounting, never on keys).
  constexpr std::size_t kLanes = 2;
  constexpr int kLaneKeys = 120;
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kLanes; ++w) {
    writers.emplace_back([&store, &stop, w] {
      int round = 0;
      while (!stop.load(std::memory_order_relaxed) && round < kMaxRounds) {
        const std::string key = "lane" + std::to_string(w) + "-" +
                                std::to_string(round % kLaneKeys);
        if ((round / kLaneKeys) % 2 == 0) {
          store.put(key, "x");
        } else {
          store.erase(key);
        }
        ++round;
      }
      // Leave the lane full so the final size is deterministic.
      for (int i = 0; i < kLaneKeys; ++i) {
        store.put("lane" + std::to_string(w) + "-" + std::to_string(i), "x");
      }
    });
  }

  // Churn driver: every membership event runs the shard-parallel
  // repair and relocation flush on the pool while the readers and
  // writers above keep hammering the store. It waits (bounded) until
  // every reader has finished a round before the first event - a reader
  // first scheduled after `stop` would do none - and for reader
  // progress between events, so every membership change overlaps live
  // reads instead of racing past retired threads. Writer rounds do not
  // count: they could satisfy the wait before any read ran.
  const auto wait_for_readers = [&readers_done](const auto& ready) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!ready() && readers_done.load() < kReaders &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  wait_for_readers([&readers_started] {
    return readers_started.load() == kReaders;
  });

  std::vector<placement::NodeId> added;
  for (int event = 0; event < 6; ++event) {
    const std::uint64_t start = reader_rounds.load(std::memory_order_relaxed);
    wait_for_readers([&reader_rounds, start] {
      return reader_rounds.load(std::memory_order_relaxed) >= start + 100;
    });
    switch (event % 3) {
      case 0:
        added.push_back(store.add_node());
        break;
      case 1:
        if (!added.empty() && store.backend().is_live(added.back())) {
          store.remove_node(added.back());
          added.pop_back();
        }
        break;
      default: {
        const placement::NodeId victim = static_cast<placement::NodeId>(
            event % 5);
        if (store.backend().is_live(victim)) {
          const std::vector<placement::NodeId> dead{victim};
          store.fail_nodes(dead);
        }
        break;
      }
    }
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  for (std::thread& t : writers) t.join();

  EXPECT_GT(reads_ok.load(), 0u);
  EXPECT_EQ(store.size(),
            static_cast<std::size_t>(kStable) + kLanes * kLaneKeys);
  for (int i = 0; i < kStable; i += 17) {
    const std::string key = "stable" + std::to_string(i);
    EXPECT_EQ(store.get(key),
              std::optional<std::string>("s" + std::to_string(i)));
  }
  // Accounting stayed a consistent channel: once the dust settles, two
  // quiescent reads agree (no batch is left pending to count).
  const ReplicationStats snap = store.stats().replication;
  const ReplicationStats ref = store.stats().replication;
  EXPECT_EQ(snap.replica_writes, ref.replica_writes);
  EXPECT_EQ(snap.keys_rereplicated, ref.keys_rereplicated);
  EXPECT_EQ(snap.rereplication_passes, ref.rereplication_passes);
}

// Reader-heavy regime: a 31:1 get:put mix (the inverse of the
// writer-heavy mixes above) across three threads, with each thread
// periodically running a full scan and asserting *exact* per-key
// consistency - every stable key visited exactly once per pass, never
// duplicated into the visit stream and never hidden - while crash
// repair and join relocation run on the pool underneath.
TYPED_TEST(StoreConcurrencySuite, ReaderHeavyMixKeepsScansExactDuringRepair) {
  auto store = make_store<TypeParam>(913, 3);
  for (int n = 0; n < 5; ++n) store.add_node();
  constexpr int kStable = 256;
  for (int i = 0; i < kStable; ++i) {
    store.put("stable" + std::to_string(i), "s" + std::to_string(i));
  }
  ThreadPool pool(2);
  store.set_thread_pool(&pool);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rounds{0};
  std::atomic<std::uint64_t> gets_ok{0};
  std::atomic<std::uint64_t> scans_ok{0};
  constexpr int kMaxRounds = 4096;

  std::vector<std::thread> mixers;
  for (int r = 0; r < 3; ++r) {
    mixers.emplace_back([&store, &stop, &rounds, &gets_ok, &scans_ok, r] {
      std::uint64_t ok = 0;
      int round = 0;
      while (!stop.load(std::memory_order_relaxed) && round < kMaxRounds) {
        rounds.fetch_add(1, std::memory_order_relaxed);
        if (round % 32 == 31) {
          // The 1 in 31:1 - a put into this thread's private lane.
          store.put(
              "mix" + std::to_string(r) + "-" + std::to_string(round % 64),
              "m");
        } else {
          const std::string key =
              "stable" + std::to_string((round * 31 + r * 11) % kStable);
          const auto value = store.get(key);
          ASSERT_TRUE(value.has_value()) << key;
          ASSERT_EQ(*value, "s" + key.substr(6)) << key;
          ++ok;
        }
        if (round % 64 == 0) {
          // Repair and relocation move stable keys between nodes, but
          // a key's hash position never changes: a range scan must
          // report each stable key exactly once per pass.
          std::array<std::uint8_t, kStable> seen{};
          store.scan(0, HashSpace::kMaxIndex,
                     [&seen](const std::string& key, const std::string&) {
                       if (key.rfind("stable", 0) == 0) {
                         ++seen[std::stoul(key.substr(6))];
                       }
                     });
          for (int i = 0; i < kStable; ++i) {
            ASSERT_EQ(seen[static_cast<std::size_t>(i)], 1) << "stable" << i;
          }
          scans_ok.fetch_add(1, std::memory_order_relaxed);
        }
        ++round;
      }
      gets_ok.fetch_add(ok);
    });
  }

  const auto wait_for_mix_traffic = [&rounds, &stop] {
    const std::uint64_t start = rounds.load(std::memory_order_relaxed);
    for (int spin = 0; spin < 20000; ++spin) {
      if (stop.load(std::memory_order_relaxed)) return;
      if (rounds.load(std::memory_order_relaxed) >= start + 100) return;
      std::this_thread::yield();
    }
  };

  // Repair drivers: alternating crashes and joins, each running the
  // shard-parallel repair pass on the pool under the reader mix.
  for (int event = 0; event < 4; ++event) {
    wait_for_mix_traffic();
    if (event % 2 == 0) {
      const placement::NodeId victim =
          static_cast<placement::NodeId>(event + 1);
      if (store.backend().is_live(victim) &&
          store.backend().node_count() > 3) {
        const std::vector<placement::NodeId> dead{victim};
        store.fail_nodes(dead);
      }
    } else {
      store.add_node();
    }
  }
  stop.store(true);
  for (std::thread& t : mixers) t.join();

  EXPECT_GT(gets_ok.load(), 0u);
  EXPECT_GT(scans_ok.load(), 0u);
  for (int i = 0; i < kStable; i += 19) {
    const std::string key = "stable" + std::to_string(i);
    EXPECT_EQ(store.get(key),
              std::optional<std::string>("s" + std::to_string(i)));
  }
}

TYPED_TEST(StoreConcurrencySuite, PooledScanSeesAConsistentPerShardView) {
  auto store = make_store<TypeParam>(31, 2);
  for (int n = 0; n < 4; ++n) store.add_node();
  ThreadPool pool(2);
  store.set_thread_pool(&pool);
  for (int i = 0; i < 500; ++i) {
    store.put("scan" + std::to_string(i), "v");
  }
  // A full scan and the split halves cover the same population, and
  // both agree with the counting surface.
  std::size_t full = 0;
  store.scan(0, HashSpace::kMaxIndex,
             [&full](const std::string&, const std::string&) { ++full; });
  const HashIndex mid = HashSpace::kMaxIndex / 2;
  std::size_t low = 0;
  std::size_t high = 0;
  store.scan(0, mid,
             [&low](const std::string&, const std::string&) { ++low; });
  store.scan(mid + 1, HashSpace::kMaxIndex,
             [&high](const std::string&, const std::string&) { ++high; });
  EXPECT_EQ(full, store.size());
  EXPECT_EQ(low + high, full);
  EXPECT_EQ(low, store.keys_in_range(0, mid));
}

// Regression: flush_relocations() used to run lazily from every put
// and stats read, and its unlocked pending_events_.empty() probe raced
// another flusher's clear(). The flush now runs only inside the
// membership bracket, under the exclusive backend hold, so stats
// readers and writers racing churn never flush at all. This mix must
// stay TSan-clean, every read must see monotone totals, and the
// relocation totals must come out exact (each event counted once).
TEST(StoreRaceRegression, ConcurrentFlushersDoNotRaceThePendingProbe) {
  auto store = make_store<KvStore>(1234, 2);
  for (int n = 0; n < 5; ++n) store.add_node();
  for (int i = 0; i < 300; ++i) {
    store.put("flush" + std::to_string(i), "v");
  }
  ThreadPool pool(2);
  store.set_thread_pool(&pool);

  std::atomic<bool> stop{false};
  std::vector<std::thread> flushers;
  for (int f = 0; f < 2; ++f) {
    flushers.emplace_back([&store, &stop, f] {
      // Alternate the two surfaces that used to flush: the stats read
      // and a mutation in a private key lane.
      std::uint64_t last_total = 0;
      int round = 0;
      while (!stop.load(std::memory_order_relaxed) && round < 3000) {
        const auto stats = store.stats().relocation;
        ASSERT_GE(stats.keys_moved_total, last_total);  // totals only grow
        last_total = stats.keys_moved_total;
        store.put("f" + std::to_string(f) + "-" + std::to_string(round % 50),
                  "v");
        ++round;
      }
    });
  }
  // Churn keeps membership brackets (each with its own flush) running
  // against the readers and writers.
  for (int event = 0; event < 8; ++event) {
    if (event % 2 == 0) {
      store.add_node();
    } else {
      store.remove_node(store.add_node());
    }
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : flushers) t.join();

  // Quiescent again: a second read agrees and the churn was counted.
  const auto final_stats = store.stats().relocation;
  EXPECT_GT(final_stats.keys_moved_total, 0u);
  EXPECT_EQ(final_stats.keys_moved_total,
            store.stats().relocation.keys_moved_total);
}

// Regression: the replication channel used to be handed back as a
// reference to the live accounting struct with no lock anywhere, so
// polling it during a membership pass read the counters while
// rereplicate() was writing them. stats() returns a copy taken under
// the accounting lock; a poller must see TSan-clean, monotonically
// growing counters while churn and writers run.
TEST(StoreRaceRegression, ReplicationStatsPolledDuringChurnIsCoherent) {
  auto store = make_store<KvStore>(4321, 3);
  for (int n = 0; n < 5; ++n) store.add_node();
  for (int i = 0; i < 300; ++i) {
    store.put("repl" + std::to_string(i), "v");
  }
  ThreadPool pool(2);
  store.set_thread_pool(&pool);

  std::atomic<bool> stop{false};
  std::thread writer([&store, &stop] {
    int round = 0;
    while (!stop.load(std::memory_order_relaxed) && round < 3000) {
      store.put("w-" + std::to_string(round % 80), "v");
      ++round;
    }
  });
  std::thread poller([&store, &stop] {
    ReplicationStats prev;
    while (!stop.load(std::memory_order_relaxed)) {
      const ReplicationStats now = store.stats().replication;
      ASSERT_GE(now.replica_writes, prev.replica_writes);
      ASSERT_GE(now.keys_rereplicated, prev.keys_rereplicated);
      ASSERT_GE(now.rereplication_passes, prev.rereplication_passes);
      prev = now;
    }
  });
  for (int event = 0; event < 8; ++event) {
    if (event % 2 == 0) {
      store.add_node();
    } else {
      store.remove_node(store.add_node());
    }
    std::this_thread::yield();
  }
  stop.store(true);
  writer.join();
  poller.join();

  EXPECT_GT(store.stats().replication.rereplication_passes, 0u);
}

TYPED_TEST(StoreConcurrencySuite, DetachReturnsToSerialMode) {
  auto store = make_store<TypeParam>(55, 2);
  store.add_node();
  ThreadPool pool(2);
  store.set_thread_pool(&pool);
  EXPECT_TRUE(store.concurrent());
  store.put("a", "1");
  store.set_thread_pool(nullptr);
  EXPECT_FALSE(store.concurrent());
  store.add_node();
  store.put("b", "2");
  EXPECT_EQ(store.get("a"), std::optional<std::string>("1"));
  EXPECT_EQ(store.get("b"), std::optional<std::string>("2"));
  EXPECT_EQ(store.size(), 2u);
}

}  // namespace
}  // namespace cobalt::kv
