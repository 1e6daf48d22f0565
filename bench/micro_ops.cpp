// Microbenchmarks (google-benchmark): costs of the core operations -
// hashing, dyadic arithmetic, routing lookups, vnode creation in both
// approaches, group splitting pressure, CH joins, and the KV store's
// hot path (put / get / membership events / repair passes) and the
// rack-spread replica walk, across all seven placement schemes.
//
// `--keys=N` sets the key count of the store_bytes_per_key and
// store_point_cold families (default 200000; the 10M-key stretch is
// `--keys=10000000`).
//
// `--json[=path]` additionally writes the results as google-benchmark
// JSON (default path BENCH_store_hotpath.json); the checked-in
// BENCH_store_hotpath.json tracks the store hot-path trajectory as
// before/after snapshots of the store_* benches (see
// docs/BENCHMARKS.md for the schema).

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ch/ring.hpp"
#include "cluster/topology.hpp"
#include "common/dyadic.hpp"
#include "common/rng.hpp"
#include "dht/global_dht.hpp"
#include "dht/local_dht.hpp"
#include "cluster/distributed.hpp"
#include "dht/router.hpp"
#include "dht/snapshot.hpp"
#include "hashing/hash.hpp"
#include "kv/store.hpp"
#include "support/schemes.hpp"

namespace {

using cobalt::placement::ReplicationSpec;
using cobalt::placement::SpreadPolicy;

using cobalt::Dyadic;
using cobalt::Xoshiro256;

void BM_HashFnv1a64(benchmark::State& state) {
  const std::string key(static_cast<std::size_t>(state.range(0)), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(cobalt::hashing::fnv1a64(key));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashFnv1a64)->Arg(16)->Arg(64)->Arg(1024);

void BM_HashXxh64(benchmark::State& state) {
  const std::string key(static_cast<std::size_t>(state.range(0)), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(cobalt::hashing::xxh64(key));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashXxh64)->Arg(16)->Arg(64)->Arg(1024);

void BM_Xoshiro256Next(benchmark::State& state) {
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_Xoshiro256Next);

void BM_DyadicAccumulate(benchmark::State& state) {
  // Summing 1024 vnode quotas exactly (the invariant checker's load).
  for (auto _ : state) {
    Dyadic sum;
    for (int i = 0; i < 1024; ++i) {
      sum += Dyadic::one_over_pow2(10);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_DyadicAccumulate);

cobalt::dht::Config config_for(std::uint64_t pmin, std::uint64_t vmin) {
  cobalt::dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = 42;
  return c;
}

void BM_LocalLookup(benchmark::State& state) {
  cobalt::dht::LocalDht dht(config_for(32, 32));
  const auto snode = dht.add_snode();
  for (std::int64_t i = 0; i < state.range(0); ++i) dht.create_vnode(snode);
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dht.lookup(rng.next()).owner);
  }
}
BENCHMARK(BM_LocalLookup)->Arg(64)->Arg(256)->Arg(1024);

void BM_LocalCreateVnode(benchmark::State& state) {
  // Amortized creation cost while growing to range(0) vnodes.
  for (auto _ : state) {
    state.PauseTiming();
    cobalt::dht::LocalDht dht(config_for(32, 32));
    const auto snode = dht.add_snode();
    state.ResumeTiming();
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      dht.create_vnode(snode);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LocalCreateVnode)->Arg(128)->Arg(1024);

void BM_GlobalCreateVnode(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    cobalt::dht::GlobalDht dht(config_for(32, 1));
    const auto snode = dht.add_snode();
    state.ResumeTiming();
    for (std::int64_t i = 0; i < state.range(0); ++i) {
      dht.create_vnode(snode);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GlobalCreateVnode)->Arg(128)->Arg(1024);

void BM_SigmaQvSample(benchmark::State& state) {
  cobalt::dht::LocalDht dht(config_for(32, 32));
  const auto snode = dht.add_snode();
  for (std::int64_t i = 0; i < state.range(0); ++i) dht.create_vnode(snode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dht.sigma_qv());
  }
}
BENCHMARK(BM_SigmaQvSample)->Arg(256)->Arg(1024);

void BM_ChAddNode(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    cobalt::ch::ConsistentHashRing ring(11);
    state.ResumeTiming();
    for (int i = 0; i < 256; ++i) {
      ring.add_node(static_cast<std::size_t>(state.range(0)));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ChAddNode)->Arg(32)->Arg(64);

void BM_ChLookup(benchmark::State& state) {
  cobalt::ch::ConsistentHashRing ring(13);
  for (int i = 0; i < 1024; ++i) ring.add_node(32);
  Xoshiro256 rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.lookup(rng.next()));
  }
}
BENCHMARK(BM_ChLookup);

void BM_SnapshotRoundTrip(benchmark::State& state) {
  cobalt::dht::LocalDht dht(config_for(32, 32));
  const auto snode = dht.add_snode();
  for (std::int64_t i = 0; i < state.range(0); ++i) dht.create_vnode(snode);
  for (auto _ : state) {
    std::stringstream stream;
    cobalt::dht::save_snapshot(dht, stream);
    auto restored = cobalt::dht::load_local_snapshot(stream);
    benchmark::DoNotOptimize(restored.vnode_count());
  }
}
BENCHMARK(BM_SnapshotRoundTrip)->Arg(128)->Arg(512);

void BM_RouterLookup(benchmark::State& state) {
  cobalt::dht::LocalDht dht(config_for(32, 32));
  for (int s = 0; s < 64; ++s) dht.add_snode();
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    dht.create_vnode(static_cast<cobalt::dht::SNodeId>(i % 64));
  }
  cobalt::dht::SnodeRouter router(dht, 0);
  Xoshiro256 rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.lookup(rng.next()).hops);
  }
}
BENCHMARK(BM_RouterLookup)->Arg(256)->Arg(1024);

void BM_DistributedProtocol(benchmark::State& state) {
  // Whole-protocol throughput: creations per second through the
  // message-level DES (8 snodes).
  for (auto _ : state) {
    cobalt::cluster::DistributedDht dht(config_for(32, 32), 8);
    for (std::int64_t v = 0; v < state.range(0); ++v) {
      dht.submit_create(static_cast<cobalt::dht::SNodeId>(v % 8));
    }
    benchmark::DoNotOptimize(dht.run().messages);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DistributedProtocol)->Arg(128)->Arg(512);

// --- store hot path, all seven schemes -------------------------------
//
// The perf trajectory of the KV store itself, one bench family per
// operation class and one instance per placement scheme:
//
//   store_put/<scheme>       put throughput on a warm 16-node store
//   store_get/<scheme>       point-lookup throughput over resident keys
//                            (20k keys: the index stays in cache)
//   store_point_cold/<scheme>/<op>
//                            one point op on a random resident key of
//                            a k=3 store of 24 nodes preloaded with
//                            --keys keys (kv_point_1m's shape), where
//                            the index outgrows L2: op is get,
//                            read_node_of (kRoundRobin) or put_update
//                            (an overwrite of equal length)
//   store_event_k1/<scheme>
//                            membership events on a loaded k=1 store
//                            (each join pays relocation accounting plus
//                            the k=1 repair of the relocated ranges -
//                            the growth repair path of run_growth /
//                            run_movement_growth)
//   store_repair_k3/<scheme>
//                            membership events on a loaded k=3 store
//                            (each event runs the fallback-replica
//                            repair pass - the abl8 hot path)
//   store_repair_k3_rack/<scheme>
//                            one drain plus one join into the drained
//                            node's rack on a loaded k=3 rack-spread
//                            store of 48 nodes in 12 racks (the
//                            churn_rack_k3 event pair: dirty report,
//                            relocation flush and repair pass)
//   store_bytes_per_key/<scheme>/keys:N
//                            one preload of N keys (kv_point_1m's
//                            shape: ~13-byte keys, 4-byte values) into
//                            a fresh k=3 store of 24 nodes; the time
//                            is the preload, the counters are the heap
//                            it grew by per key (mallinfo2) and the
//                            share of entries carrying a replica-set
//                            override
//   placement_spread_walk/<scheme>/crashed:C
//                            one k=3 rack-spread replica set per
//                            iteration (the store's repair and write
//                            path under a rack topology); C = 0 is 48
//                            nodes in 12 racks after a churn round
//                            (departed nodes stay in their racks'
//                            counts, so the pigeonhole cap is 11
//                            while 3-4 nodes reach 3 racks), C = 1 is
//                            3 racks of 4 with one rack crashed (the
//                            cap of 9 exceeds the 8 live nodes and
//                            only 2 racks remain, so no walk stops
//                            early)
//   placement_event/<scheme>
//                            one drain plus one join into the drained
//                            node's rack on a bare backend of 48 nodes
//                            in 12 racks at churn_rack_k3's scale
//                            (2^14-cell grids), each followed by the
//                            k=3 rack-spread dirty query the store
//                            makes (HRW's tracker stays armed): the
//                            placement mutation layer alone, no store
//
// store_event_k1, store_repair_k3 and store_repair_k3_rack also report
// the counters their timed events leave behind (keys_moved_total,
// keys_rereplicated, repair_shards_visited, replica_walks); the
// bench-smoke CI job fails when a moved or re-replicated count differs
// from bench/micro_ops_counts.json or a visit or walk count rises
// above it. store_repair_k3_rack also reports its shard_count and
// override_entries, ungated.
//
// The membership cells (store_event_k1, store_repair_k3,
// store_repair_k3_rack) rebuild their loaded store untimed in every
// iteration, so a time-bound run gives them only a handful of timed
// iterations and one cell's runs scatter widely between invocations.
// They run a fixed kMembershipIterations iterations, repeated
// kMembershipRepetitions times, and report only the aggregates; read
// the _median row (names gain /iterations:N/repeats:R). placement_event
// takes the same shape, so every repetition churns a fresh backend
// through the same events.

constexpr std::size_t kStoreBenchKeys = 20000;

/// Fixed shape of the membership cells (see the family comment).
constexpr benchmark::IterationCount kMembershipIterations = 8;
constexpr int kMembershipRepetitions = 9;

/// Gives `bench` the membership cells' shape: fixed iterations, median
/// of repetitions.
void membership_cell(benchmark::internal::Benchmark* bench) {
  bench->Iterations(kMembershipIterations)
      ->Repetitions(kMembershipRepetitions)
      ->ReportAggregatesOnly(true);
}

/// The comparison schemes at a comparable footprint (mirrors the
/// typed store tests: one vnode / one moderate point set per node).
const cobalt::bench::SchemeParams kBenchSchemes{.pmin = 32,
                                                .vmin = 8,
                                                .ch_points = 32,
                                                .grid_bits = 12,
                                                .epsilon = 0.25,
                                                .selection = nullptr};

std::string bench_key(std::uint64_t i) {
  return "bench/" + std::to_string(i);
}

template <typename Scheme>
void BM_StorePut(benchmark::State& state, const Scheme& scheme) {
  auto store = scheme.store(42);
  for (int i = 0; i < 16; ++i) store.add_node();
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.put(bench_key(i++), "v"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename Scheme>
void BM_StoreGet(benchmark::State& state, const Scheme& scheme) {
  auto store = scheme.store(43);
  for (int i = 0; i < 16; ++i) store.add_node();
  for (std::uint64_t i = 0; i < kStoreBenchKeys; ++i) {
    store.put(bench_key(i), "v");
  }
  Xoshiro256 rng(29);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.get(bench_key(rng.next_below(kStoreBenchKeys))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// One iteration = 16 joins into a store preloaded with kStoreBenchKeys
/// keys (preload untimed). At k = 1 every join pays the relocation
/// accounting plus the ranged repair; at k = 3 it additionally pays the
/// fallback-replica repair pass. Counters: the iteration's
/// keys_moved_total, keys_rereplicated, repair_shards_visited and
/// replica_walks.
template <typename Scheme>
void BM_StoreMembershipEvents(benchmark::State& state, const Scheme& scheme,
                              std::size_t k) {
  constexpr int kJoins = 16;
  for (auto _ : state) {
    state.PauseTiming();
    auto store = scheme.store(44, ReplicationSpec{k, SpreadPolicy::kNone});
    for (std::size_t n = 0; n < 4; ++n) store.add_node();
    for (std::uint64_t i = 0; i < kStoreBenchKeys; ++i) {
      store.put(bench_key(i), "v");
    }
    state.ResumeTiming();
    for (int n = 0; n < kJoins; ++n) store.add_node();
    const cobalt::kv::StatsSnapshot stats = store.stats();
    state.counters["keys_moved_total"] =
        static_cast<double>(stats.relocation.keys_moved_total);
    state.counters["keys_rereplicated"] =
        static_cast<double>(stats.replication.keys_rereplicated);
    state.counters["repair_shards_visited"] =
        static_cast<double>(stats.replication.repair_shards_visited);
    state.counters["replica_walks"] =
        static_cast<double>(stats.replication.replica_walks);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kJoins);
}

/// One iteration = a drain of node 5 and a join into its rack, on a
/// k=3 rack-spread store of 48 nodes in 12 racks of 4 preloaded with
/// kStoreBenchKeys keys (setup untimed, fresh each iteration). A scheme
/// that refuses the drain still pays its event and the join. Counters:
/// keys_moved_total, keys_rereplicated, repair_shards_visited and
/// replica_walks of the two timed events, and the tiling they leave
/// (shard_count, and override_entries: entries whose set is not their
/// shard's; reported, not gated).
template <typename Scheme>
void BM_StoreRackRepair(benchmark::State& state, const Scheme& scheme) {
  constexpr std::size_t kRacks = 12;
  constexpr std::size_t kPerRack = 4;
  constexpr cobalt::placement::NodeId kVictim = 5;
  for (auto _ : state) {
    state.PauseTiming();
    cobalt::cluster::Topology topo =
        cobalt::cluster::Topology::uniform(kRacks, kPerRack);
    auto store = scheme.store(48, ReplicationSpec{3, SpreadPolicy::kRack});
    store.set_topology(&topo);
    for (std::size_t n = 0; n < kRacks * kPerRack; ++n) store.add_node();
    for (std::uint64_t i = 0; i < kStoreBenchKeys; ++i) {
      store.put(bench_key(i), "v");
    }
    const auto rack = topo.rack_of(kVictim);
    const cobalt::kv::StatsSnapshot before = store.stats();
    state.ResumeTiming();
    (void)store.remove_node(kVictim);
    topo.assign(static_cast<cobalt::placement::NodeId>(
                    store.backend().node_slot_count()),
                rack);
    store.add_node();
    const cobalt::kv::StatsSnapshot after = store.stats();
    state.counters["keys_moved_total"] =
        static_cast<double>(after.relocation.keys_moved_total -
                            before.relocation.keys_moved_total);
    state.counters["keys_rereplicated"] =
        static_cast<double>(after.replication.keys_rereplicated -
                            before.replication.keys_rereplicated);
    state.counters["repair_shards_visited"] =
        static_cast<double>(after.replication.repair_shards_visited -
                            before.replication.repair_shards_visited);
    state.counters["replica_walks"] =
        static_cast<double>(after.replication.replica_walks -
                            before.replication.replica_walks);
    std::uint64_t overrides = 0;
    for (const auto& shard : store.shard_index().shards()) {
      overrides += shard.override_count();
    }
    state.counters["shard_count"] =
        static_cast<double>(store.shard_index().shard_count());
    state.counters["override_entries"] = static_cast<double>(overrides);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

/// Key count of the store_bytes_per_key family (--keys=N).
std::int64_t bytes_per_key_keys = 200000;

/// Heap bytes in use, as the allocator counts them.
double heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

/// One iteration = a preload of range(0) keys into a fresh k=3 store
/// of 24 nodes, timed by hand so the store's construction and teardown
/// stay outside. Counters: bytes_per_key (the heap the preload grew by,
/// per key) and override_frac (entries whose replica set is not their
/// shard's, per key).
template <typename Scheme>
void BM_StoreBytesPerKey(benchmark::State& state, const Scheme& scheme) {
  const auto keys = static_cast<std::uint64_t>(state.range(0));
  const std::string value = "vvvv";
  for (auto _ : state) {
    auto store = scheme.store(49, ReplicationSpec{3, SpreadPolicy::kNone});
    for (int n = 0; n < 24; ++n) store.add_node();
    const double heap_before = heap_bytes();
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < keys; ++i) store.put(bench_key(i), value);
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    const double heap = heap_bytes() - heap_before;
    std::uint64_t overrides = 0;
    for (const auto& shard : store.shard_index().shards()) {
      overrides += shard.override_count();
    }
    state.counters["bytes_per_key"] = heap / static_cast<double>(keys);
    state.counters["override_frac"] =
        static_cast<double>(overrides) / static_cast<double>(keys);
  }
}

/// The population the store_point_cold cells of one scheme share:
/// --keys keys (4-byte values) in a k=3 store of 24 nodes, the shape
/// of kv_point_1m and store_bytes_per_key.
template <typename Scheme>
struct ColdStore {
  cobalt::kv::Store<typename Scheme::BackendType> store;
  explicit ColdStore(const Scheme& scheme)
      : store(scheme.store(50, ReplicationSpec{3, SpreadPolicy::kNone})) {
    for (int n = 0; n < 24; ++n) store.add_node();
    for (std::int64_t i = 0; i < bytes_per_key_keys; ++i) {
      store.put(bench_key(static_cast<std::uint64_t>(i)), "vvvv");
    }
  }
};

/// The current scheme's ColdStore: built by its first cold cell and
/// dropped when the next scheme's cells start (cells run in
/// registration order), so one population is resident at a time.
std::shared_ptr<void> cold_store;
std::string cold_store_scheme;

template <typename Scheme>
auto& cold_store_of(const Scheme& scheme) {
  if (cold_store_scheme != scheme.name) {
    cold_store.reset();
    cold_store = std::make_shared<ColdStore<Scheme>>(scheme);
    cold_store_scheme = scheme.name;
  }
  return static_cast<ColdStore<Scheme>*>(cold_store.get())->store;
}

enum class PointOp { kGet, kReadNodeOf, kPutUpdate };

/// One iteration = one point op on a uniformly drawn resident key of
/// the scheme's ColdStore (preload untimed, shared by the three ops).
template <typename Scheme>
void BM_StorePointCold(benchmark::State& state, const Scheme& scheme,
                       PointOp op) {
  auto& store = cold_store_of(scheme);
  const auto keys = static_cast<std::uint64_t>(bytes_per_key_keys);
  Xoshiro256 rng(31);
  for (auto _ : state) {
    const std::string key = bench_key(rng.next_below(keys));
    switch (op) {
      case PointOp::kGet:
        benchmark::DoNotOptimize(store.get(key));
        break;
      case PointOp::kReadNodeOf:
        benchmark::DoNotOptimize(
            store.read_node_of(key, cobalt::kv::ReadPolicy::kRoundRobin));
        break;
      case PointOp::kPutUpdate:
        benchmark::DoNotOptimize(store.put(key, "wwww"));
        break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// One iteration = one k=3 rack-spread replica set at the next of a
/// fixed ring of probe points. range(0) picks the topology (see the
/// family comment above): 0 = a churned 48-node, 12-rack cluster,
/// 1 = 3 racks of 4 with rack 2 crashed.
template <typename Scheme>
void BM_PlacementSpreadWalk(benchmark::State& state, const Scheme& scheme) {
  using Backend = typename Scheme::BackendType;
  const bool crashed = state.range(0) != 0;
  const std::size_t racks = crashed ? 3 : 12;
  const std::size_t per_rack = 4;
  cobalt::cluster::Topology topo =
      cobalt::cluster::Topology::uniform(racks, per_rack);
  Backend backend(scheme.options_for(46));
  for (std::size_t n = 0; n < racks * per_rack; ++n) backend.add_node();
  if (crashed) {
    for (const auto node : topo.nodes_in_rack(2)) {
      (void)backend.remove_node(node);
    }
  } else {
    // One churn round: a node leaves each rack and a fresh one joins
    // it; the departed node stays assigned (a scheme may refuse the
    // drain, then the node simply stays).
    for (std::size_t r = 0; r < racks; ++r) {
      const auto rack = static_cast<cobalt::cluster::Topology::RackId>(r);
      (void)backend.remove_node(topo.nodes_in_rack(rack).front());
      topo.assign(backend.add_node(), rack);
    }
  }
  backend.set_topology(&topo);
  const ReplicationSpec spec{3, SpreadPolicy::kRack};
  std::vector<cobalt::HashIndex> points(1024);
  Xoshiro256 rng(47);
  for (auto& point : points) point = rng.next();
  std::vector<cobalt::placement::NodeId> out;
  std::size_t i = 0;
  for (auto _ : state) {
    backend.replica_set_into(points[i++ & 1023u], spec, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// One iteration = a drain of the oldest live node of the next rack
/// (racks come round in order) and a join into that rack, on a backend
/// of 48 nodes in 12 racks of 4 (setup and the arming dirty query
/// untimed, once per repetition); each event is followed by its k=3
/// rack-spread dirty query. A scheme that refuses the drain still pays
/// its event and the join.
template <typename Scheme>
void BM_PlacementEvent(benchmark::State& state, const Scheme& scheme) {
  using Backend = typename Scheme::BackendType;
  using cobalt::placement::NodeId;
  constexpr std::size_t kRacks = 12;
  constexpr std::size_t kPerRack = 4;
  cobalt::cluster::Topology topo =
      cobalt::cluster::Topology::uniform(kRacks, kPerRack);
  Backend backend(scheme.options_for(51));
  for (std::size_t n = 0; n < kRacks * kPerRack; ++n) backend.add_node();
  backend.set_topology(&topo);
  const ReplicationSpec spec{3, SpreadPolicy::kRack};
  benchmark::DoNotOptimize(backend.replica_dirty_ranges(spec));
  std::vector<std::vector<NodeId>> members(kRacks);
  for (std::size_t r = 0; r < kRacks; ++r) {
    const auto rack = static_cast<cobalt::cluster::Topology::RackId>(r);
    members[r] = topo.nodes_in_rack(rack);
  }
  std::size_t next_rack = 0;
  for (auto _ : state) {
    const std::size_t r = next_rack++ % kRacks;
    auto& rack_members = members[r];
    if (backend.remove_node(rack_members.front())) {
      rack_members.erase(rack_members.begin());
    }
    benchmark::DoNotOptimize(backend.replica_dirty_ranges(spec));
    topo.assign(static_cast<NodeId>(backend.node_slot_count()),
                static_cast<cobalt::cluster::Topology::RackId>(r));
    rack_members.push_back(backend.add_node());
    benchmark::DoNotOptimize(backend.replica_dirty_ranges(spec));
  }
  backend.set_topology(nullptr);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

void register_all_store_benches() {
  cobalt::bench::for_each_scheme(kBenchSchemes, [](const auto& scheme) {
    const std::string& name = scheme.name;
    benchmark::RegisterBenchmark(("store_put/" + name).c_str(),
                                 [scheme](benchmark::State& state) {
                                   BM_StorePut(state, scheme);
                                 });
    benchmark::RegisterBenchmark(("store_get/" + name).c_str(),
                                 [scheme](benchmark::State& state) {
                                   BM_StoreGet(state, scheme);
                                 });
    benchmark::RegisterBenchmark(("store_event_k1/" + name).c_str(),
                                 [scheme](benchmark::State& state) {
                                   BM_StoreMembershipEvents(state, scheme, 1);
                                 })
        ->Apply(membership_cell);
    benchmark::RegisterBenchmark(("store_repair_k3/" + name).c_str(),
                                 [scheme](benchmark::State& state) {
                                   BM_StoreMembershipEvents(state, scheme, 3);
                                 })
        ->Apply(membership_cell);
    benchmark::RegisterBenchmark(("store_repair_k3_rack/" + name).c_str(),
                                 [scheme](benchmark::State& state) {
                                   BM_StoreRackRepair(state, scheme);
                                 })
        ->Apply(membership_cell);
    benchmark::RegisterBenchmark(("store_bytes_per_key/" + name).c_str(),
                                 [scheme](benchmark::State& state) {
                                   BM_StoreBytesPerKey(state, scheme);
                                 })
        ->ArgName("keys")
        ->Arg(bytes_per_key_keys)
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
    for (const auto& [op_name, op] :
         {std::pair{"get", PointOp::kGet},
          std::pair{"read_node_of", PointOp::kReadNodeOf},
          std::pair{"put_update", PointOp::kPutUpdate}}) {
      benchmark::RegisterBenchmark(
          ("store_point_cold/" + name + "/" + op_name).c_str(),
          [scheme, op = op](benchmark::State& state) {
            BM_StorePointCold(state, scheme, op);
          });
    }
    benchmark::RegisterBenchmark(("placement_spread_walk/" + name).c_str(),
                                 [scheme](benchmark::State& state) {
                                   BM_PlacementSpreadWalk(state, scheme);
                                 })
        ->ArgName("crashed")
        ->Arg(0)
        ->Arg(1);
  });
  // churn_rack_k3's scheme scale: 2^14-cell grids, epsilon 0.1.
  cobalt::bench::for_each_scheme(
      cobalt::bench::SchemeParams{}, [](const auto& scheme) {
        benchmark::RegisterBenchmark(("placement_event/" + scheme.name).c_str(),
                                     [scheme](benchmark::State& state) {
                                       BM_PlacementEvent(state, scheme);
                                     })
            ->Apply(membership_cell);
      });
}

}  // namespace

int main(int argc, char** argv) {
  // `--json[=path]` is sugar for google-benchmark's JSON file output:
  // it becomes --benchmark_out=<path> --benchmark_out_format=json with
  // the path defaulting to BENCH_store_hotpath.json, so CI and the
  // docs can speak one flag.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  for (auto it = args.begin(); it != args.end();) {
    if (std::strcmp(*it, "--json") == 0) {
      out_flag = "--benchmark_out=BENCH_store_hotpath.json";
      it = args.erase(it);
    } else if (std::strncmp(*it, "--json=", 7) == 0) {
      out_flag = std::string("--benchmark_out=") + (*it + 7);
      it = args.erase(it);
    } else if (std::strncmp(*it, "--keys=", 7) == 0) {
      bytes_per_key_keys = std::strtoll(*it + 7, nullptr, 10);
      if (bytes_per_key_keys < 1) {
        std::fprintf(stderr, "error: --keys must be a positive count\n");
        return 2;
      }
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }

  register_all_store_benches();
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
