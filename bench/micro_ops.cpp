// Microbenchmarks (google-benchmark): costs of the core operations -
// hashing, dyadic arithmetic, routing lookups, vnode creation in both
// approaches, group splitting pressure, CH joins, and the KV store's
// hot path (put / get / membership events / repair passes) across all
// seven placement schemes.
//
// `--json[=path]` additionally writes the results as google-benchmark
// JSON (default path BENCH_store_hotpath.json); the checked-in
// BENCH_store_hotpath.json tracks the store hot-path trajectory as
// before/after snapshots of the store_* benches (see
// docs/BENCHMARKS.md for the schema).

#include <benchmark/benchmark.h>

#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ch/ring.hpp"
#include "common/dyadic.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dht/global_dht.hpp"
#include "dht/local_dht.hpp"
#include "cluster/distributed.hpp"
#include "dht/router.hpp"
#include "dht/snapshot.hpp"
#include "hashing/hash.hpp"
#include "kv/store.hpp"

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
//   store_event_k1/<scheme>/threads:T
//                            membership events on a loaded k=1 store
//                            (each join pays relocation accounting plus
//                            the k=1 repair of the relocated ranges -
//                            the growth repair path of run_growth /
//                            run_movement_growth)
//   store_repair_k3/<scheme>/threads:T
//                            membership events on a loaded k=3 store
//                            (each event runs the fallback-replica
//                            repair pass - the abl8 hot path)
//   store_contended_mix/<scheme>/threads:T
//                            a 7:1 get:put mix driven by T bench
//                            threads against one shard-concurrent
//                            store (the read-scaling surface)
//
// The threads axis: for the membership benches T is the size of the
// cobalt::ThreadPool the store runs its shard-parallel repair and
// relocation-flush passes on (T = 1 is the serial engine - no pool
// attached, no locks taken - so that cell tracks the historical
// single-threaded trajectory). For the contended mix T is the number
// of google-benchmark driver threads hammering the store's locked
// read/write paths. Cells are only comparable at equal T; see
// scripts/check_bench_regression.py.

constexpr std::size_t kStoreBenchKeys = 20000;

/// Per-scheme store factory with a comparable footprint (mirrors the
/// typed store tests: one vnode / one moderate point set per node).
template <typename StoreT>
StoreT make_bench_store(std::uint64_t seed, std::size_t k);

template <>
cobalt::kv::KvStore make_bench_store<cobalt::kv::KvStore>(
    std::uint64_t /*seed*/, std::size_t k) {
  return cobalt::kv::KvStore({config_for(32, 8), 1},
                             ReplicationSpec{k, SpreadPolicy::kNone});
}

template <>
cobalt::kv::GlobalKvStore make_bench_store<cobalt::kv::GlobalKvStore>(
    std::uint64_t /*seed*/, std::size_t k) {
  return cobalt::kv::GlobalKvStore({config_for(32, 1), 1},
                                   ReplicationSpec{k, SpreadPolicy::kNone});
}

template <>
cobalt::kv::ChKvStore make_bench_store<cobalt::kv::ChKvStore>(
    std::uint64_t seed, std::size_t k) {
  return cobalt::kv::ChKvStore({seed, 32},
                               ReplicationSpec{k, SpreadPolicy::kNone});
}

template <>
cobalt::kv::HrwKvStore make_bench_store<cobalt::kv::HrwKvStore>(
    std::uint64_t seed, std::size_t k) {
  return cobalt::kv::HrwKvStore({seed, 12},
                                ReplicationSpec{k, SpreadPolicy::kNone});
}

template <>
cobalt::kv::JumpKvStore make_bench_store<cobalt::kv::JumpKvStore>(
    std::uint64_t seed, std::size_t k) {
  return cobalt::kv::JumpKvStore({seed, 12},
                                 ReplicationSpec{k, SpreadPolicy::kNone});
}

template <>
cobalt::kv::MaglevKvStore make_bench_store<cobalt::kv::MaglevKvStore>(
    std::uint64_t seed, std::size_t k) {
  return cobalt::kv::MaglevKvStore({seed, 12},
                                   ReplicationSpec{k, SpreadPolicy::kNone});
}

template <>
cobalt::kv::BoundedChKvStore make_bench_store<cobalt::kv::BoundedChKvStore>(
    std::uint64_t seed, std::size_t k) {
  return cobalt::kv::BoundedChKvStore({seed, 32, 0.25, 12},
                                      ReplicationSpec{k, SpreadPolicy::kNone});
}

std::string bench_key(std::uint64_t i) {
  return "bench/" + std::to_string(i);
}

template <typename StoreT>
void BM_StorePut(benchmark::State& state) {
  auto store = make_bench_store<StoreT>(42, 1);
  for (int i = 0; i < 16; ++i) store.add_node();
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.put(bench_key(i++), "v"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename StoreT>
void BM_StoreGet(benchmark::State& state) {
  auto store = make_bench_store<StoreT>(43, 1);
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
/// fallback-replica repair pass. range(0) is the repair pool size
/// (1 = the serial engine, no pool attached).
template <typename StoreT, std::size_t kReplication>
void BM_StoreMembershipEvents(benchmark::State& state) {
  constexpr int kJoins = 16;
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::optional<cobalt::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  for (auto _ : state) {
    state.PauseTiming();
    auto store = make_bench_store<StoreT>(44, kReplication);
    if (pool) store.set_thread_pool(&*pool);
    for (std::size_t n = 0; n < 4; ++n) store.add_node();
    for (std::uint64_t i = 0; i < kStoreBenchKeys; ++i) {
      store.put(bench_key(i), "v");
    }
    state.ResumeTiming();
    for (int n = 0; n < kJoins; ++n) store.add_node();
    benchmark::DoNotOptimize(store.stats().replication.rereplication_passes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kJoins);
}

/// A 7:1 get:put mix from T google-benchmark driver threads against
/// one shared shard-concurrent store: gets hit the preloaded keys
/// (structure + one stripe, both shared), puts cycle each thread's
/// private bounded lane (stripe exclusive). The shared store is built
/// once per instantiation (thread-safe local static) so every
/// thread-count cell measures the same resident population.
template <typename StoreT>
void BM_StoreContendedMix(benchmark::State& state) {
  struct Shared {
    StoreT store;
    cobalt::ThreadPool pool;
    Shared() : store(make_bench_store<StoreT>(45, 3)), pool(2) {
      for (int n = 0; n < 8; ++n) store.add_node();
      for (std::uint64_t i = 0; i < kStoreBenchKeys; ++i) {
        store.put(bench_key(i), "v");
      }
      store.set_thread_pool(&pool);
    }
  };
  static Shared shared;
  const int t = state.thread_index();
  Xoshiro256 rng(static_cast<std::uint64_t>(100 + t));
  const std::string lane = "lane" + std::to_string(t) + "/";
  std::uint64_t w = 0;
  for (auto _ : state) {
    if ((++w & 7u) == 0) {
      shared.store.put(lane + std::to_string(w & 1023u), "v");
    } else {
      benchmark::DoNotOptimize(
          shared.store.get(bench_key(rng.next_below(kStoreBenchKeys))));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename StoreT>
void register_store_benches(const char* scheme) {
  const std::string name(scheme);
  benchmark::RegisterBenchmark(("store_put/" + name).c_str(),
                               BM_StorePut<StoreT>);
  benchmark::RegisterBenchmark(("store_get/" + name).c_str(),
                               BM_StoreGet<StoreT>);
  benchmark::RegisterBenchmark(("store_event_k1/" + name).c_str(),
                               BM_StoreMembershipEvents<StoreT, 1>)
      ->ArgName("threads")
      ->Arg(1)
      ->Arg(2)
      ->Arg(4);
  benchmark::RegisterBenchmark(("store_repair_k3/" + name).c_str(),
                               BM_StoreMembershipEvents<StoreT, 3>)
      ->ArgName("threads")
      ->Arg(1)
      ->Arg(2)
      ->Arg(4);
  benchmark::RegisterBenchmark(("store_contended_mix/" + name).c_str(),
                               BM_StoreContendedMix<StoreT>)
      ->Threads(1)
      ->Threads(2)
      ->Threads(4);
}

void register_all_store_benches() {
  register_store_benches<cobalt::kv::KvStore>("local");
  register_store_benches<cobalt::kv::GlobalKvStore>("global");
  register_store_benches<cobalt::kv::ChKvStore>("ch");
  register_store_benches<cobalt::kv::HrwKvStore>("hrw");
  register_store_benches<cobalt::kv::JumpKvStore>("jump");
  register_store_benches<cobalt::kv::MaglevKvStore>("maglev");
  register_store_benches<cobalt::kv::BoundedChKvStore>("bounded-ch");
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
