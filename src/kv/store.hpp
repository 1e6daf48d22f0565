// cobalt/kv/store.hpp
//
// The key-value store: the application-facing layer a cluster service
// would actually use, written once over the PlacementBackend concept
// and instantiated for every placement scheme (the paper's local and
// global balanced-DHT approaches, and the Consistent Hashing reference
// model). This is what makes the paper's comparison an apples-to-apples
// one at the store level: every backend drives the same shard core and
// reports the same movement accounting.
//
// Keys are hashed into R_h and held by the kv::ShardIndex (hash-range
// shards over flat sorted arrays and one byte arena each - see
// shard_index.hpp); the responsible node of a key is *derived* from
// the backend on read,
// so membership changes move no bytes inside the store - only the
// accounting moves, fed by the backend's RelocationObserver events
// (the real cost a deployment would pay in network traffic).
//
// Replication (owner + k-1 successors). Constructed with a replication
// factor k > 1, every write fans out to the backend's replica_set of
// the key's hash: rank 0 is the primary (owner_of), ranks 1..k-1 the
// fallback copies. The store *materializes* the replica set at write
// time and re-derives it after every membership event, so the
// difference between the materialized and the desired set is exactly
// the re-replication traffic a deployment would pay - a channel
// distinct from primary relocation (see the two stats surfaces below).
// The materialized set is stored per *shard*: the store keeps every
// shard inside one replica-set arc (splitting shards at the
// boundaries its repair passes and write path discover), and a key
// whose set differs from its shard's takes a one-byte index into the
// shard's palette of sets instead of the seed's per-bucket replica
// vector. Reads can be
// served by any live materialized replica (read_node_of()); a key
// whose whole materialized replica set dies in one correlated failure
// is counted lost.
//
// Movement accounting is split into two channels, read coherently via
// stats() -> StatsSnapshot (they measure different protocols and must
// not be summed blindly):
//   * stats().relocation  - placement::MigrationStats fed by the
//     backend's RelocationObserver events: keys whose *primary* owner
//     changed.
//     Events are *batched*: the observer callbacks record only the
//     event ranges, and the keys inside them are counted in one
//     deferred pass inside the membership event that fired them,
//     before its repair pass and before any resident key can change
//     (so the totals are exactly the seed's).
//   * stats().replication - ReplicationStats maintained by the store's
//     re-replication passes: key copies created to repair replica
//     sets, and keys lost to correlated failures. At k == 1 the
//     re-replication mass tracks primary relocation (the only copy IS
//     the primary); at k > 1 it additionally counts fallback repair,
//     and a primary handover to a node that already held a fallback
//     copy costs relocation but no re-replication.
//
// Both channels (and the protocol DES built on them) derive from one
// event log: a StoreEventSink registered with set_event_sink() receives
// every relocation batch as it is counted and every repair batch as it
// is priced (see store_events.hpp), so movement accounting,
// re-replication traffic and protocol-cost models agree by
// construction - cluster::ProtocolDriver is the canonical consumer.
//
// Repair passes are *planned*, not scanned: at k == 1 only the ranges
// the event relocated or rebucketed are visited (as in the seed); at
// k > 1 the pass visits only the shards overlapping the backend's
// replica_dirty_ranges() - the concept's guarantee of where fallback
// replicas can have changed - instead of every key in the store.
// ReplicationStats::repair_shards_visited counts the shards each pass
// actually examined (against repair_shards_total as the denominator),
// so "an event that relocated nothing repairs nothing" is observable.
// There is one pass, in two phases. The plan becomes a work list of
// the shards it overlaps, built against the pre-pass tiling. Phase A
// repairs each listed shard under its stripe span: it patches a
// partially covered shard, refreshes an empty one, and regroups a
// fully covered one in place (one arc: adopt its set; narrow arcs:
// adopt the widest, park the rest on overrides), keeping the
// accounting on the shard's task. A merge then adds the per-range sums
// and emits the repair batches in plan order. Phase B only splits: it
// cuts, serially and ascending, the shards whose arcs are wide enough
// to become shards of their own.
//
// One membership path. The backend changes only inside the store's
// membership bracket: exclusive backend hold -> mutation -> dirty
// collection -> relocation flush -> repair pass -> sink end.
// add_node / remove_node / fail_nodes / set_topology run through it,
// and so does every scheme-specific change (vnode-level elasticity,
// enrollment resizes) via mutate(kind, change); backend() is
// read-only. Outside a bracket the materialized sets are therefore
// always aligned with the backend: rank 0 of every resident key is
// owner_of, and no relocation event is pending.
//
// Threading model (opt-in). Without a pool the store is the serial
// data structure above: one thread, no lock taken, no atomics on any
// hot path. Attaching a worker pool (set_thread_pool()) engages the
// locks:
//   * backend_mutex_ (a shared_mutex): membership events hold it
//     exclusively end to end (mutation, dirty collection, relocation
//     flush, repair, sink brackets); every call that reads the backend
//     or must not interleave with an event's accounting holds it
//     shared (put, erase, owner_of, read_node_of, the per-node
//     accounting surfaces, stats snapshots). Point gets and scans
//     never touch it.
//   * ShardIndex locks: one structure lock over the shard tiling plus
//     32 hash-striped content locks (see shard_index.hpp). Point
//     reads take the structure lock shared and one stripe shared;
//     in-shard writers take the shard's stripe span exclusively;
//     structural changes (shard split/merge) take the structure lock
//     exclusively. A get therefore proceeds concurrently against any
//     shard not under repair or mutation.
//   * accounting_mutex_ orders the stats channels between holders of
//     the shared backend lock (concurrent puts, snapshot readers); a
//     membership event needs no extra ordering - its exclusive
//     backend hold already excludes every other accountant.
// Lock order: backend -> accounting -> structure -> stripes
// (ascending). The discipline is compile-checked: every mutex here is
// an annotated wrapper (common/thread_annotations.hpp), every guarded
// field carries GUARDED_BY, and every helper that assumes a held lock
// carries REQUIRES/REQUIRES_SHARED, so clang's -Wthread-safety CI gate
// proves the claims on every build; the acquisition-order DAG itself
// and the ascending-stripe rule - the two things the analysis cannot
// express - are enforced by scripts/check_lock_order.py.
// Every path is one body of code, with or without a pool. Each lock
// is a wrapper that engages only while a pool is attached (sound: a
// store without one is single-threaded by contract), and the pool
// decides only where the heavy passes' tasks run - the repair pass's
// phase A and the relocation flush's range counts run on
// parallel_for with a pool and in a plain loop without one, and both
// merge in plan or event order afterwards. Totals are therefore exact
// under any interleaving, and a store driven by one thread produces
// bit-identical results with and without a pool. Detaching
// (set_thread_pool(nullptr)) disengages the locks again; both switches
// require the store to be externally quiescent. stats() is safe from
// racing threads.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/topology.hpp"
#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "hashing/hash.hpp"
#include "kv/shard_index.hpp"
#include "kv/store_events.hpp"
#include "placement/backend.hpp"
#include "placement/replication_spec.hpp"
#include "placement/bounded_ch_backend.hpp"
#include "placement/ch_backend.hpp"
#include "placement/dht_backend.hpp"
#include "placement/hrw_backend.hpp"
#include "placement/jump_backend.hpp"
#include "placement/maglev_backend.hpp"

namespace cobalt::kv {

/// Cumulative replication accounting: the store's re-replication
/// channel, distinct from the relocation channel
/// (placement::MigrationStats). All counters are key copies / keys,
/// never bytes (except the repair_shards_* pair, which counts shard
/// visits - the cost meter of the planned repair passes).
struct ReplicationStats {
  /// Copies written by put() fan-out: each put writes one copy per
  /// materialized replica (k copies at full replication).
  std::uint64_t replica_writes = 0;

  /// Key copies created by re-replication passes: one per key per node
  /// that entered the key's replica set. This
  /// is the repair traffic of a deployment - the figure-of-merit of
  /// ablation A8.
  std::uint64_t keys_rereplicated = 0;

  /// The slice of keys_rereplicated whose copy crossed a rack (zone)
  /// boundary of the attached cluster::Topology: the donor is the
  /// first live materialized replica (the desired primary for lost
  /// keys, which re-seed from cold storage), the destination the
  /// joining node. Zero without a topology (set_topology()). This is
  /// the cross-rack repair traffic of ablation A12 - multiply by the
  /// deployment's key size for bytes.
  std::uint64_t keys_rereplicated_cross_rack = 0;
  std::uint64_t keys_rereplicated_cross_zone = 0;

  /// Keys whose *entire* materialized replica set was dead at a crash
  /// re-replication pass (fail_nodes): the data-loss window of a
  /// correlated failure. Graceful drains (remove_node) never lose
  /// keys - the departing node cooperates as a copy source. Lost keys
  /// still count into keys_rereplicated (the simulator restores them
  /// so scenarios can continue; a deployment would refetch from cold
  /// storage).
  std::uint64_t keys_lost = 0;

  /// Re-replication passes run (one per membership event through the
  /// store, one per fail_nodes batch).
  std::uint64_t rereplication_passes = 0;

  /// Shards examined across repair passes - the pass-visit counter,
  /// each distinct shard once per pass however many plan ranges touch
  /// it. With range-planned repair this tracks the event's dirty mass:
  /// an event that relocated nothing (e.g. a refused drain) visits
  /// zero shards even at k > 1.
  std::uint64_t repair_shards_visited = 0;

  /// Shards resident at the start of each pass, summed over passes
  /// (the denominator of the visit ratio; a full scan would make
  /// repair_shards_visited equal to this).
  std::uint64_t repair_shards_total = 0;
};

/// One coherent view of both movement-accounting channels, taken
/// under the accounting lock by Store::stats(): the relocation
/// channel (primary-owner moves) and the re-replication channel in a
/// single read, so the two can be compared without a racing mutation
/// landing between two separate reads.
struct StatsSnapshot {
  /// Keys whose primary owner changed (the relocation channel).
  placement::MigrationStats relocation;
  /// Repair copies, correlated-failure losses, cross-rack traffic
  /// (the re-replication channel).
  ReplicationStats replication;
};

/// How read_node_of(key, policy) picks among the live materialized
/// replicas of a key (always in materialized-rank order; rank 0 was
/// the primary at the last repair).
enum class ReadPolicy {
  /// The lowest-ranked live replica - identical to the plain
  /// read_node_of(): reads prefer the primary, falling over to
  /// successors only when it is down.
  kPrimary,
  /// Rotate across the key's live replicas, one step per read (a
  /// store-wide cursor, so interleaved keys still spread).
  kRoundRobin,
  /// The live replica that has served the fewest policy reads so far,
  /// ties broken by replica rank - spreads load away from hot
  /// primaries without a shared cursor.
  kLeastLoaded,
};

/// External per-node load signal for read_node_of(key, kLeastLoaded,
/// probe): returns the instantaneous load of a node (e.g. its serving
/// queue depth in a simulation, or an in-flight request gauge in a
/// deployment). The probe runs under the store's shared backend hold
/// and must not call back into the store.
using NodeLoadProbe = std::function<std::uint64_t(placement::NodeId)>;

/// A KV store over any placement backend.
template <placement::PlacementBackend Backend>
class Store final : private placement::RelocationObserver {
 public:
  using Options = typename Backend::Options;

  /// The backend type this store is instantiated over (so generic
  /// consumers - cluster::ProtocolDriver, the sim drivers - can name
  /// it from the store type alone).
  using BackendType = Backend;

  explicit Store(Options options,
                 hashing::Algorithm algorithm = hashing::Algorithm::kXxh64)
      : Store(std::move(options), placement::ReplicationSpec{}, algorithm) {}

  /// A replicated store under a ReplicationSpec: k copies per key
  /// (clamped to the live node count while the cluster is smaller
  /// than that), spread across the failure domains of the topology
  /// attached with set_topology() per `spec.spread` (kNone ignores
  /// topology and reproduces the raw ranked-walk placement bit for
  /// bit).
  Store(Options options, placement::ReplicationSpec spec,
        hashing::Algorithm algorithm = hashing::Algorithm::kXxh64)
      : backend_(std::move(options)),
        algorithm_(algorithm),
        spec_(spec) {
    COBALT_REQUIRE(spec.k >= 1, "the replication factor must be at least 1");
    backend_.set_observer(this);
  }

  ~Store() override { backend_.set_observer(nullptr); }

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// The configured spread policy (kNone unless constructed with a
  /// ReplicationSpec asking for rack/zone spread).
  [[nodiscard]] placement::SpreadPolicy spread() const { return spec_.spread; }

  /// The full configured spec {k, spread}.
  [[nodiscard]] placement::ReplicationSpec replication_spec() const {
    return spec_;
  }

  /// Attaches (or detaches, nullptr) the failure-domain map consulted
  /// by the spread policy, the cross-rack repair accounting and the
  /// backend's spread filter. The topology is not owned and must
  /// outlive the store or be detached first. Attaching while keys are
  /// resident re-repairs every materialized replica set against the
  /// new map (one full-scan pass, like a membership event); prefer
  /// attaching before the first node. Requires external quiescence
  /// while a pool is attached, like every reconfiguration surface here.
  void set_topology(const cluster::Topology* topology) {
    // Placement depends on the map only under a spread policy at k > 1.
    const bool replaces = spec_.spread != placement::SpreadPolicy::kNone &&
                          spec_.k > 1 && backend_.node_count() > 0;
    membership(MembershipEventKind::kJoin,
               replaces ? Repair::kFull : Repair::kNone,
               [topology](Backend& backend, DirtyRanges&) {
                 backend.set_topology(topology);
               });
  }

  /// The attached topology (null while detached).
  [[nodiscard]] const cluster::Topology* topology() const {
    return backend_.topology();
  }

  /// Attaches a worker pool, which engages the locks and runs the
  /// heavy passes' tasks on the pool (see the threading-model section
  /// of the header comment), or detaches it (nullptr): the same passes
  /// then run inline and no lock is taken. Either switch requires
  /// external quiescence: no other thread may be inside a store call.
  /// The pool must outlive the store or be detached first; it may be
  /// shared with other stores.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// True while a pool is attached (the locks are engaged).
  [[nodiscard]] bool concurrent() const { return pool_ != nullptr; }

  /// Cluster membership. Every completed change is followed by one
  /// re-replication pass that repairs the materialized replica sets
  /// (see stats().replication). remove_node is a *graceful drain*: it
  /// returns false when the scheme refuses the removal (the node
  /// stays; see placement/backend.hpp), and never loses keys. A refused
  /// drain may still have rebalanced internally (the local approach's
  /// aborted decommission), so its pass runs either way.
  placement::NodeId add_node(double capacity = 1.0) {
    return mutate(MembershipEventKind::kJoin, [capacity](Backend& backend) {
      return backend.add_node(capacity);
    });
  }
  bool remove_node(placement::NodeId node) {
    return mutate(MembershipEventKind::kDrain, [node](Backend& backend) {
      return backend.remove_node(node);
    });
  }

  /// Removes `nodes` as one *correlated crash*: all removals are
  /// applied before the single re-replication pass, so keys whose
  /// whole materialized replica set was inside the batch are counted
  /// lost (stats().replication.keys_lost). Refused removals (the local
  /// approach) leave the node alive - its copies still count as
  /// survivors - as do entries the backend cannot remove at all
  /// (already-dead ids, duplicates, or a batch that would empty the
  /// cluster: the last live node always survives). Returns the number
  /// of removals that completed; the repair pass runs regardless.
  std::size_t fail_nodes(std::span<const placement::NodeId> nodes) {
    return membership(
        MembershipEventKind::kCrash, Repair::kPerStep,
        [this, nodes](Backend& backend, DirtyRanges& dirty) {
          std::size_t failed = 0;
          for (const placement::NodeId node : nodes) {
            if (backend.node_count() < 2 || !backend.is_live(node)) continue;
            if (backend.remove_node(node)) ++failed;
            collect_dirty(dirty);
          }
          return failed;
        });
  }

  /// Runs `change(backend)` as one membership event of `kind` and
  /// returns its result - the only way to change the backend, for the
  /// scheme-specific calls the store does not wrap (e.g. the DHT
  /// adapters' add_vnode / remove_vnode / resize_node):
  ///
  ///   store.mutate(kv::MembershipEventKind::kJoin,
  ///                [n](auto& backend) { return backend.add_vnode(n); });
  ///
  /// `change` makes one backend membership call: the repair pass
  /// plans from the backend's dirty report of its last call. kCrash
  /// counts keys whose whole materialized set died as lost. A change
  /// that throws after moving placement is repaired inside a balanced
  /// sink bracket before the exception propagates; one rejected before
  /// it moved anything leaves no event behind.
  template <typename F>
  decltype(auto) mutate(MembershipEventKind kind, F&& change) {
    return membership(
        kind, Repair::kPlanned,
        [&change](Backend& backend, DirtyRanges&) -> decltype(auto) {
          return change(backend);
        });
  }

  /// Inserts or updates; returns true when the key was new. The write
  /// fans out to every node of the key's replica set (replica_writes).
  /// Requires at least one node.
  bool put(const std::string& key, std::string_view value) {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent());
    COBALT_REQUIRE(backend_.node_count() >= 1,
                   "the store needs at least one node before writes");
    const HashIndex h = hash_key(key);
    std::uint64_t writes = 0;
    std::optional<bool> inserted;
    {
      const ShardIndex::StructureSharedLock structure(index_, concurrent());
      const std::size_t i = index_.shard_of(h);
      const ShardIndex::ShardSpanLock span(index_, i, concurrent());
      // A brand-new hash landing in a full shard makes insert() split
      // the shard - a structural change the shared tiling hold cannot
      // cover; everything else stays inside this shard.
      const ShardIndex::Shard& s = index_.shard(i);
      const std::size_t at = s.lower_bound(h, index_.shard_range(i));
      if ((at < s.size() && s.hash(at) == h) ||
          s.distinct_hashes() < ShardIndex::kSplitBuckets) {
        inserted = put_body(i, at, h, key, value, writes);
      }
    }
    if (!inserted) {
      // Structural retry: the tiling may have changed between the two
      // holds (another writer split first), so everything re-derives.
      const ShardIndex::StructureExclusiveLock structure(index_,
                                                         concurrent());
      const std::size_t i = index_.shard_of(h);
      inserted = put_body(i, index_.shard(i).lower_bound(
                                 h, index_.shard_range(i)),
                          h, key, value, writes);
    }
    {
      const MaybeLockGuard acc(accounting_mutex_, concurrent());
      replication_stats_.replica_writes += writes;
    }
    return *inserted;
  }

  /// Point lookup. With a pool attached this locks one stripe shared:
  /// reads proceed against every shard not under repair or mutation.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    return with_entry(key, std::optional<std::string>{},
                      [](const ShardIndex::Shard& s, std::size_t pos) {
                        return std::optional<std::string>(s.value(pos));
                      });
  }

  /// Deletes; returns true when the key existed.
  bool erase(const std::string& key) {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent());
    const HashIndex h = hash_key(key);
    {
      const ShardIndex::StructureSharedLock structure(index_, concurrent());
      const std::size_t i = index_.shard_of(h);
      const ShardIndex::ShardSpanLock span(index_, i, concurrent());
      const std::size_t pos =
          index_.shard(i).find(h, key, index_.shard_range(i));
      if (pos == ShardIndex::npos) return false;
      // Removing a shard's last entry merges it away - structural;
      // retry below.
      if (index_.shard(i).size() > 1) {
        index_.erase_in_shard(i, pos);
        return true;
      }
    }
    const ShardIndex::StructureExclusiveLock structure(index_, concurrent());
    const std::size_t i = index_.shard_of(h);
    const std::size_t pos =
        index_.shard(i).find(h, key, index_.shard_range(i));
    if (pos == ShardIndex::npos) return false;
    index_.erase(i, pos);
    return true;
  }

  /// Total keys stored.
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(index_.total_entries());
  }

  /// The node currently responsible for `key` (replica rank 0).
  [[nodiscard]] placement::NodeId owner_of(const std::string& key) const {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent());
    COBALT_REQUIRE(backend_.node_count() >= 1, "the store has no nodes");
    return backend_.owner_of(hash_key(key));
  }

  /// The materialized replica set currently holding `key`, in rank
  /// order (element 0 was the primary when the set was last repaired).
  /// Empty when the key is not stored.
  [[nodiscard]] std::vector<placement::NodeId> replicas_of(
      const std::string& key) const {
    return with_entry(key, std::vector<placement::NodeId>{},
                      [](const ShardIndex::Shard& s, std::size_t pos) {
                        const ShardIndex::ReplicaSet replicas =
                            s.replicas(pos);
                        return std::vector<placement::NodeId>(
                            replicas.begin(), replicas.end());
                      });
  }

  /// A node that can serve a read of `key`: the lowest-ranked live
  /// materialized replica (reads prefer the primary and fall over to
  /// successors). kInvalidNode when the key is not stored or no
  /// materialized replica is live (a data-loss window between a crash
  /// and its repair pass).
  [[nodiscard]] placement::NodeId read_node_of(const std::string& key) const {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent());
    return with_entry(key, placement::kInvalidNode,
                      [this](const ShardIndex::Shard& s, std::size_t pos) {
                        for (const placement::NodeId node : s.replicas(pos)) {
                          if (backend_.is_live(node)) return node;
                        }
                        return placement::kInvalidNode;
                      });
  }

  /// A node that can serve a read of `key` under a balancing `policy`
  /// (see ReadPolicy): the candidates are the key's live materialized
  /// replicas in rank order, exactly as the plain overload sees them.
  /// The round-robin cursor and per-node served-read loads are
  /// maintained only by this overload, so the plain read path stays
  /// state-free.
  [[nodiscard]] placement::NodeId read_node_of(const std::string& key,
                                               ReadPolicy policy) const {
    return read_node_of(key, policy, NodeLoadProbe{});
  }

  /// Same as above with an external load `probe`: when set,
  /// kLeastLoaded ranks the live replicas by the probe's instantaneous
  /// load (e.g. serving queue depth) instead of the store's cumulative
  /// served-read counters, ties broken by replica rank as before. The
  /// other policies ignore the probe. Every policy read still counts
  /// into the per-node served-read loads.
  [[nodiscard]] placement::NodeId read_node_of(
      const std::string& key, ReadPolicy policy,
      const NodeLoadProbe& probe) const {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent());
    static thread_local std::vector<placement::NodeId> live;
    live.clear();
    with_entry(key, false, [this](const ShardIndex::Shard& s,
                                  std::size_t pos) {
      for (const placement::NodeId node : s.replicas(pos)) {
        if (backend_.is_live(node)) live.push_back(node);
      }
      return true;
    });
    if (live.empty()) return placement::kInvalidNode;
    if (policy == ReadPolicy::kPrimary) return live.front();
    placement::NodeId chosen = live.front();
    if (policy == ReadPolicy::kLeastLoaded && probe) {
      // Probe outside the policy mutex: the callback is user code.
      std::uint64_t best = probe(chosen);
      for (std::size_t rank = 1; rank < live.size(); ++rank) {
        const std::uint64_t load = probe(live[rank]);
        if (load < best) {
          best = load;
          chosen = live[rank];
        }
      }
      const MaybeLockGuard guard(read_policy_mutex_, concurrent());
      if (reads_served_.size() <= chosen) reads_served_.resize(chosen + 1, 0);
      ++reads_served_[chosen];
      return chosen;
    }
    const MaybeLockGuard guard(read_policy_mutex_, concurrent());
    if (policy == ReadPolicy::kRoundRobin) {
      chosen = live[static_cast<std::size_t>(read_rr_cursor_++) %
                    live.size()];
    } else {
      for (const placement::NodeId node : live) {
        if (read_load(node) < read_load(chosen)) chosen = node;
      }
    }
    if (reads_served_.size() <= chosen) reads_served_.resize(chosen + 1, 0);
    ++reads_served_[chosen];
    return chosen;
  }

  /// Keys currently resident per *primary* node (index = NodeId;
  /// departed nodes report 0). Replica copies are not counted; see
  /// replica_copies_per_node() for the serving footprint.
  [[nodiscard]] std::vector<std::size_t> keys_per_node() const {
    return copies_per_node(1);
  }

  /// Key *copies* resident per node under the materialized replica
  /// sets (a node holds a copy of every key whose replica set lists
  /// it). Sums to size() x k at full replication.
  [[nodiscard]] std::vector<std::size_t> replica_copies_per_node() const {
    return copies_per_node(spec_.k);
  }

  /// Visits every (key, value) pair in hash-range order (order among
  /// colliding keys is unspecified).
  void for_each(const std::function<void(const std::string& key,
                                         const std::string& value)>& visit)
      const {
    const ShardIndex::StructureSharedLock structure(index_, concurrent());
    const ShardIndex::AllStripesSharedLock stripes(index_, concurrent());
    Visitor visitor{visit};
    for (const ShardIndex::Shard& s : index_.shards()) {
      for (std::size_t pos = 0; pos < s.size(); ++pos) visitor(s, pos);
    }
  }

  /// Visits the pairs a single node is *primary* for. Uniform shards
  /// whose materialized primary is another node are skipped without
  /// touching their entries.
  void for_each_on_node(
      placement::NodeId node,
      const std::function<void(const std::string& key,
                               const std::string& value)>& visit) const {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent());
    COBALT_REQUIRE(node < backend_.node_slot_count(), "unknown node id");
    const ShardIndex::StructureSharedLock structure(index_, concurrent());
    const ShardIndex::AllStripesSharedLock stripes(index_, concurrent());
    Visitor visitor{visit};
    for (const ShardIndex::Shard& s : index_.shards()) {
      if (s.empty()) continue;
      const bool uniform = s.override_count() == 0;
      if (uniform && s.replicas().front() != node) continue;  // skip the shard
      for (std::size_t pos = 0; pos < s.size(); ++pos) {
        if (uniform || s.replicas(pos).front() == node) visitor(s, pos);
      }
    }
  }

  /// Visits every resident (key, value) whose hash falls inside
  /// [first, last], in ascending hash order (order among colliding keys
  /// is unspecified) - the range scan riding the sorted hash arrays.
  /// With a pool attached each shard is read under its stripe span
  /// held shared, so the scan never blocks point reads and is
  /// consistent per shard (a concurrent writer may land between
  /// shards; quiesce for a full snapshot).
  void scan(HashIndex first, HashIndex last,
            const std::function<void(const std::string& key,
                                     const std::string& value)>& visit)
      const {
    if (first > last) return;
    const ShardIndex::StructureSharedLock structure(index_, concurrent());
    Visitor visitor{visit};
    for (std::size_t i = index_.shard_of(first);
         i < index_.shard_count() && index_.shard_first(i) <= last; ++i) {
      const ShardIndex::ShardSpanSharedLock span(index_, i, concurrent());
      const ShardIndex::Shard& s = index_.shard(i);
      for (std::size_t pos = s.lower_bound(first, index_.shard_range(i));
           pos < s.size() && s.hash(pos) <= last; ++pos) {
        visitor(s, pos);
      }
    }
  }

  /// Keys whose hash falls inside [first, last] (a placement probe;
  /// used by rebalancing tooling and tests).
  [[nodiscard]] std::size_t keys_in_range(HashIndex first,
                                          HashIndex last) const {
    const ShardIndex::StructureSharedLock structure(index_, concurrent());
    const ShardIndex::AllStripesSharedLock stripes(index_, concurrent());
    return static_cast<std::size_t>(index_.count_range(first, last));
  }

  /// Both movement-accounting channels in one coherent read: the
  /// shared backend hold waits out an in-flight membership event (so
  /// no event is counted into one channel but not yet the other), and
  /// both structs are copied under a single accounting hold - safe
  /// from any thread while a pool is attached, and the two channels are
  /// guaranteed to describe the same instant.
  [[nodiscard]] StatsSnapshot stats() const {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent());
    const MaybeLockGuard acc(accounting_mutex_, concurrent());
    return {relocation_stats_, replication_stats_};
  }

  /// Registers (or clears, with nullptr) the store event sink: the
  /// counted relocation/repair batch stream the protocol DES consumes
  /// (see store_events.hpp). The sink must outlive the store or be
  /// cleared first. A sink attached after membership changes only sees
  /// the events from its attachment on; attach before the first node
  /// for totals that match the stats channels bit for bit. With a pool
  /// attached, attach while quiescent (like set_thread_pool); batches
  /// are always emitted serially and in order.
  void set_event_sink(StoreEventSink* sink) { event_sink_ = sink; }

  /// The shard index (read-only structural introspection: shard
  /// count, per-shard replica sets, split/merge behaviour). Not
  /// synchronized - introspect quiescently while a pool is attached.
  [[nodiscard]] const ShardIndex& shard_index() const { return index_; }

  /// The placement backend, read-only (scheme-specific queries: the
  /// DHT adapters expose the balancer, the CH adapter the ring).
  /// Changes go through mutate().
  [[nodiscard]] const Backend& backend() const { return backend_; }

 private:
  /// The k > 1 repair plan of one membership event: the backends'
  /// replica_dirty_ranges, one collection per backend call.
  using DirtyRanges = std::vector<placement::HashRange>;

  /// How a membership bracket plans its repair pass.
  enum class Repair {
    kPlanned,  ///< the dirty report of the change's one backend call
    kPerStep,  ///< the change collected a report after each call
    kFull,     ///< every resident key (the placement rule changed)
    kNone,     ///< placement unchanged: no pass, no sink bracket
  };

  /// The one membership bracket: under the exclusive backend hold, runs
  /// `change(backend_, dirty)` and completes the event (see
  /// complete_membership) - the sink bracket opens only after the
  /// change returned.
  template <typename F>
  auto membership(MembershipEventKind kind, Repair repair, F&& change)
      -> std::invoke_result_t<F&, Backend&, DirtyRanges&> {
    const MaybeUniqueLock backend_lock(backend_mutex_, concurrent());
    DirtyRanges dirty;
    if constexpr (std::is_void_v<
                      std::invoke_result_t<F&, Backend&, DirtyRanges&>>) {
      run_change(kind, repair, dirty, [&] { change(backend_, dirty); });
      complete_membership(kind, repair, dirty);
    } else {
      auto result = run_change(kind, repair, dirty,
                               [&] { return change(backend_, dirty); });
      complete_membership(kind, repair, dirty);
      return result;
    }
  }

  /// Runs the change of a bracket. A change that throws after moving
  /// placement (relocation events or collected ranges pending) still
  /// completes its event - balanced, repaired - before the exception
  /// propagates; one rejected up front leaves no event behind.
  template <typename Run>
  decltype(auto) run_change(MembershipEventKind kind, Repair repair,
                            DirtyRanges& dirty, Run&& run)
      COBALT_REQUIRES(backend_mutex_) {
    try {
      return run();
    } catch (...) {
      if (!pending_events_.empty() || !dirty.empty()) {
        // The throwing call's own report: a per-step change had no
        // chance to collect it.
        if (repair == Repair::kPerStep) collect_dirty(dirty);
        complete_membership(kind, repair, dirty);
      }
      throw;
    }
  }

  /// The event tail of the bracket: dirty collection (kPlanned), sink
  /// begin, relocation flush, repair pass, sink end.
  void complete_membership(MembershipEventKind kind, Repair repair,
                           DirtyRanges& dirty)
      COBALT_REQUIRES(backend_mutex_) {
    if (repair == Repair::kNone) return;
    if (repair == Repair::kPlanned) collect_dirty(dirty);
    if (event_sink_ != nullptr) event_sink_->on_membership_begin(kind);
    rereplicate(kind == MembershipEventKind::kCrash, repair == Repair::kFull,
                dirty);
    if (event_sink_ != nullptr) event_sink_->on_membership_end();
  }

  /// One not-yet-counted relocation event (the batched accounting:
  /// callbacks record, flush_relocations() counts).
  struct PendingEvent {
    HashIndex first;
    HashIndex last;
    placement::NodeId from;
    placement::NodeId to;
    bool rebucket;
  };

  /// Per-task repair accounting: the per-range counters a repair walk
  /// accumulates. Each task fills its own instance; the merge adds them
  /// into ReplicationStats in plan order, so the totals are the same
  /// whether the tasks ran inline or on the pool, in any order.
  struct RepairAcc {
    std::uint64_t copies = 0;
    std::uint64_t lost = 0;
    std::uint64_t cross_rack = 0;
    std::uint64_t cross_zone = 0;

    void add(const RepairAcc& other) {
      copies += other.copies;
      lost += other.lost;
      cross_rack += other.cross_rack;
      cross_zone += other.cross_zone;
    }
  };

  /// One run of consecutive entries sharing a desired replica set
  /// (computed by a repair visit before any structural change).
  struct DesiredRun {
    HashIndex first_hash;  // hash of the run's first entry
    std::size_t entries;
    std::vector<placement::NodeId> replicas;
  };

  /// One plan range's slice of one shard (see repair_plan).
  struct SpanWork {
    std::size_t range_id;
    RepairAcc acc;
  };

  /// One shard's repair task: its spans, [first_span, end_span) of the
  /// pass's span list, and the desired-set runs phase B splits the
  /// shard at (empty unless the shard splits).
  struct ShardWork {
    std::size_t shard;
    std::size_t first_span;
    std::size_t end_span;
    std::vector<DesiredRun> split;
  };

  [[nodiscard]] HashIndex hash_key(const std::string& key) const {
    return hashing::hash_bytes(algorithm_, key.data(), key.size());
  }

  /// Hands arena entries to a (key, value) callback as std::strings,
  /// reusing two buffers across one walk.
  struct Visitor {
    using Visit = std::function<void(const std::string&, const std::string&)>;

    explicit Visitor(const Visit& visit) : visit(visit) {}

    const Visit& visit;
    std::string key;
    std::string value;

    void operator()(const ShardIndex::Shard& s, std::size_t pos) {
      key.assign(s.key(pos));
      value.assign(s.value(pos));
      visit(key, value);
    }
  };

  /// k clamped to the live node count (replica_set cannot return more
  /// distinct nodes than exist - and asking for fewer keeps the grid
  /// walks from scanning a full circle on small clusters).
  [[nodiscard]] std::size_t replica_target() const {
    const std::size_t live = backend_.node_count();
    return spec_.k < live ? spec_.k : live;
  }

  /// The desired replica set of hash `h` at the clamped `target`,
  /// under the store's spread policy: the single funnel every write
  /// and repair walk derives placement through. With SpreadPolicy::
  /// kNone the backend delegates to its raw ranked walk verbatim, so
  /// non-spread stores place bit-identically to the pre-topology code.
  void desired_replicas_into(HashIndex h, std::size_t target,
                             std::vector<placement::NodeId>& out) const {
    backend_.replica_set_into(h, spec_.with_k(target), out);
  }

  /// Served-read count of `node` under the balancing policies (zero
  /// until the node's first policy read).
  [[nodiscard]] std::uint64_t read_load(placement::NodeId node) const
      COBALT_REQUIRES(read_policy_mutex_) {
    return node < reads_served_.size() ? reads_served_[node] : 0;
  }

  /// The read preamble shared by get, replicas_of and read_node_of:
  /// hashes `key`, finds its entry under the shared structure hold and
  /// the entry's stripe held shared, and returns `use(shard, pos)` -
  /// or `missing` when the key is not stored.
  template <typename R, typename Use>
  R with_entry(const std::string& key, R missing, Use&& use) const {
    const HashIndex h = hash_key(key);
    const ShardIndex::StructureSharedLock structure(index_, concurrent());
    const std::size_t i = index_.shard_of(h);
    const ShardIndex::StripeSharedLock stripe(index_, h, concurrent());
    const ShardIndex::Shard& s = index_.shard(i);
    const std::size_t pos = s.find(h, key, index_.shard_range(i));
    if (pos == ShardIndex::npos) return missing;
    return use(s, pos);
  }

  /// Copies of resident keys per node, counting the first `ranks`
  /// replicas of each materialized set (1: primaries only). One count
  /// per (shard, rank) when the shard carries no override - the
  /// materialized sets are per shard by construction.
  [[nodiscard]] std::vector<std::size_t> copies_per_node(
      std::size_t ranks) const {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent());
    const ShardIndex::StructureSharedLock structure(index_, concurrent());
    const ShardIndex::AllStripesSharedLock stripes(index_, concurrent());
    std::vector<std::size_t> counts(backend_.node_slot_count(), 0);
    const auto count = [&counts, ranks](ShardIndex::ReplicaSet set,
                                        std::size_t copies) {
      for (const placement::NodeId node :
           set.first(std::min(ranks, set.size()))) {
        counts.at(node) += copies;
      }
    };
    for (const ShardIndex::Shard& s : index_.shards()) {
      if (s.empty()) continue;
      if (s.override_count() == 0) {  // one arc, one check per rank
        count(s.replicas(), s.size());
        continue;
      }
      for (std::size_t pos = 0; pos < s.size(); ++pos) {
        count(s.replicas(pos), 1);
      }
    }
    return counts;
  }

  /// The write path proper: everything after the hash, against shard
  /// `i`, whose lower_bound of `h` the caller found at `at`. The
  /// claims encode the adequate cover: either the shard's stripe span
  /// with no split possible, or the exclusive structure lock (which
  /// carries the stripe capability). `writes` receives the replica
  /// fan-out (the caller adds it to the stats under its own
  /// accounting rules).
  bool put_body(std::size_t i, std::size_t at, HashIndex h,
                std::string_view key, std::string_view value,
                std::uint64_t& writes)
      COBALT_REQUIRES_SHARED(backend_mutex_, index_.structure_mutex_)
          COBALT_REQUIRES(index_.stripes_cap_) {
    static thread_local std::vector<placement::NodeId> scratch;
    const ShardIndex::Shard& s = index_.shard(i);
    if (at == s.size() || s.hash(at) != h) {
      // A new hash materializes its replica set now, exactly like the
      // seed's first-put materialization: when the derived set matches
      // the shard's it costs nothing per entry; otherwise the shard
      // straddles an arc boundary a repair pass has not regrouped yet
      // and the entry takes an override (dissolved by the next repair
      // of the range).
      desired_replicas_into(h, replica_target(), scratch);
      writes += scratch.size();
      index_.insert(i, h, key, value, scratch);
      return true;
    }
    writes += s.replicas(at).size();
    const std::size_t pos = s.find_from(at, h, key);
    if (pos != ShardIndex::npos) {
      index_.assign(i, pos, value);
      return false;
    }
    // A colliding key shares its hash's set (copied: the insert may
    // grow the palette the view points into).
    const ShardIndex::ReplicaSet shared = s.replicas(at);
    scratch.assign(shared.begin(), shared.end());
    index_.insert(i, h, key, value, scratch);
    return true;
  }

  /// Runs `task(t)` for every t in [0, count): on the attached pool
  /// when there is one and more than one task, in a plain loop
  /// otherwise. The heavy passes' only use of the pool.
  template <typename Task>
  void run_tasks(std::size_t count, const Task& task) const {
    if (pool_ != nullptr && count > 1) {
      parallel_for(*pool_, count, task);
    } else {
      for (std::size_t t = 0; t < count; ++t) task(t);
    }
  }

  /// Counts the keys inside the pending relocation events, in event
  /// order. Runs inside the membership bracket that fired them, before
  /// its repair pass (the exclusive backend hold keeps every writer
  /// out), so every event is counted against exactly the key
  /// population it found when it fired - the seed's per-event
  /// count_range, batched. The ranges are counted as tasks (see
  /// run_tasks; counting mutates nothing), then applied and emitted in
  /// event order - the same totals and sink stream either way.
  void flush_relocations() COBALT_REQUIRES(backend_mutex_) {
    if (pending_events_.empty()) return;
    const MaybeLockGuard acc(accounting_mutex_, concurrent());
    std::vector<std::uint64_t> keys(pending_events_.size());
    {
      const ShardIndex::StructureSharedLock structure(index_, concurrent());
      const ShardIndex::AllStripesSharedLock stripes(index_, concurrent());
      run_tasks(keys.size(), [this, &keys](std::size_t e) {
        count_pending_range(e, keys);
      });
    }
    for (std::size_t e = 0; e < keys.size(); ++e) {
      count_relocation(pending_events_[e], keys[e]);
    }
    pending_events_.clear();
  }

  /// Counts one pending event's range, as a task of the flush. A task
  /// on a pool worker runs under the flushing caller's shared
  /// structure and all-stripes holds (parallel_for keeps the caller
  /// blocked until the barrier) - a cross-thread cover outside the
  /// analysis' thread-local model, hence the suppression. The walk
  /// takes no locks and mutates nothing.
  void count_pending_range(std::size_t e, std::vector<std::uint64_t>& keys)
      const COBALT_NO_THREAD_SAFETY_ANALYSIS {
    keys[e] = index_.count_range(pending_events_[e].first,
                                 pending_events_[e].last);
  }

  /// Applies one counted relocation event to the stats channel and the
  /// sink.
  void count_relocation(const PendingEvent& event, std::uint64_t keys)
      COBALT_REQUIRES(accounting_mutex_) {
    if (event.rebucket) {
      relocation_stats_.keys_rebucketed += keys;
    } else {
      relocation_stats_.keys_moved_total += keys;
      if (event.from != event.to) {
        relocation_stats_.keys_moved_across_nodes += keys;
      }
    }
    // The sink sees exactly what the stats channel counted - same
    // ranges, same pre-mutation key population - so a protocol model
    // summing these batches reproduces MigrationStats bit for bit.
    if (event_sink_ != nullptr) {
      event_sink_->on_relocation_batch(event.first, event.last, event.from,
                                       event.to, keys, event.rebucket);
    }
  }

  /// Appends the backend's dirty report for the membership call that
  /// just ran to `dirty` (k > 1 only; the k == 1 plan is exactly the
  /// relocated/rebucketed ranges the observer recorded).
  void collect_dirty(DirtyRanges& dirty) const {
    if (spec_.k == 1) return;
    const auto ranges =
        backend_.replica_dirty_ranges(spec_.with_k(replica_target()));
    dirty.insert(dirty.end(), ranges.begin(), ranges.end());
  }

  /// The repair pass: flushes the event's relocation batches, then
  /// re-derives the materialized replica sets inside the planned
  /// ranges and counts the copies a deployment would transfer to get
  /// from the materialized sets to the desired ones. The plan is the
  /// event's ownership-changing ranges at k == 1 and its `dirty`
  /// reports at k > 1; `full` (or a change of the clamped replica
  /// target - the cluster crossing size k invalidates every
  /// materialized set size) makes it the plan [0, kMaxIndex] through
  /// the same pass. With `crash` set, a key whose materialized set
  /// has no live survivor is counted lost. repair_plan runs the plan.
  ///
  /// The whole pass runs under the accounting lock while a pool is
  /// attached (uncontended: the exclusive backend hold already
  /// excludes every other accountant - the lock is for the analysis).
  void rereplicate(bool crash, bool full, DirtyRanges& dirty)
      COBALT_REQUIRES(backend_mutex_) {
    std::vector<placement::HashRange> plan;
    if (spec_.k == 1) {
      // A buddy merge may hand the odd half over *implicitly* (the DHT
      // adapters account that as rebucketing, not movement - see
      // dht_backend.hpp), so rebucketed ranges are checked too (for
      // pure splits the check is a no-op).
      for (const PendingEvent& event : pending_events_) {
        if (event.rebucket || event.from != event.to) {
          plan.push_back({event.first, event.last});
        }
      }
    }
    flush_relocations();
    if (backend_.node_count() == 0) return;
    const MaybeLockGuard acc_lock(accounting_mutex_, concurrent());
    ++replication_stats_.rereplication_passes;
    {
      const ShardIndex::StructureSharedLock structure(index_, concurrent());
      replication_stats_.repair_shards_total += index_.shard_count();
    }
    const std::size_t target = replica_target();
    if (spec_.k > 1) {
      full = full || target != last_repair_target_;
      if (!full) plan = std::move(dirty);
    }
    last_repair_target_ = target;

    if (full) {
      plan.assign(1, {0, HashSpace::kMaxIndex});
    } else {
      placement::coalesce_ranges(plan);
      if (plan.empty()) {
        // Nothing can have changed: the pass costs nothing - the
        // refused-drain / no-op-event fast exit of the shard design.
        return;
      }
    }
    repair_plan(plan, target, crash);
  }

  /// The repair pass over a coalesced `plan` (the surrounding
  /// membership call holds backend_mutex_ exclusively, so no writer
  /// can race it). The plan becomes one task per shard it overlaps,
  /// listed against the pre-pass tiling. Phase A runs the tasks (see
  /// run_tasks): each does all in-shard work on its shard under the
  /// shard's stripe span, with the accounting kept on the task, while
  /// point reads keep flowing through every other shard. The merge
  /// then adds the per-range sums into ReplicationStats and emits the
  /// repair batches in plan order - integer sums over disjoint shards
  /// commute, so the order the tasks ran in cannot show. Phase B splits
  /// the shards phase A left runs for, serially and ascending under
  /// the exclusive structure lock; splits stay inside their own shard,
  /// so a running index offset is the only cross-shard effect.
  void repair_plan(const std::vector<placement::HashRange>& plan,
                   std::size_t target, bool crash)
      COBALT_REQUIRES(backend_mutex_, accounting_mutex_) {
    // Ranges are disjoint and ascending, so the (range, shard) spans
    // come out in plan order and each shard's spans are adjacent. A
    // shard overlapping several ranges is listed once and walked in
    // range order over each range's own span - no entry repairs twice,
    // the shard counts as one visit, and an empty one refreshes its set
    // once per pass.
    std::vector<SpanWork> spans;
    std::vector<ShardWork> work;
    {
      const ShardIndex::StructureSharedLock structure(index_, concurrent());
      for (std::size_t r = 0; r < plan.size(); ++r) {
        for (std::size_t i = index_.shard_of(plan[r].first);
             i < index_.shard_count() &&
             index_.shard_first(i) <= plan[r].last;
             ++i) {
          if (work.empty() || work.back().shard != i) {
            work.push_back({i, spans.size(), spans.size(), {}});
          }
          spans.push_back({r, {}});
          ++work.back().end_span;
        }
      }
    }
    replication_stats_.repair_shards_visited += work.size();
    run_tasks(work.size(), [this, &plan, &work, &spans, target, crash](
                               std::size_t t) {
      ShardWork& task = work[t];
      repair_shard_task(task, plan,
                        std::span<SpanWork>(spans).subspan(
                            task.first_span, task.end_span - task.first_span),
                        target, crash);
    });
    // The spans are in plan order: one sweep sums each range's.
    for (std::size_t r = 0, next = 0; r < plan.size(); ++r) {
      RepairAcc acc;
      for (; next < spans.size() && spans[next].range_id == r; ++next) {
        acc.add(spans[next].acc);
      }
      replication_stats_.keys_rereplicated += acc.copies;
      replication_stats_.keys_rereplicated_cross_rack += acc.cross_rack;
      replication_stats_.keys_rereplicated_cross_zone += acc.cross_zone;
      replication_stats_.keys_lost += acc.lost;
      emit_repair_batch(plan[r].first, plan[r].last, acc.copies, acc.lost,
                        target);
    }
    const ShardIndex::StructureExclusiveLock structure(index_, concurrent());
    std::size_t offset = 0;
    for (const ShardWork& task : work) {
      if (task.split.empty()) continue;
      split_at_runs(task.shard + offset, task.split);
      offset += task.split.size() - 1;
    }
  }

  /// One shard's phase-A repair, as a task of repair_plan: takes its
  /// own shared structure hold and the shard's stripe span, walks the
  /// shard's `spans` of the `plan` and makes every in-shard change -
  /// patches, the refresh of an empty shard, the regroup of a fully
  /// covered shard that does not split - leaving the accounting on the
  /// spans (the merge reads it after the last task) and the runs of a
  /// shard that splits on task.split. The task reads the backend
  /// without a claim: the coordinating membership thread holds
  /// backend_mutex_ exclusively for the whole pass, so the backend is
  /// frozen.
  void repair_shard_task(ShardWork& task,
                         const std::vector<placement::HashRange>& plan,
                         std::span<SpanWork> spans, std::size_t target,
                         bool crash) {
    static thread_local std::vector<placement::NodeId> scratch;
    static thread_local std::vector<DesiredRun> runs;
    const ShardIndex::StructureSharedLock structure(index_, concurrent());
    const ShardIndex::ShardSpanLock span(index_, task.shard, concurrent());
    ShardIndex::Shard& s = index_.shard(task.shard);
    if (s.empty()) {
      // Nothing to account; refresh the shard's set once, so future
      // puts in this shard usually match it.
      desired_replicas_into(index_.shard_first(task.shard), target, scratch);
      s.adopt(scratch);
      return;
    }
    const placement::HashRange bounds = index_.shard_range(task.shard);
    for (SpanWork& sp : spans) {
      const placement::HashRange& range = plan[sp.range_id];
      if (range.first > bounds.first || range.last < bounds.last) {
        patch_shard(s, bounds, range, target, crash, scratch, sp.acc);
        continue;
      }
      // Full coverage: a fully covered shard lies inside its range, so
      // this is always the task's only span.
      runs.clear();
      compute_runs(s, target, crash, scratch, runs, sp.acc);
      if (runs.size() > 1 &&
          s.distinct_hashes() >= runs.size() * ShardIndex::kMinArcBuckets) {
        task.split = std::move(runs);
      } else {
        regroup_shard(s, runs);
      }
    }
  }

  /// Reports one repaired plan range to the event sink: the copies and
  /// losses its shard walk just accumulated. Ranges that repaired
  /// nothing are silent, so a no-op event produces no protocol round.
  void emit_repair_batch(HashIndex first, HashIndex last,
                         std::uint64_t copies, std::uint64_t lost,
                         std::size_t target) {
    if (event_sink_ == nullptr) return;
    if (copies == 0 && lost == 0) return;
    event_sink_->on_repair_batch(first, last, copies, lost, target);
  }

  /// Repair accounting of the `entries` keys at one hash (identical to
  /// the seed's repair_bucket): counts lost keys at a crash and the
  /// repair copies from the materialized set to `desired` into the
  /// caller's accumulator. With a topology attached, each joiner's copy is
  /// additionally classified cross-rack/cross-zone against its donor:
  /// the first live materialized replica, or the desired primary when
  /// no replica survived (the lost key re-seeds from cold storage at
  /// its new primary and then fans out from there).
  void account_repair(std::uint64_t entries,
                      ShardIndex::ReplicaSet materialized,
                      ShardIndex::ReplicaSet desired, bool crash,
                      RepairAcc& acc) const {
    if (crash) {
      const bool survived = std::any_of(
          materialized.begin(), materialized.end(),
          [&](placement::NodeId node) { return backend_.is_live(node); });
      if (!survived) {
        acc.lost += entries;
      }
    }
    const cluster::Topology* const topology = backend_.topology();
    placement::NodeId donor = placement::kInvalidNode;
    if (topology != nullptr) {
      for (const placement::NodeId node : materialized) {
        if (backend_.is_live(node)) {
          donor = node;
          break;
        }
      }
      if (donor == placement::kInvalidNode && !desired.empty()) {
        donor = desired.front();
      }
    }
    std::uint64_t joiners = 0;
    for (const placement::NodeId node : desired) {
      if (std::find(materialized.begin(), materialized.end(), node) !=
          materialized.end()) {
        continue;
      }
      ++joiners;
      if (donor != placement::kInvalidNode && node != donor) {
        if (!topology->same_rack(donor, node)) acc.cross_rack += entries;
        if (!topology->same_zone(donor, node)) acc.cross_zone += entries;
      }
    }
    acc.copies += joiners * entries;
  }

  /// Partial-coverage repair: patches only the entries of `s` (whose
  /// tiling range is `bounds`) inside `range` (exactly the seed's
  /// ranged k = 1 walk), parking changed sets on overrides - no
  /// structural change. Claims the shard's stripe span exclusively
  /// (via the stripe capability).
  void patch_shard(ShardIndex::Shard& s, placement::HashRange bounds,
                   placement::HashRange range, std::size_t target,
                   bool crash, std::vector<placement::NodeId>& scratch,
                   RepairAcc& acc)
      COBALT_REQUIRES_SHARED(index_.structure_mutex_)
          COBALT_REQUIRES(index_.stripes_cap_) {
    for (std::size_t pos = s.lower_bound(range.first, bounds), end = 0;
         pos < s.size() && s.hash(pos) <= range.last; pos = end) {
      end = s.run_end(pos);
      const ShardIndex::ReplicaSet materialized = s.replicas(pos);
      desired_replicas_into(s.hash(pos), target, scratch);
      if (std::ranges::equal(scratch, materialized)) continue;
      account_repair(end - pos, materialized, scratch, crash, acc);
      s.set_replicas(pos, end, scratch);
    }
  }

  /// Full-coverage repair, computation half: accounts every entry of
  /// `s` and appends its desired-run structure to `runs` (read-only on
  /// the shard; regroup_shard() and split_at_runs() are the mutation
  /// halves).
  void compute_runs(const ShardIndex::Shard& s, std::size_t target,
                    bool crash, std::vector<placement::NodeId>& scratch,
                    std::vector<DesiredRun>& runs, RepairAcc& acc) const
      COBALT_REQUIRES_SHARED(index_.structure_mutex_, index_.stripes_cap_) {
    for (std::size_t pos = 0, end = 0; pos < s.size(); pos = end) {
      end = s.run_end(pos);
      const ShardIndex::ReplicaSet materialized = s.replicas(pos);
      desired_replicas_into(s.hash(pos), target, scratch);
      if (!std::ranges::equal(scratch, materialized)) {
        account_repair(end - pos, materialized, scratch, crash, acc);
      }
      if (runs.empty() || scratch != runs.back().replicas) {
        runs.push_back({s.hash(pos), 0, scratch});
      }
      runs.back().entries += end - pos;
    }
  }

  /// Full-coverage repair, in-shard half (phase A): regroups `s` by
  /// its desired-set `runs` when they do not split it. One run: the
  /// shard is one arc; it adopts the set and drops its overrides. Many
  /// narrow runs (cell-grained schemes): the widest run's set becomes
  /// the shard's and the others ride on overrides - fragmenting the
  /// tiling per cell would cost more than it saves (a run repeating
  /// the widest one's set - arcs A,B,A - interns to the shard's set and
  /// stores no override). A shard splits instead (split_at_runs) only
  /// when every piece is worth a shard: kMinArcBuckets distinct hashes
  /// on average, bounding both the fragmentation and the splice cost.
  void regroup_shard(ShardIndex::Shard& s,
                     const std::vector<DesiredRun>& runs)
      COBALT_REQUIRES_SHARED(index_.structure_mutex_)
          COBALT_REQUIRES(index_.stripes_cap_) {
    std::size_t widest = 0;
    for (std::size_t r = 1; r < runs.size(); ++r) {
      if (runs[r].entries > runs[widest].entries) widest = r;
    }
    s.adopt(runs[widest].replicas);
    std::size_t pos = 0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (r != widest) {
        s.set_replicas(pos, pos + runs[r].entries, runs[r].replicas);
      }
      pos += runs[r].entries;
    }
  }

  /// Full-coverage repair, structural half (phase B): splits shard `i`
  /// at each arc boundary of its desired-set `runs`, one uniform shard
  /// per run (the per-shard replica design at work). Claims the
  /// exclusive structure hold.
  void split_at_runs(std::size_t i, const std::vector<DesiredRun>& runs)
      COBALT_REQUIRES(index_.structure_mutex_, index_.stripes_cap_) {
    // Last boundary first, so earlier positions stay valid.
    for (std::size_t r = runs.size(); r-- > 1;) {
      index_.split_shard(i, runs[r].first_hash);
    }
    for (std::size_t r = 0; r < runs.size(); ++r) {
      index_.shard(i + r).adopt(runs[r].replicas);
    }
  }

  // RelocationObserver: entries are keyed by hash, so relocations are
  // pure accounting - routing already derives the new owner. The
  // callbacks only record; counting is deferred to flush_relocations()
  // (one batched pass per membership event instead of a range walk per
  // callback). The callbacks only ever fire inside a membership
  // bracket, under its exclusive backend hold - the claim below. The
  // base interface is unannotated (virtual dispatch is outside the
  // analysis), so the claim checks these bodies, not the backend's
  // call sites.
  void on_relocate(HashIndex first, HashIndex last, placement::NodeId from,
                   placement::NodeId to) override
      COBALT_REQUIRES(backend_mutex_) {
    pending_events_.push_back({first, last, from, to, /*rebucket=*/false});
  }

  void on_rebucket(HashIndex first, HashIndex last) override
      COBALT_REQUIRES(backend_mutex_) {
    pending_events_.push_back({first, last, placement::kInvalidNode,
                               placement::kInvalidNode, /*rebucket=*/true});
  }

  /// Unguarded by design: mutated only inside the membership bracket
  /// (exclusive backend hold) and read by everyone - but through calls
  /// the analysis cannot attribute to a capability (the backend is a
  /// separate object). The linter's raw-lock rule, the const-only
  /// backend() and the bracket's claims are the cover.
  Backend backend_;
  hashing::Algorithm algorithm_;
  /// The configured replication (immutable). The topology it spreads
  /// over lives in backend_ (backend_.topology()), set under the
  /// exclusive backend hold (set_topology) and read by repair workers
  /// while the membership thread holds the backend exclusively.
  const placement::ReplicationSpec spec_;
  ShardIndex index_;
  /// Counted-batch consumer (protocol DES); see set_event_sink().
  /// Unguarded: set while quiescent, read-only afterwards.
  StoreEventSink* event_sink_ = nullptr;
  placement::MigrationStats relocation_stats_
      COBALT_GUARDED_BY(accounting_mutex_);
  ReplicationStats replication_stats_ COBALT_GUARDED_BY(accounting_mutex_);
  /// Relocation events of the in-flight membership event, recorded but
  /// not yet counted (see flush_relocations()); empty between events.
  std::vector<PendingEvent> pending_events_ COBALT_GUARDED_BY(backend_mutex_);
  /// The clamped replica target of the last repair pass.
  std::size_t last_repair_target_ COBALT_GUARDED_BY(backend_mutex_) = 0;
  /// The attached worker pool, or nullptr (see set_thread_pool()). It
  /// decides two things only: whether the lock wrappers engage
  /// (concurrent()), and whether the repair pass's phase A and the
  /// flush's range counts run on it or inline (run_tasks()).
  /// Unguarded: set while quiescent.
  ThreadPool* pool_ = nullptr;
  /// Membership/read lock (engaged while a pool is attached):
  /// membership events hold it exclusively end to end; backend readers
  /// and stats readers hold it shared. Point gets never touch it.
  mutable SharedMutex backend_mutex_;
  /// Orders the stats channels between holders of the shared backend
  /// lock (concurrent puts, snapshot readers); a membership event's
  /// exclusive backend hold already excludes every other accountant.
  mutable Mutex accounting_mutex_;
  /// read_node_of(key, policy) state: the round-robin cursor and the
  /// per-node served-read loads (grown lazily).
  mutable Mutex read_policy_mutex_;
  mutable std::uint64_t read_rr_cursor_
      COBALT_GUARDED_BY(read_policy_mutex_) = 0;
  mutable std::vector<std::uint64_t> reads_served_
      COBALT_GUARDED_BY(read_policy_mutex_);
};

/// The store over the paper's local approach (the default deployment).
using KvStore = Store<placement::LocalDhtBackend>;

/// The store over the base-model global approach (for comparisons).
using GlobalKvStore = Store<placement::GlobalDhtBackend>;

/// The store over the Consistent Hashing reference model.
using ChKvStore = Store<placement::ChBackend>;

/// The store over weighted rendezvous (HRW) hashing.
using HrwKvStore = Store<placement::HrwBackend>;

/// The store over jump consistent hash.
using JumpKvStore = Store<placement::JumpBackend>;

/// The store over maglev hashing.
using MaglevKvStore = Store<placement::MaglevBackend>;

/// The store over consistent hashing with bounded loads.
using BoundedChKvStore = Store<placement::BoundedChBackend>;

}  // namespace cobalt::kv
