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
// shards over sorted bucket vectors - see shard_index.hpp); the
// responsible node of a bucket is *derived* from the backend on read,
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
// boundaries its repair passes and write path discover), so the seed's
// per-bucket replica vector collapses to one per shard. Reads can be
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
//     deferred pass (at the next repair, mutation or stats read -
//     always before the resident keys can change, so the totals are
//     exactly the seed's).
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
// replicas can have changed - instead of every bucket in the store.
// ReplicationStats::repair_shards_visited counts the shards each pass
// actually examined (against repair_shards_total as the denominator),
// so "an event that relocated nothing repairs nothing" is observable.
//
// Membership must change through the store (add_node / remove_node /
// fail_nodes) for the replication bookkeeping to stay aligned;
// mutating membership through backend() directly bypasses the
// re-replication pass (relocation accounting still works, as before) -
// the store then falls back from the per-shard fast paths of
// keys_per_node()/for_each_on_node() to per-bucket owner derivation
// until the next repair pass realigns the materialized sets.
//
// Threading model (opt-in). By default the store is the serial data
// structure above: no locks, no atomics on any hot path. Attaching a
// worker pool (set_thread_pool()) switches it into concurrent mode:
//   * backend_mutex_ (a shared_mutex): membership events hold it
//     exclusively end to end (mutation, dirty collection, repair,
//     sink brackets); every call that reads the backend or flushes
//     pending accounting holds it shared (put, erase, owner_of,
//     read_node_of, the per-node accounting surfaces, stats
//     snapshots). Point gets and scans never touch it.
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
// express - are enforced by scripts/check_lock_order.py. Serial mode
// claims the same capabilities through disengaged wrappers (sound:
// serial mode is single-threaded by contract), so both modes are
// analyzed as one body of code.
// The heavy passes fan out per shard on the attached
// pool: the k > 1 planned-repair pass repairs its planned shards in
// parallel (phase A: per-shard patches and desired-run computation
// under stripe spans, accounting accumulated per worker task; then a
// deterministic merge adds the per-range sums and emits repair
// batches in plan order; phase B applies structural regroups serially
// under the exclusive structure lock), the relocation flush counts
// its event ranges in parallel and emits them serially in event
// order, and a full-scan fallback is just the plan [0, kMaxIndex]
// through the same machinery. Totals are therefore exact - not
// approximately merged - under any interleaving, and a store driven
// by one thread produces bit-identical results with and without a
// pool. Detaching (set_thread_pool(nullptr)) restores the serial
// mode; both switches require the store to be externally quiescent.
// In concurrent mode membership must go through the store (direct
// backend() mutation is unsupported there); stats() is safe from
// racing threads.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
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

  /// Key copies created by re-replication passes: for every bucket,
  /// one per key per node that entered the bucket's replica set. This
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

  /// Shards examined across repair passes - the pass-visit counter.
  /// With range-planned repair this tracks the event's dirty mass: an
  /// event that relocated nothing (e.g. a refused drain) visits zero
  /// shards even at k > 1.
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
  /// attaching before the first node. Requires external quiescence in
  /// concurrent mode, like every reconfiguration surface here.
  void set_topology(const cluster::Topology* topology) {
    const MaybeUniqueLock backend_lock(backend_mutex_, concurrent_);
    backend_.set_topology(topology);
    if (spec_.spread == placement::SpreadPolicy::kNone || spec_.k == 1 ||
        backend_.node_count() == 0) {
      return;  // placement is unchanged; nothing to repair
    }
    if (event_sink_ != nullptr) {
      flush_relocations();  // stray batches are not this event's
      event_sink_->on_membership_begin(MembershipEventKind::kJoin);
    }
    full_dirty_ = true;
    rereplicate(/*crash=*/false);
    if (event_sink_ != nullptr) event_sink_->on_membership_end();
  }

  /// The attached topology (null while detached).
  [[nodiscard]] const cluster::Topology* topology() const {
    return backend_.topology();
  }

  /// Attaches a worker pool and switches the store into concurrent
  /// mode (see the threading-model section of the header comment), or
  /// detaches it (nullptr) and returns to the serial, lock-free mode.
  /// Either switch requires external quiescence: no other thread may
  /// be inside a store call. The pool must outlive the store or be
  /// detached first; it may be shared with other stores.
  void set_thread_pool(ThreadPool* pool) {
    pool_ = pool;
    concurrent_ = (pool != nullptr);
  }

  /// True while a pool is attached (the concurrent mode is engaged).
  [[nodiscard]] bool concurrent() const { return concurrent_; }

  /// Cluster membership. Every completed change is followed by one
  /// re-replication pass that repairs the materialized replica sets
  /// (see stats().replication). remove_node is a *graceful drain*: it
  /// returns false when the scheme refuses the removal (the node
  /// stays; see placement/backend.hpp), and never loses keys.
  placement::NodeId add_node(double capacity = 1.0) {
    const MaybeUniqueLock backend_lock(backend_mutex_, concurrent_);
    if (event_sink_ != nullptr) {
      // Batches still pending from direct backend() mutation belong to
      // an implicit event, not to this bracket: flush them to the sink
      // before opening it (the counts are unchanged by flushing early;
      // no resident key can have moved since, every mutation flushes).
      flush_relocations();
      event_sink_->on_membership_begin(MembershipEventKind::kJoin);
    }
    placement::NodeId id;
    {
      const MembershipScope scope(in_membership_);
      id = backend_.add_node(capacity);
    }
    collect_dirty();
    rereplicate(/*crash=*/false);
    if (event_sink_ != nullptr) event_sink_->on_membership_end();
    return id;
  }
  bool remove_node(placement::NodeId node) {
    const MaybeUniqueLock backend_lock(backend_mutex_, concurrent_);
    if (event_sink_ != nullptr) {
      flush_relocations();  // stray batches are not this drain's (see add_node)
      event_sink_->on_membership_begin(MembershipEventKind::kDrain);
    }
    bool removed;
    {
      const MembershipScope scope(in_membership_);
      removed = backend_.remove_node(node);
    }
    // A refused drain may still have rebalanced internally (the local
    // approach's aborted decommission), so the dirty collection and
    // the pass run either way.
    collect_dirty();
    rereplicate(/*crash=*/false);
    if (event_sink_ != nullptr) event_sink_->on_membership_end();
    return removed;
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
    const MaybeUniqueLock backend_lock(backend_mutex_, concurrent_);
    if (event_sink_ != nullptr) {
      flush_relocations();  // stray batches are not this crash's (see add_node)
      event_sink_->on_membership_begin(MembershipEventKind::kCrash);
    }
    std::size_t failed = 0;
    for (const placement::NodeId node : nodes) {
      if (backend_.node_count() < 2 || !backend_.is_live(node)) continue;
      {
        const MembershipScope scope(in_membership_);
        if (backend_.remove_node(node)) ++failed;
      }
      collect_dirty();
    }
    rereplicate(/*crash=*/true);
    if (event_sink_ != nullptr) event_sink_->on_membership_end();
    return failed;
  }

  /// Inserts or updates; returns true when the key was new. The write
  /// fans out to every node of the key's replica set (replica_writes).
  /// Requires at least one node.
  bool put(const std::string& key, std::string value) {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent_);
    COBALT_REQUIRE(backend_.node_count() >= 1,
                   "the store needs at least one node before writes");
    flush_relocations();  // pending events count pre-mutation keys
    const HashIndex h = hash_key(key);
    std::uint64_t writes = 0;
    bool inserted = false;
    if (!concurrent_) {
      const ShardIndex::StructureExclusiveLock structure(index_,
                                                         /*engage=*/false);
      inserted = put_body(index_.shard_of(h), h, key, std::move(value),
                          writes);
    } else {
      bool done = false;
      {
        const ShardIndex::StructureSharedLock structure(index_);
        const std::size_t i = index_.shard_of(h);
        const ShardIndex::ShardSpanLock span(index_, i);
        // A brand-new bucket landing in a full shard makes insert_bucket
        // split the shard - a structural change the shared tiling hold
        // cannot cover; everything else stays inside this shard.
        if (index_.find_bucket(i, h) != nullptr ||
            index_.shard(i).buckets.size() < ShardIndex::kSplitBuckets) {
          inserted = put_body(i, h, key, std::move(value), writes);
          done = true;
        }
      }
      if (!done) {
        // Structural retry: the tiling may have changed between the two
        // holds (another writer split first), so everything re-derives.
        const ShardIndex::StructureExclusiveLock structure(index_);
        inserted = put_body(index_.shard_of(h), h, key, std::move(value),
                            writes);
      }
    }
    {
      const MaybeLockGuard acc(accounting_mutex_, concurrent_);
      replication_stats_.replica_writes += writes;
    }
    return inserted;
  }

  /// Point lookup. In concurrent mode this locks one stripe shared:
  /// reads proceed against every shard not under repair or mutation.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const HashIndex h = hash_key(key);
    const ShardIndex::StructureSharedLock structure(index_, concurrent_);
    const std::size_t i = index_.shard_of(h);
    const ShardIndex::StripeSharedLock stripe(index_, h, concurrent_);
    const ShardIndex::Bucket* bucket = index_.find_bucket(i, h);
    if (bucket == nullptr) return std::nullopt;
    for (const ShardIndex::Entry& entry : bucket->entries) {
      if (entry.first == key) return entry.second;
    }
    return std::nullopt;
  }

  /// Deletes; returns true when the key existed.
  bool erase(const std::string& key) {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent_);
    flush_relocations();  // pending events count pre-mutation keys
    const HashIndex h = hash_key(key);
    if (!concurrent_) {
      const ShardIndex::StructureExclusiveLock structure(index_,
                                                         /*engage=*/false);
      return erase_body(index_.shard_of(h), h, key);
    }
    bool structural = false;
    {
      const ShardIndex::StructureSharedLock structure(index_);
      const std::size_t i = index_.shard_of(h);
      const ShardIndex::ShardSpanLock span(index_, i);
      ShardIndex::Bucket* bucket = index_.find_bucket(i, h);
      if (bucket == nullptr) return false;
      for (std::size_t e = 0; e < bucket->entries.size(); ++e) {
        if (bucket->entries[e].first != key) continue;
        // Removing the bucket's last entry erases the bucket, which
        // can merge shards - structural; retry below.
        if (bucket->entries.size() == 1) {
          structural = true;
          break;
        }
        bucket->entries[e] = std::move(bucket->entries.back());
        bucket->entries.pop_back();
        index_.add_entries(i, -1);
        return true;
      }
      if (!structural) return false;
    }
    const ShardIndex::StructureExclusiveLock structure(index_);
    return erase_body(index_.shard_of(h), h, key);
  }

  /// Total keys stored.
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(index_.total_entries());
  }

  /// The node currently responsible for `key` (replica rank 0).
  [[nodiscard]] placement::NodeId owner_of(const std::string& key) const {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent_);
    COBALT_REQUIRE(backend_.node_count() >= 1, "the store has no nodes");
    return backend_.owner_of(hash_key(key));
  }

  /// The materialized replica set currently holding `key`, in rank
  /// order (element 0 was the primary when the set was last repaired).
  /// Empty when the key is not stored.
  [[nodiscard]] std::vector<placement::NodeId> replicas_of(
      const std::string& key) const {
    const HashIndex h = hash_key(key);
    const ShardIndex::StructureSharedLock structure(index_, concurrent_);
    const std::size_t i = index_.shard_of(h);
    const ShardIndex::StripeSharedLock stripe(index_, h, concurrent_);
    const ShardIndex::Bucket* bucket = index_.find_bucket(i, h);
    if (bucket == nullptr || !bucket_holds(*bucket, key)) return {};
    return effective_replicas(index_.shard(i), *bucket);
  }

  /// A node that can serve a read of `key`: the lowest-ranked live
  /// materialized replica (reads prefer the primary and fall over to
  /// successors). kInvalidNode when the key is not stored or no
  /// materialized replica is live (a data-loss window between a crash
  /// and its repair pass).
  [[nodiscard]] placement::NodeId read_node_of(const std::string& key) const {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent_);
    const HashIndex h = hash_key(key);
    const ShardIndex::StructureSharedLock structure(index_, concurrent_);
    const std::size_t i = index_.shard_of(h);
    const ShardIndex::StripeSharedLock stripe(index_, h, concurrent_);
    const ShardIndex::Bucket* bucket = index_.find_bucket(i, h);
    if (bucket == nullptr || !bucket_holds(*bucket, key)) {
      return placement::kInvalidNode;
    }
    for (const placement::NodeId node :
         effective_replicas(index_.shard(i), *bucket)) {
      if (backend_.is_live(node)) return node;
    }
    return placement::kInvalidNode;
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
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent_);
    const HashIndex h = hash_key(key);
    static thread_local std::vector<placement::NodeId> live;
    live.clear();
    {
      const ShardIndex::StructureSharedLock structure(index_, concurrent_);
      const std::size_t i = index_.shard_of(h);
      const ShardIndex::StripeSharedLock stripe(index_, h, concurrent_);
      const ShardIndex::Bucket* bucket = index_.find_bucket(i, h);
      if (bucket == nullptr || !bucket_holds(*bucket, key)) {
        return placement::kInvalidNode;
      }
      for (const placement::NodeId node :
           effective_replicas(index_.shard(i), *bucket)) {
        if (backend_.is_live(node)) live.push_back(node);
      }
    }
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
      const MaybeLockGuard guard(read_policy_mutex_, concurrent_);
      if (reads_served_.size() <= chosen) reads_served_.resize(chosen + 1, 0);
      ++reads_served_[chosen];
      return chosen;
    }
    const MaybeLockGuard guard(read_policy_mutex_, concurrent_);
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
  /// replica_copies_per_node() for the serving footprint. While the
  /// materialized sets are aligned (always, unless membership was
  /// mutated through backend() directly) this is one cached count per
  /// shard; the fallback re-derives the owner per bucket.
  [[nodiscard]] std::vector<std::size_t> keys_per_node() const {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent_);
    const ShardIndex::StructureSharedLock structure(index_, concurrent_);
    const ShardIndex::AllStripesSharedLock stripes(index_, concurrent_);
    std::vector<std::size_t> counts(backend_.node_slot_count(), 0);
    if (aligned_) {
      for (const ShardIndex::Shard& s : index_.shards()) {
        if (s.buckets.empty()) continue;
        if (s.override_count == 0) {  // one arc, one bounds check
          counts.at(s.replicas.front()) +=
              static_cast<std::size_t>(s.entry_count);
          continue;
        }
        for (const ShardIndex::Bucket& bucket : s.buckets) {
          counts.at(effective_replicas(s, bucket).front()) +=
              bucket.entries.size();
        }
      }
      return counts;
    }
    for (const ShardIndex::Shard& s : index_.shards()) {
      for (const ShardIndex::Bucket& bucket : s.buckets) {
        counts.at(backend_.owner_of(bucket.hash)) += bucket.entries.size();
      }
    }
    return counts;
  }

  /// Key *copies* resident per node under the materialized replica
  /// sets (a node holds a copy of every key whose replica set lists
  /// it). Sums to size() x k at full replication. One bounds check per
  /// (shard, rank) - the materialized sets are per shard by
  /// construction.
  [[nodiscard]] std::vector<std::size_t> replica_copies_per_node() const {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent_);
    const ShardIndex::StructureSharedLock structure(index_, concurrent_);
    const ShardIndex::AllStripesSharedLock stripes(index_, concurrent_);
    std::vector<std::size_t> counts(backend_.node_slot_count(), 0);
    for (const ShardIndex::Shard& s : index_.shards()) {
      if (s.entry_count == 0) continue;
      if (s.override_count == 0) {  // one arc, one check per rank
        for (const placement::NodeId node : s.replicas) {
          counts.at(node) += static_cast<std::size_t>(s.entry_count);
        }
        continue;
      }
      for (const ShardIndex::Bucket& bucket : s.buckets) {
        for (const placement::NodeId node : effective_replicas(s, bucket)) {
          counts.at(node) += bucket.entries.size();
        }
      }
    }
    return counts;
  }

  /// Visits every (key, value) pair in hash-range order (order within
  /// one bucket is unspecified).
  void for_each(const std::function<void(const std::string& key,
                                         const std::string& value)>& visit)
      const {
    const ShardIndex::StructureSharedLock structure(index_, concurrent_);
    const ShardIndex::AllStripesSharedLock stripes(index_, concurrent_);
    for (const ShardIndex::Shard& s : index_.shards()) {
      for (const ShardIndex::Bucket& bucket : s.buckets) {
        for (const ShardIndex::Entry& entry : bucket.entries) {
          visit(entry.first, entry.second);
        }
      }
    }
  }

  /// Visits the pairs a single node is *primary* for. While the
  /// materialized sets are aligned, shards whose range the backend
  /// maps entirely to other nodes are skipped without touching their
  /// buckets.
  void for_each_on_node(
      placement::NodeId node,
      const std::function<void(const std::string& key,
                               const std::string& value)>& visit) const {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent_);
    COBALT_REQUIRE(node < backend_.node_slot_count(), "unknown node id");
    const ShardIndex::StructureSharedLock structure(index_, concurrent_);
    const ShardIndex::AllStripesSharedLock stripes(index_, concurrent_);
    for (const ShardIndex::Shard& s : index_.shards()) {
      if (s.buckets.empty()) continue;
      const bool uniform = aligned_ && s.override_count == 0;
      if (uniform && s.replicas.front() != node) continue;  // skip the shard
      for (const ShardIndex::Bucket& bucket : s.buckets) {
        if (!uniform) {
          const placement::NodeId owner =
              aligned_ ? effective_replicas(s, bucket).front()
                       : backend_.owner_of(bucket.hash);
          if (owner != node) continue;
        }
        for (const ShardIndex::Entry& entry : bucket.entries) {
          visit(entry.first, entry.second);
        }
      }
    }
  }

  /// Visits every resident (key, value) whose hash falls inside
  /// [first, last], in ascending hash order (order within one bucket
  /// is unspecified) - the range scan riding the sorted bucket
  /// vectors. In concurrent mode each shard is read under its stripe
  /// span held shared, so the scan never blocks point reads and is
  /// consistent per shard (a concurrent writer may land between
  /// shards; quiesce for a full snapshot).
  void scan(HashIndex first, HashIndex last,
            const std::function<void(const std::string& key,
                                     const std::string& value)>& visit)
      const {
    if (first > last) return;
    const ShardIndex::StructureSharedLock structure(index_, concurrent_);
    for (std::size_t i = index_.shard_of(first);
         i < index_.shard_count() && index_.shard_first(i) <= last; ++i) {
      const ShardIndex::ShardSpanSharedLock span(index_, i, concurrent_);
      const ShardIndex::Shard& s = index_.shard(i);
      auto it = std::lower_bound(
          s.buckets.begin(), s.buckets.end(), first,
          [](const ShardIndex::Bucket& bucket, HashIndex value) {
            return bucket.hash < value;
          });
      for (; it != s.buckets.end() && it->hash <= last; ++it) {
        for (const ShardIndex::Entry& entry : it->entries) {
          visit(entry.first, entry.second);
        }
      }
    }
  }

  /// Keys whose hash falls inside [first, last] (a placement probe;
  /// used by rebalancing tooling and tests).
  [[nodiscard]] std::size_t keys_in_range(HashIndex first,
                                          HashIndex last) const {
    const ShardIndex::StructureSharedLock structure(index_, concurrent_);
    const ShardIndex::AllStripesSharedLock stripes(index_, concurrent_);
    return static_cast<std::size_t>(index_.count_range(first, last));
  }

  /// Both movement-accounting channels in one coherent read: pending
  /// relocation events are flushed, then both structs are copied under
  /// a single accounting hold - safe from any thread in concurrent
  /// mode, and the two channels are guaranteed to describe the same
  /// instant.
  [[nodiscard]] StatsSnapshot stats() const {
    const MaybeSharedLock backend_lock(backend_mutex_, concurrent_);
    flush_relocations();
    const MaybeLockGuard acc(accounting_mutex_, concurrent_);
    return {relocation_stats_, replication_stats_};
  }

  /// Registers (or clears, with nullptr) the store event sink: the
  /// counted relocation/repair batch stream the protocol DES consumes
  /// (see store_events.hpp). The sink must outlive the store or be
  /// cleared first. A sink attached after membership changes only sees
  /// the events from its attachment on; attach before the first node
  /// for totals that match the stats channels bit for bit. In
  /// concurrent mode, attach while quiescent (like set_thread_pool);
  /// batches are always emitted serially and in order.
  void set_event_sink(StoreEventSink* sink) { event_sink_ = sink; }

  /// The shard index (read-only structural introspection: shard
  /// count, per-shard replica sets, split/merge behaviour). Not
  /// synchronized - introspect quiescently in concurrent mode.
  [[nodiscard]] const ShardIndex& shard_index() const { return index_; }

  /// The placement backend (scheme-specific surface: the DHT adapters
  /// expose the balancer and vnode-level elasticity, the CH adapter
  /// the ring). Changing membership through it bypasses the
  /// re-replication bookkeeping - prefer the store's membership calls
  /// (and in concurrent mode direct mutation is unsupported: the
  /// fallback accounting paths assume the serial mode).
  [[nodiscard]] Backend& backend() { return backend_; }
  [[nodiscard]] const Backend& backend() const { return backend_; }

 private:
  /// RAII setter of in_membership_: exception-safe even when a
  /// membership precondition throws mid-call (a stuck flag would make
  /// later direct backend() mutations skip the full_dirty_ fallback).
  class MembershipScope {
   public:
    explicit MembershipScope(bool& flag) : flag_(flag) { flag_ = true; }
    ~MembershipScope() { flag_ = false; }
    MembershipScope(const MembershipScope&) = delete;
    MembershipScope& operator=(const MembershipScope&) = delete;

   private:
    bool& flag_;
  };

  /// One not-yet-counted relocation event (the batched accounting:
  /// callbacks record, flush_relocations() counts).
  struct PendingEvent {
    HashIndex first;
    HashIndex last;
    placement::NodeId from;
    placement::NodeId to;
    bool rebucket;
  };

  /// Per-worker repair accounting: the two per-range counters a repair
  /// walk accumulates. Workers fill their own instance; the merge adds
  /// them into ReplicationStats in plan order, so the totals are
  /// identical to the serial pass under any scheduling.
  struct RepairAcc {
    std::uint64_t copies = 0;
    std::uint64_t lost = 0;
    std::uint64_t cross_rack = 0;
    std::uint64_t cross_zone = 0;
  };

  /// One run of consecutive buckets sharing a desired replica set
  /// (computed by a repair visit before any structural change).
  struct DesiredRun {
    HashIndex first_hash;  // hash of the run's first bucket
    std::size_t buckets;
    std::uint64_t entries;
    std::vector<placement::NodeId> replicas;
  };

  /// One plan range's slice of a repair task (see repair_plan_parallel).
  struct SpanWork {
    std::size_t range_id;
    HashIndex lo;
    HashIndex hi;
    RepairAcc acc;
  };

  /// One shard's worth of parallel repair work: the spans to walk and
  /// the phase-B regroup payload the walk computed.
  struct ShardWork {
    std::size_t shard;
    std::vector<SpanWork> spans;
    std::vector<DesiredRun> runs;
    bool regroup = false;
  };

  [[nodiscard]] HashIndex hash_key(const std::string& key) const {
    return hashing::hash_bytes(algorithm_, key.data(), key.size());
  }

  [[nodiscard]] static bool bucket_holds(const ShardIndex::Bucket& bucket,
                                         const std::string& key) {
    for (const ShardIndex::Entry& entry : bucket.entries) {
      if (entry.first == key) return true;
    }
    return false;
  }

  /// The materialized replica set of one bucket: its override when it
  /// carries one, the shard's cached set otherwise.
  [[nodiscard]] static const std::vector<placement::NodeId>&
  effective_replicas(const ShardIndex::Shard& s,
                     const ShardIndex::Bucket& bucket) {
    return bucket.replicas.empty() ? s.replicas : bucket.replicas;
  }

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

  /// The write path proper: everything after the hash, against shard
  /// `i`. The claims encode the adequate cover: in concurrent mode
  /// either the shard's stripe span with no split possible, or the
  /// exclusive structure lock (which carries the stripe capability).
  /// `writes` receives the replica fan-out (the caller adds it to the
  /// stats under its own accounting rules).
  bool put_body(std::size_t i, HashIndex h, const std::string& key,
                std::string&& value, std::uint64_t& writes)
      COBALT_REQUIRES_SHARED(backend_mutex_, index_.structure_mutex_)
          COBALT_REQUIRES(index_.stripes_cap_) {
    static thread_local std::vector<placement::NodeId> scratch;
    ShardIndex::Bucket* bucket = index_.find_bucket(i, h);
    if (bucket == nullptr) {
      // A new hash materializes its replica set now, exactly like the
      // seed's first-put materialization - but allocation-free in the
      // common case: when the derived set matches the shard's cached
      // one nothing is stored per bucket; otherwise the shard
      // straddles an arc boundary a repair pass has not regrouped yet
      // and the bucket keeps a per-bucket override (dissolved by the
      // next repair of the range).
      desired_replicas_into(h, replica_target(), scratch);
      if (index_.shard(i).replicas.empty()) {
        index_.shard(i).replicas = scratch;  // first write into the shard
      }
      writes += scratch.size();
      const ShardIndex::BucketSlot slot = index_.insert_bucket(i, h);
      ShardIndex::Shard& s = index_.shard(slot.shard);
      bucket = &s.buckets[slot.position];
      bucket->entries.emplace_back(key, std::move(value));
      if (s.replicas != scratch) {
        bucket->replicas = scratch;
        ++s.override_count;
      }
      index_.add_entries(slot.shard, +1);
      return true;
    }
    writes += effective_replicas(index_.shard(i), *bucket).size();
    for (ShardIndex::Entry& entry : bucket->entries) {
      if (entry.first == key) {
        entry.second = std::move(value);
        return false;
      }
    }
    bucket->entries.emplace_back(key, std::move(value));
    index_.add_entries(i, +1);
    return true;
  }

  /// The delete path proper. Claims the exclusive structure hold
  /// (erasing a bucket can merge shards).
  bool erase_body(std::size_t i, HashIndex h, const std::string& key)
      COBALT_REQUIRES(index_.structure_mutex_, index_.stripes_cap_) {
    ShardIndex::Bucket* bucket = index_.find_bucket(i, h);
    if (bucket == nullptr) return false;
    for (std::size_t e = 0; e < bucket->entries.size(); ++e) {
      if (bucket->entries[e].first != key) continue;
      bucket->entries[e] = std::move(bucket->entries.back());
      bucket->entries.pop_back();
      index_.add_entries(i, -1);
      if (bucket->entries.empty()) index_.erase_bucket(i, h);
      return true;
    }
    return false;
  }

  /// Counts the keys inside the pending relocation events, in event
  /// order. Runs before any mutation of the resident keys and before
  /// any stats read, so every event is counted against exactly the
  /// key population it found when it fired - the seed's per-event
  /// count_range, batched. Concurrent mode counts the event ranges in
  /// parallel on the pool (counting mutates nothing, and the shared
  /// stripe hold keeps writers out), then applies and emits serially
  /// in event order - same totals, same sink stream.
  ///
  /// The nothing-pending fast path reads an atomic flag, not the event
  /// vector: the vector is accounting-guarded, and racing flushers
  /// (all under the shared backend hold) clear it under that lock - an
  /// unlocked .empty() probe against it was a data race. The flag is
  /// only raised under the exclusive backend hold (the observer
  /// callbacks), so a shared-holding reader seeing it down is ordered
  /// after the raise it might have missed.
  void flush_relocations() const COBALT_REQUIRES_SHARED(backend_mutex_) {
    if (!relocations_pending_.load(std::memory_order_acquire)) return;
    const MaybeLockGuard acc(accounting_mutex_, concurrent_);
    if (pending_events_.empty()) return;  // another flusher won the race
    if (!concurrent_) {
      const ShardIndex::StructureSharedLock structure(index_,
                                                      /*engage=*/false);
      const ShardIndex::AllStripesSharedLock stripes(index_,
                                                     /*engage=*/false);
      for (const PendingEvent& event : pending_events_) {
        count_relocation(event, index_.count_range(event.first, event.last));
      }
    } else {
      const std::size_t n = pending_events_.size();
      std::vector<std::uint64_t> keys(n);
      {
        const ShardIndex::StructureSharedLock structure(index_);
        const ShardIndex::AllStripesSharedLock stripes(index_);
        if (n > 1) {
          parallel_for(*pool_, n, [this, &keys](std::size_t e) {
            count_pending_range(e, keys);
          });
        } else {
          keys[0] = index_.count_range(pending_events_[0].first,
                                       pending_events_[0].last);
        }
      }
      for (std::size_t e = 0; e < n; ++e) {
        count_relocation(pending_events_[e], keys[e]);
      }
    }
    pending_events_.clear();
    relocations_pending_.store(false, std::memory_order_release);
  }

  /// Counts one pending event's range, on a pool worker. The worker
  /// runs under the flushing caller's shared structure and all-stripes
  /// holds (parallel_for keeps the caller blocked until the barrier) -
  /// a cross-thread cover outside the analysis' thread-local model,
  /// hence the suppression. The walk takes no locks and mutates
  /// nothing.
  void count_pending_range(std::size_t e, std::vector<std::uint64_t>& keys)
      const COBALT_NO_THREAD_SAFETY_ANALYSIS {
    keys[e] = index_.count_range(pending_events_[e].first,
                                 pending_events_[e].last);
  }

  /// Applies one counted relocation event to the stats channel and the
  /// sink (the shared tail of both flush modes).
  void count_relocation(const PendingEvent& event, std::uint64_t keys) const
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

  /// Folds the backend's dirty report for the membership operation
  /// that just ran into the pending repair plan (k > 1 only; the
  /// k == 1 plan is exactly the relocated/rebucketed ranges the
  /// observer recorded). A change of the clamped replica target (the
  /// cluster crossing size k) invalidates every materialized set size,
  /// so the next pass falls back to a full scan.
  void collect_dirty() COBALT_REQUIRES(backend_mutex_) {
    if (spec_.k == 1) return;
    if (replica_target() != last_repair_target_) {
      full_dirty_ = true;
    }
    if (full_dirty_) return;
    const auto ranges = backend_.replica_dirty_ranges(
        spec_.with_k(replica_target()));
    pending_dirty_.insert(pending_dirty_.end(), ranges.begin(),
                          ranges.end());
  }

  /// The repair pass: re-derives the materialized replica sets inside
  /// the planned ranges and counts the copies a deployment would
  /// transfer to get from the materialized sets to the desired ones.
  /// With `crash` set, a bucket whose materialized set has no live
  /// survivor is counted lost. A full-scan fallback is the plan
  /// [0, kMaxIndex] through the same walk. Concurrent mode hands the
  /// plan to the shard-parallel pass (see repair_plan_parallel).
  ///
  /// The whole pass runs under the accounting lock in concurrent mode
  /// (uncontended: the exclusive backend hold already excludes every
  /// other accountant - the lock is for the analysis and for the
  /// live-reference stats readers, which hold no backend cover).
  void rereplicate(bool crash) COBALT_REQUIRES(backend_mutex_) {
    flush_relocations();
    if (backend_.node_count() == 0) {
      pending_repair_.clear();
      pending_dirty_.clear();
      return;
    }
    const MaybeLockGuard acc_lock(accounting_mutex_, concurrent_);
    ++replication_stats_.rereplication_passes;
    {
      const ShardIndex::StructureSharedLock structure(index_, concurrent_);
      replication_stats_.repair_shards_total += index_.shard_count();
    }
    const std::size_t target = replica_target();

    bool full = false;
    std::vector<placement::HashRange> plan;
    if (spec_.k == 1) {
      plan = std::move(pending_repair_);
    } else if (full_dirty_ || target != last_repair_target_) {
      full = true;
    } else {
      plan = std::move(pending_dirty_);
    }
    pending_repair_.clear();
    pending_dirty_.clear();
    full_dirty_ = false;
    last_repair_target_ = target;

    if (full) {
      plan.assign(1, {0, HashSpace::kMaxIndex});
    } else {
      placement::coalesce_ranges(plan);
      if (plan.empty()) {
        // Nothing can have changed: the pass costs nothing - the
        // refused-drain / no-op-event fast exit of the shard design.
        aligned_ = true;
        return;
      }
    }
    // Ranges are disjoint and ascending; a shard overlapping two
    // ranges is visited once per range but only over each range's
    // own span, so no bucket repairs twice.
    if (concurrent_) {
      repair_plan_parallel(plan, target, crash);
    } else {
      const ShardIndex::StructureExclusiveLock structure(index_,
                                                         /*engage=*/false);
      for (const placement::HashRange& range : plan) {
        RepairAcc acc;
        std::size_t i = index_.shard_of(range.first);
        while (i < index_.shard_count() &&
               index_.shard_first(i) <= range.last) {
          ++replication_stats_.repair_shards_visited;
          i += repair_shard(i, range.first, range.last, target, crash, acc);
        }
        replication_stats_.keys_rereplicated += acc.copies;
        replication_stats_.keys_rereplicated_cross_rack += acc.cross_rack;
        replication_stats_.keys_rereplicated_cross_zone += acc.cross_zone;
        replication_stats_.keys_lost += acc.lost;
        emit_repair_batch(range.first, range.last, acc.copies, acc.lost,
                          target);
      }
    }
    aligned_ = true;
  }

  /// The shard-parallel repair pass (concurrent mode; the surrounding
  /// membership call holds backend_mutex_ exclusively, so no writer
  /// can race the plan). Phase A repairs every planned shard in
  /// parallel on the pool - per-shard patches, empty-shard refreshes
  /// and desired-run computation under the shard's stripe span, with
  /// accounting accumulated on the worker's own task - while point
  /// reads keep flowing through every other shard. The merge then adds
  /// the per-range sums into ReplicationStats and emits the repair
  /// batches in plan order (deterministic and equal to the serial
  /// pass: integer sums over disjoint shards commute). Phase B applies
  /// the structural regroups serially, ascending, under the exclusive
  /// structure lock - splits are contained inside their own shard, so
  /// a running index offset is the only cross-shard effect.
  void repair_plan_parallel(const std::vector<placement::HashRange>& plan,
                            std::size_t target, bool crash)
      COBALT_REQUIRES(backend_mutex_, accounting_mutex_) {
    // Plan the walk up front against the pre-pass tiling: the serial
    // pass visits exactly these (shard, range) pairs - its splits are
    // always inside the range that caused them and are skipped by its
    // own walk. A shard straddling two plan ranges appears once, with
    // both spans, processed in range order.
    std::vector<ShardWork> work;
    {
      const ShardIndex::StructureSharedLock structure(index_);
      for (std::size_t r = 0; r < plan.size(); ++r) {
        for (std::size_t i = index_.shard_of(plan[r].first);
             i < index_.shard_count() &&
             index_.shard_first(i) <= plan[r].last;
             ++i) {
          if (work.empty() || work.back().shard != i) {
            work.push_back({i, {}, {}, false});
          }
          work.back().spans.push_back({r, plan[r].first, plan[r].last, {}});
          ++replication_stats_.repair_shards_visited;
        }
      }
    }
    parallel_for(*pool_, work.size(), [this, &work, target, crash](
                                          std::size_t t) {
      repair_shard_task(work[t], target, crash);
    });
    // Deterministic merge: per-range integer sums in task order, then
    // stats and sink emission in plan order - the same values, in the
    // same order, as the serial pass.
    std::vector<RepairAcc> per_range(plan.size());
    for (const ShardWork& task : work) {
      for (const SpanWork& sp : task.spans) {
        per_range[sp.range_id].copies += sp.acc.copies;
        per_range[sp.range_id].lost += sp.acc.lost;
        per_range[sp.range_id].cross_rack += sp.acc.cross_rack;
        per_range[sp.range_id].cross_zone += sp.acc.cross_zone;
      }
    }
    for (std::size_t r = 0; r < plan.size(); ++r) {
      replication_stats_.keys_rereplicated += per_range[r].copies;
      replication_stats_.keys_rereplicated_cross_rack +=
          per_range[r].cross_rack;
      replication_stats_.keys_rereplicated_cross_zone +=
          per_range[r].cross_zone;
      replication_stats_.keys_lost += per_range[r].lost;
      emit_repair_batch(plan[r].first, plan[r].last, per_range[r].copies,
                        per_range[r].lost, target);
    }
    {
      const ShardIndex::StructureExclusiveLock structure(index_);
      std::size_t offset = 0;
      for (ShardWork& task : work) {
        if (!task.regroup) continue;
        offset += apply_runs(task.shard + offset, task.runs) - 1;
      }
    }
  }

  /// One shard's phase-A repair work, on a pool worker: takes its own
  /// shared structure hold and the shard's stripe span, walks the
  /// task's spans, and leaves the accounting on the task (the merge
  /// reads it after the barrier). The workers read the backend without
  /// a claim: the coordinating membership thread holds backend_mutex_
  /// exclusively for the whole pass, so the backend is frozen.
  void repair_shard_task(ShardWork& task, std::size_t target, bool crash) {
    static thread_local std::vector<placement::NodeId> scratch;
    const ShardIndex::StructureSharedLock structure(index_);
    const ShardIndex::ShardSpanLock span(index_, task.shard);
    ShardIndex::Shard& s = index_.shard(task.shard);
    for (SpanWork& sp : task.spans) {
      if (s.buckets.empty()) {
        // Nothing to account; refresh the cached set so future puts
        // in this range usually match it.
        desired_replicas_into(s.first, target, scratch);
        if (s.replicas != scratch) s.replicas = scratch;
        continue;
      }
      if (sp.lo > s.first || sp.hi < index_.shard_last(task.shard)) {
        patch_shard(s, sp.lo, sp.hi, target, crash, scratch, sp.acc);
        continue;
      }
      // Full coverage: compute the desired runs now (read-only);
      // the structural application waits for phase B. A fully
      // covered shard lies inside its range, so this is always the
      // task's only span.
      compute_runs(s, target, crash, scratch, task.runs, sp.acc);
      task.regroup = true;
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

  /// Per-bucket repair accounting (identical to the seed's
  /// repair_bucket): counts lost keys at a crash and the repair copies
  /// from the materialized set to `desired` into the caller's
  /// accumulator. With a topology attached, each joiner's copy is
  /// additionally classified cross-rack/cross-zone against its donor:
  /// the first live materialized replica, or the desired primary when
  /// no replica survived (the lost key re-seeds from cold storage at
  /// its new primary and then fans out from there).
  void account_repair(const ShardIndex::Bucket& bucket,
                      const std::vector<placement::NodeId>& materialized,
                      const std::vector<placement::NodeId>& desired,
                      bool crash, RepairAcc& acc) const {
    if (crash) {
      const bool survived = std::any_of(
          materialized.begin(), materialized.end(),
          [&](placement::NodeId node) { return backend_.is_live(node); });
      if (!survived) {
        acc.lost += bucket.entries.size();
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
    const std::uint64_t entries = bucket.entries.size();
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

  /// Partial-coverage repair: patches only the buckets of `s` inside
  /// [lo, hi] (exactly the seed's ranged k = 1 walk), parking changed
  /// sets on per-bucket overrides - no structural change. Claims the
  /// shard's stripe span exclusively (via the stripe capability).
  void patch_shard(ShardIndex::Shard& s, HashIndex lo, HashIndex hi,
                   std::size_t target, bool crash,
                   std::vector<placement::NodeId>& scratch, RepairAcc& acc)
      COBALT_REQUIRES_SHARED(index_.structure_mutex_)
          COBALT_REQUIRES(index_.stripes_cap_) {
    auto it = std::lower_bound(
        s.buckets.begin(), s.buckets.end(), lo,
        [](const ShardIndex::Bucket& bucket, HashIndex value) {
          return bucket.hash < value;
        });
    for (; it != s.buckets.end() && it->hash <= hi; ++it) {
      const std::vector<placement::NodeId>& materialized =
          effective_replicas(s, *it);
      desired_replicas_into(it->hash, target, scratch);
      if (scratch == materialized) continue;
      account_repair(*it, materialized, scratch, crash, acc);
      if (scratch == s.replicas) {
        if (!it->replicas.empty()) {
          it->replicas.clear();
          --s.override_count;
        }
      } else {
        if (it->replicas.empty()) ++s.override_count;
        it->replicas = scratch;
      }
    }
  }

  /// Full-coverage repair, computation half: accounts every bucket of
  /// `s` and appends its desired-run structure to `runs` (read-only on
  /// the shard; apply_runs() is the mutation half).
  void compute_runs(const ShardIndex::Shard& s, std::size_t target,
                    bool crash, std::vector<placement::NodeId>& scratch,
                    std::vector<DesiredRun>& runs, RepairAcc& acc) const
      COBALT_REQUIRES_SHARED(index_.structure_mutex_, index_.stripes_cap_) {
    for (const ShardIndex::Bucket& bucket : s.buckets) {
      const std::vector<placement::NodeId>& materialized =
          effective_replicas(s, bucket);
      desired_replicas_into(bucket.hash, target, scratch);
      if (scratch != materialized) {
        account_repair(bucket, materialized, scratch, crash, acc);
      }
      if (runs.empty() || scratch != runs.back().replicas) {
        runs.push_back({bucket.hash, 0, 0, scratch});
      }
      runs.back().buckets += 1;
      runs.back().entries += bucket.entries.size();
    }
  }

  /// Full-coverage repair, application half: regroups shard `i` by its
  /// desired-set `runs`:
  ///   * one run: the shard is one arc; adopt the set, drop overrides;
  ///   * a few wide runs: split at the arc boundaries, one uniform
  ///     shard per run (the per-shard replica design at work);
  ///   * many narrow runs (cell-grained schemes): keep the shard, park
  ///     the minority sets on per-bucket overrides - fragmenting the
  ///     tiling per cell would cost more than it saves.
  /// Structural splits only when every piece is worth a shard
  /// (kMinArcBuckets average), bounding both the fragmentation and the
  /// splice cost. Consumes `runs` (moves the replica vectors out).
  /// Claims the exclusive structure hold. Returns the number of shards
  /// the original was replaced by.
  std::size_t apply_runs(std::size_t i, std::vector<DesiredRun>& runs)
      COBALT_REQUIRES(index_.structure_mutex_, index_.stripes_cap_) {
    ShardIndex::Shard& s = index_.shard(i);
    if (runs.size() == 1) {
      if (s.override_count != 0) {
        for (ShardIndex::Bucket& bucket : s.buckets) bucket.replicas.clear();
        s.override_count = 0;
      }
      if (s.replicas != runs.front().replicas) {
        s.replicas = std::move(runs.front().replicas);
      }
      return 1;
    }
    if (s.buckets.size() >= runs.size() * ShardIndex::kMinArcBuckets) {
      // Split at each arc boundary, last first so earlier bucket
      // positions stay valid; every piece comes out uniform.
      for (std::size_t r = runs.size(); r-- > 1;) {
        index_.split_shard(i, runs[r].first_hash);
      }
      for (std::size_t r = 0; r < runs.size(); ++r) {
        ShardIndex::Shard& piece = index_.shard(i + r);
        for (ShardIndex::Bucket& bucket : piece.buckets) {
          bucket.replicas.clear();
        }
        piece.override_count = 0;
        piece.replicas = std::move(runs[r].replicas);
      }
      return runs.size();
    }
    // Narrow arcs: the widest run becomes the shard's set, the rest
    // ride on overrides (exactly the seed's per-bucket footprint).
    {
      std::size_t widest = 0;
      for (std::size_t r = 1; r < runs.size(); ++r) {
        if (runs[r].entries > runs[widest].entries) {
          widest = r;
        }
      }
      s.replicas = std::move(runs[widest].replicas);
      s.override_count = 0;
      std::size_t run = 0;
      std::size_t run_left = runs[0].buckets;
      for (ShardIndex::Bucket& bucket : s.buckets) {
        while (run_left == 0) {
          ++run;
          run_left = runs[run].buckets;
        }
        --run_left;
        // The widest run's set was moved into s.replicas; a
        // non-adjacent run can repeat it (arcs A,B,A), and storing an
        // override equal to the shard set would only disable the
        // uniform fast paths - compare against the shard set, not the
        // run index.
        if (run == widest || runs[run].replicas == s.replicas) {
          bucket.replicas.clear();
        } else {
          bucket.replicas = runs[run].replicas;
          ++s.override_count;
        }
      }
    }
    return 1;
  }

  /// Repairs one shard against plan range [lo, hi], in place (the
  /// serial walk: a partially covered shard is patched, a fully
  /// covered one regrouped - see patch_shard / compute_runs /
  /// apply_runs). Returns the number of shards the original was
  /// replaced by.
  std::size_t repair_shard(std::size_t i, HashIndex lo, HashIndex hi,
                           std::size_t target, bool crash, RepairAcc& acc)
      COBALT_REQUIRES(backend_mutex_, index_.structure_mutex_,
                      index_.stripes_cap_) {
    static thread_local std::vector<placement::NodeId> scratch;
    ShardIndex::Shard& s = index_.shard(i);
    if (s.buckets.empty()) {
      // Nothing to account; refresh the cached set so future puts
      // in this range usually match it (pure optimization - the
      // write path verifies anyway).
      desired_replicas_into(s.first, target, scratch);
      if (s.replicas != scratch) s.replicas = scratch;
      return 1;
    }
    if (lo > s.first || hi < index_.shard_last(i)) {
      patch_shard(s, lo, hi, target, crash, scratch, acc);
      return 1;
    }
    runs_scratch_.clear();
    compute_runs(s, target, crash, scratch, runs_scratch_, acc);
    return apply_runs(i, runs_scratch_);
  }

  // RelocationObserver: buckets are keyed by hash, so relocations are
  // pure accounting - routing already derives the new owner. The
  // callbacks only record; counting is deferred to flush_relocations()
  // (one batched pass per membership event instead of a range walk per
  // callback). In concurrent mode the callbacks only ever fire on the
  // membership thread, under its exclusive backend hold - the claim
  // below. The base interface is unannotated (virtual dispatch is
  // outside the analysis), so the claim checks these bodies, not the
  // backend's call sites; the pending-event queue additionally takes
  // the accounting lock, because flushers mutate it under only the
  // *shared* backend hold.
  void on_relocate(HashIndex first, HashIndex last, placement::NodeId from,
                   placement::NodeId to) override
      COBALT_REQUIRES(backend_mutex_) {
    {
      const MaybeLockGuard acc(accounting_mutex_, concurrent_);
      pending_events_.push_back({first, last, from, to, /*rebucket=*/false});
    }
    relocations_pending_.store(true, std::memory_order_release);
    if (from != to) {
      aligned_ = false;
      // Remember where ownership changed so the k == 1 repair pass can
      // visit only the affected shards (see rereplicate()).
      if (spec_.k == 1) pending_repair_.push_back({first, last});
      // A stray event (membership mutated through backend() directly)
      // leaves no queryable dirty report behind; the next pass falls
      // back to the full scan the seed always ran.
      if (spec_.k > 1 && !in_membership_) full_dirty_ = true;
    }
  }

  void on_rebucket(HashIndex first, HashIndex last) override
      COBALT_REQUIRES(backend_mutex_) {
    {
      const MaybeLockGuard acc(accounting_mutex_, concurrent_);
      pending_events_.push_back({first, last, placement::kInvalidNode,
                                 placement::kInvalidNode, /*rebucket=*/true});
    }
    relocations_pending_.store(true, std::memory_order_release);
    // A buddy merge may hand the odd half over *implicitly* (the DHT
    // adapters account that as rebucketing, not movement - see
    // dht_backend.hpp), so the k == 1 repair must check these ranges
    // too (for pure splits the check is a no-op) and the per-shard
    // owner fast paths cannot trust alignment until the next pass.
    aligned_ = false;
    if (spec_.k == 1) pending_repair_.push_back({first, last});
    if (spec_.k > 1 && !in_membership_) full_dirty_ = true;
  }

  /// Unguarded by design: mutated only under the exclusive backend
  /// hold (membership) and read by everyone - but through calls the
  /// analysis cannot attribute to a capability (the backend is a
  /// separate object). The linter's raw-lock rule plus the membership
  /// claims in this header are the cover.
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
  mutable placement::MigrationStats relocation_stats_
      COBALT_GUARDED_BY(accounting_mutex_);
  ReplicationStats replication_stats_ COBALT_GUARDED_BY(accounting_mutex_);
  /// Relocation events recorded but not yet counted (see
  /// flush_relocations()).
  mutable std::vector<PendingEvent> pending_events_
      COBALT_GUARDED_BY(accounting_mutex_);
  /// Raised when an observer callback records a pending event, lowered
  /// by the flush that counts them: the lock-free nothing-pending
  /// probe of flush_relocations().
  mutable std::atomic<bool> relocations_pending_{false};
  /// k == 1 repair plan: ownership-changing ranges of the in-flight
  /// membership event.
  std::vector<placement::HashRange> pending_repair_
      COBALT_GUARDED_BY(backend_mutex_);
  /// k > 1 repair plan: the backends' replica_dirty_ranges, one
  /// collection per membership operation.
  std::vector<placement::HashRange> pending_dirty_
      COBALT_GUARDED_BY(backend_mutex_);
  /// Set when the clamped replica target changed since the last pass
  /// (materialized set sizes are stale everywhere) or a stray event
  /// arrived outside a store membership call: full-scan repair.
  bool full_dirty_ COBALT_GUARDED_BY(backend_mutex_) = false;
  /// True while a store membership call is driving the backend (events
  /// arriving outside are direct backend() mutations).
  bool in_membership_ COBALT_GUARDED_BY(backend_mutex_) = false;
  std::size_t last_repair_target_ COBALT_GUARDED_BY(backend_mutex_) = 0;
  /// True while every resident bucket's materialized rank 0 equals
  /// backend().owner_of (maintained by the repair passes; cleared by
  /// ownership-changing events until the next pass). Written only
  /// under the exclusive backend hold in concurrent mode; every reader
  /// holds it shared.
  bool aligned_ COBALT_GUARDED_BY(backend_mutex_) = true;
  /// Reusable desired-run buffer of the serial repair walk.
  std::vector<DesiredRun> runs_scratch_ COBALT_GUARDED_BY(backend_mutex_);
  /// Worker pool of the concurrent mode (nullptr = serial mode; see
  /// set_thread_pool()). Unguarded: set while quiescent.
  ThreadPool* pool_ = nullptr;
  /// True while a pool is attached: every public call engages the
  /// threading-model locks. Serial mode skips them entirely - the
  /// single-threaded paths stay the seed's, bit for bit. Unguarded:
  /// set while quiescent.
  bool concurrent_ = false;
  /// Membership/read lock of the concurrent mode: membership events
  /// hold it exclusively end to end; backend readers and accounting
  /// flushers hold it shared. Point gets never touch it.
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
