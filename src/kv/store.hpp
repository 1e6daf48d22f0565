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
// The pass is one loop over the plan ranges and the shards each one
// overlaps. One walk covers the positions a range covers in a shard,
// walking placement again only past the last answer's extent: it
// accounts every hash whose materialized set differs from the desired
// one and yields the runs of equal desired sets. A partly covered
// shard takes its changed runs as overrides; a fully covered one is
// regrouped in place (one arc: adopt its set; narrow arcs: adopt the
// widest, park the rest on overrides) or, when its arcs are wide
// enough to be shards of their own, split right there. An empty shard
// refreshes its set. The repair batches go out per plan range, in plan
// order, after the loop.
//
// One membership path. The backend changes only inside the store's
// membership bracket: mutation -> dirty collection -> relocation
// flush -> repair pass -> sink end.
// add_node / remove_node / fail_nodes / set_topology run through it,
// and so does every scheme-specific change (vnode-level elasticity,
// enrollment resizes) via mutate(kind, change); backend() is
// read-only. Outside a bracket the materialized sets are therefore
// always aligned with the backend: rank 0 of every resident key is
// owner_of, and no relocation event is pending.
//
// The store is single-threaded: no call synchronizes with any other,
// so one store belongs to one thread at a time. Harnesses that run
// many independent runs in parallel (common/thread_pool.hpp) give each
// run its own store.

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

  /// Replica walks (backend replica_set_into calls) made by repair
  /// passes. A walk's answer holds through its extent, so a pass walks
  /// once per placement segment it meets, not once per resident hash.
  std::uint64_t replica_walks = 0;
};

/// Both movement-accounting channels, as Store::stats() returns them:
/// the relocation channel (primary-owner moves) and the re-replication
/// channel in a single read.
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
/// deployment). The probe must not call back into the store.
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
  /// attaching before the first node.
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
    COBALT_REQUIRE(backend_.node_count() >= 1,
                   "the store needs at least one node before writes");
    const HashIndex h = hash_key(key);
    const std::size_t i = index_.shard_of(h);
    const ShardIndex::Shard& s = index_.shard(i);
    const std::size_t at = s.lower_bound(h, index_.shard_range(i));
    if (at == s.size() || s.hash(at) != h) {
      // A new hash materializes its replica set now, exactly like the
      // seed's first-put materialization: when the derived set matches
      // the shard's it costs nothing per entry; otherwise the shard
      // straddles an arc boundary a repair pass has not regrouped yet
      // and the entry takes an override (dissolved by the next repair
      // of the range).
      desired_replicas_into(h, replica_target(), scratch_);
      index_.insert(i, at, h, key, value, scratch_);
      replication_stats_.replica_writes += scratch_.size();
      return true;
    }
    const std::size_t pos = s.find_from(at, h, key);
    if (pos != ShardIndex::npos) {
      const std::size_t writes = s.replicas(at).size();
      index_.assign(i, pos, value);
      replication_stats_.replica_writes += writes;
      return false;
    }
    // A colliding key shares its hash's set (copied: the insert may
    // grow the palette the view points into) and joins the end of its
    // hash's run.
    const ShardIndex::ReplicaSet shared = s.replicas(at);
    scratch_.assign(shared.begin(), shared.end());
    index_.insert(i, s.run_end(at), h, key, value, scratch_);
    replication_stats_.replica_writes += scratch_.size();
    return true;
  }

  /// Point lookup.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    return with_entry(key, std::optional<std::string>{},
                      [](const ShardIndex::Shard& s, std::size_t pos) {
                        return std::optional<std::string>(s.value(pos));
                      });
  }

  /// Deletes; returns true when the key existed.
  bool erase(const std::string& key) {
    const HashIndex h = hash_key(key);
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
    std::vector<placement::NodeId>& live = scratch_;
    live.clear();
    with_entry(key, false, [this, &live](const ShardIndex::Shard& s,
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
      std::uint64_t best = probe(chosen);
      for (std::size_t rank = 1; rank < live.size(); ++rank) {
        const std::uint64_t load = probe(live[rank]);
        if (load < best) {
          best = load;
          chosen = live[rank];
        }
      }
    } else if (policy == ReadPolicy::kRoundRobin) {
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
    COBALT_REQUIRE(node < backend_.node_slot_count(), "unknown node id");
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
  void scan(HashIndex first, HashIndex last,
            const std::function<void(const std::string& key,
                                     const std::string& value)>& visit)
      const {
    if (first > last) return;
    Visitor visitor{visit};
    for (std::size_t i = index_.shard_of(first);
         i < index_.shard_count() && index_.shard_first(i) <= last; ++i) {
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
    return static_cast<std::size_t>(index_.count_range(first, last));
  }

  /// Both movement-accounting channels in one read.
  [[nodiscard]] StatsSnapshot stats() const {
    return {relocation_stats_, replication_stats_};
  }

  /// Registers (or clears, with nullptr) the store event sink: the
  /// counted relocation/repair batch stream the protocol DES consumes
  /// (see store_events.hpp). The sink must outlive the store or be
  /// cleared first. A sink attached after membership changes only sees
  /// the events from its attachment on; attach before the first node
  /// for totals that match the stats channels bit for bit. Batches are
  /// emitted in order.
  void set_event_sink(StoreEventSink* sink) { event_sink_ = sink; }

  /// The shard index (read-only structural introspection: shard
  /// count, per-shard replica sets, split/merge behaviour).
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

  /// The one membership bracket: runs `change(backend_, dirty)` and
  /// completes the event (see complete_membership) - the sink bracket
  /// opens only after the change returned.
  template <typename F>
  auto membership(MembershipEventKind kind, Repair repair, F&& change)
      -> std::invoke_result_t<F&, Backend&, DirtyRanges&> {
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
                            DirtyRanges& dirty, Run&& run) {
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
                           DirtyRanges& dirty) {
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

  /// Repair accounting of one plan range: the counters its shard walks
  /// accumulate, added into ReplicationStats and emitted as the range's
  /// repair batch after the pass.
  struct RepairAcc {
    std::uint64_t copies = 0;
    std::uint64_t lost = 0;
    std::uint64_t cross_rack = 0;
    std::uint64_t cross_zone = 0;
  };

  /// One run of consecutive entries of the walked shard sharing a
  /// desired replica set: entries [begin, end), the set at
  /// [set_begin, set_end) of run_sets_, and whether the materialized
  /// set of any of the entries differs from it.
  struct DesiredRun {
    std::size_t begin;
    std::size_t end;
    std::size_t set_begin;
    std::size_t set_end;
    bool differs;
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
  /// Returns the walk's extent: the set holds for every hash in
  /// [h, extent].
  HashIndex desired_replicas_into(HashIndex h, std::size_t target,
                                  std::vector<placement::NodeId>& out) const {
    return backend_.replica_set_into(h, spec_.with_k(target), out);
  }

  /// desired_replicas_into for a repair pass, counted in replica_walks.
  HashIndex repair_walk(HashIndex h, std::size_t target,
                        std::vector<placement::NodeId>& out) {
    ++replication_stats_.replica_walks;
    return desired_replicas_into(h, target, out);
  }

  /// Served-read count of `node` under the balancing policies (zero
  /// until the node's first policy read).
  [[nodiscard]] std::uint64_t read_load(placement::NodeId node) const {
    return node < reads_served_.size() ? reads_served_[node] : 0;
  }

  /// The read preamble shared by get, replicas_of and read_node_of:
  /// hashes `key`, finds its entry and returns `use(shard, pos)` - or
  /// `missing` when the key is not stored.
  template <typename R, typename Use>
  R with_entry(const std::string& key, R missing, Use&& use) const {
    const HashIndex h = hash_key(key);
    const std::size_t i = index_.shard_of(h);
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

  /// Counts the keys inside the pending relocation events, in event
  /// order, into the stats channel and the sink. Runs inside the
  /// membership bracket that fired them, before its repair pass, so
  /// every event is counted against exactly the key population it found
  /// when it fired - the seed's per-event count_range, batched.
  void flush_relocations() {
    for (const PendingEvent& event : pending_events_) {
      const std::uint64_t keys = index_.count_range(event.first, event.last);
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
    pending_events_.clear();
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
  void rereplicate(bool crash, bool full, DirtyRanges& dirty) {
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
    ++replication_stats_.rereplication_passes;
    replication_stats_.repair_shards_total += index_.shard_count();
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

  /// The repair pass over a coalesced `plan`: one loop over the plan
  /// ranges and the shards each overlaps. Ranges are disjoint and
  /// ascending, so a shard two ranges overlap is the last shard of one
  /// and the first of the next: it counts as one visit, an empty one
  /// refreshes its set once, and each range walks its own span of it -
  /// no entry repairs twice. A fully covered shard lies inside its
  /// range alone, so it can split right away: no later range meets its
  /// pieces, and the loop moves past them. Each range's copies and
  /// losses go into ReplicationStats and out as its repair batch, in
  /// plan order, after the loop.
  void repair_plan(const std::vector<placement::HashRange>& plan,
                   std::size_t target, bool crash) {
    repair_acc_.assign(plan.size(), RepairAcc{});
    std::size_t visited = ShardIndex::npos;  // the last shard visited
    for (std::size_t r = 0; r < plan.size(); ++r) {
      const placement::HashRange range = plan[r];
      for (std::size_t i = index_.shard_of(range.first);
           i < index_.shard_count() && index_.shard_first(i) <= range.last;
           ++i) {
        const bool revisit = i == visited;
        visited = i;
        ShardIndex::Shard& s = index_.shard(i);
        if (!revisit) ++replication_stats_.repair_shards_visited;
        if (s.empty()) {
          // Nothing to account; refresh the shard's set once, so future
          // puts in this shard usually match it.
          if (!revisit) {
            repair_walk(index_.shard_first(i), target, scratch_);
            s.adopt(scratch_);
          }
          continue;
        }
        const placement::HashRange bounds = index_.shard_range(i);
        walk_runs(s, s.lower_bound(range.first, bounds), range.last, target,
                  crash, repair_acc_[r]);
        const bool covered =
            range.first <= bounds.first && range.last >= bounds.last;
        if (covered && runs_.size() > 1 &&
            s.distinct_hashes() >= runs_.size() * ShardIndex::kMinArcBuckets) {
          // Wide arcs: one uniform shard per run (the per-shard replica
          // design at work), cut last boundary first so earlier
          // positions stay valid and each cut's tail is its run.
          for (std::size_t k = runs_.size(); k-- > 1;) {
            index_.split_shard(i, s.hash(runs_[k].begin));
            index_.shard(i + 1).adopt(run_set(runs_[k]));
          }
          s.adopt(run_set(runs_.front()));
          i += runs_.size() - 1;
          continue;
        }
        const DesiredRun* widest = nullptr;
        if (covered) {
          // Narrow arcs (cell-grained schemes): the widest run's set
          // becomes the shard's and the others ride on overrides -
          // fragmenting the tiling per cell would cost more than it
          // saves. A run repeating the widest one's set (arcs A,B,A)
          // interns to the shard's set and stores no override.
          widest = &*std::ranges::max_element(
              runs_, {}, [](const DesiredRun& run) {
                return run.end - run.begin;
              });
          s.adopt(run_set(*widest));
        }
        // After an adopt every other run needs its set written; a partly
        // covered shard rewrites only the runs that changed.
        for (const DesiredRun& run : runs_) {
          if (covered ? &run != widest : run.differs) {
            s.set_replicas(run.begin, run.end, run_set(run));
          }
        }
      }
    }
    for (std::size_t r = 0; r < plan.size(); ++r) {
      const RepairAcc& acc = repair_acc_[r];
      replication_stats_.keys_rereplicated += acc.copies;
      replication_stats_.keys_rereplicated_cross_rack += acc.cross_rack;
      replication_stats_.keys_rereplicated_cross_zone += acc.cross_zone;
      replication_stats_.keys_lost += acc.lost;
      // Ranges that repaired nothing are silent, so a no-op event
      // produces no protocol round.
      if (event_sink_ != nullptr && (acc.copies != 0 || acc.lost != 0)) {
        event_sink_->on_repair_batch(plan[r].first, plan[r].last, acc.copies,
                                     acc.lost, target);
      }
    }
  }

  /// The repair walk of one shard's span: the entries of `s` from `pos`
  /// through hash `last`. Hashes are ascending, so a walk's set serves
  /// every hash up to its extent, and placement is walked again only
  /// past it. Accounts every hash whose materialized set differs from
  /// the desired one into `acc` and leaves the desired-set runs on
  /// runs_ (a run can begin only where a walk does). Read-only on the
  /// shard.
  void walk_runs(const ShardIndex::Shard& s, std::size_t pos, HashIndex last,
                 std::size_t target, bool crash, RepairAcc& acc) {
    runs_.clear();
    run_sets_.clear();
    HashIndex holds = 0;
    for (std::size_t end = 0; pos < s.size() && s.hash(pos) <= last;
         pos = end) {
      end = s.run_end(pos);
      if (runs_.empty() || s.hash(pos) > holds) {
        holds = repair_walk(s.hash(pos), target, scratch_);
        if (runs_.empty() ||
            !std::ranges::equal(scratch_, run_set(runs_.back()))) {
          runs_.push_back({pos, pos, run_sets_.size(),
                           run_sets_.size() + scratch_.size(), false});
          run_sets_.insert(run_sets_.end(), scratch_.begin(), scratch_.end());
        }
      }
      const ShardIndex::ReplicaSet materialized = s.replicas(pos);
      if (!std::ranges::equal(scratch_, materialized)) {
        account_repair(end - pos, materialized, scratch_, crash, acc);
        runs_.back().differs = true;
      }
      runs_.back().end = end;
    }
  }

  /// The desired set of one run of the last walk.
  [[nodiscard]] ShardIndex::ReplicaSet run_set(const DesiredRun& run) const {
    return {run_sets_.data() + run.set_begin, run.set_end - run.set_begin};
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
    const auto live = [this](placement::NodeId node) {
      return backend_.is_live(node);
    };
    if (crash && std::ranges::none_of(materialized, live)) acc.lost += entries;
    const cluster::Topology* const topology = backend_.topology();
    placement::NodeId donor = placement::kInvalidNode;
    if (topology != nullptr) {
      const auto survivor = std::ranges::find_if(materialized, live);
      if (survivor != materialized.end()) {
        donor = *survivor;
      } else if (!desired.empty()) {
        donor = desired.front();
      }
    }
    std::uint64_t joiners = 0;
    for (const placement::NodeId node : desired) {
      if (std::ranges::find(materialized, node) != materialized.end()) {
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

  // RelocationObserver: entries are keyed by hash, so relocations are
  // pure accounting - routing already derives the new owner. The
  // callbacks only record; counting is deferred to flush_relocations()
  // (one batched pass per membership event instead of a range walk per
  // callback). The callbacks only ever fire inside a membership
  // bracket.
  void on_relocate(HashIndex first, HashIndex last, placement::NodeId from,
                   placement::NodeId to) override {
    pending_events_.push_back({first, last, from, to, /*rebucket=*/false});
  }

  void on_rebucket(HashIndex first, HashIndex last) override {
    pending_events_.push_back({first, last, placement::kInvalidNode,
                               placement::kInvalidNode, /*rebucket=*/true});
  }

  /// Mutated only inside the membership bracket; read-only to callers
  /// (backend()).
  Backend backend_;
  hashing::Algorithm algorithm_;
  /// The configured replication (immutable). The topology it spreads
  /// over lives in backend_ (backend_.topology()).
  const placement::ReplicationSpec spec_;
  ShardIndex index_;
  /// Counted-batch consumer (protocol DES); see set_event_sink().
  StoreEventSink* event_sink_ = nullptr;
  placement::MigrationStats relocation_stats_;
  ReplicationStats replication_stats_;
  /// Relocation events of the in-flight membership event, recorded but
  /// not yet counted (see flush_relocations()); empty between events.
  std::vector<PendingEvent> pending_events_;
  /// The clamped replica target of the last repair pass.
  std::size_t last_repair_target_ = 0;
  /// read_node_of(key, policy) state: the round-robin cursor and the
  /// per-node served-read loads (grown lazily).
  mutable std::uint64_t read_rr_cursor_ = 0;
  mutable std::vector<std::uint64_t> reads_served_;
  /// Scratch buffers, kept for their capacity; the store is
  /// single-threaded and no call nests inside another's use. scratch_
  /// holds a write's fresh set, a repair walk's answer or read_node_of's
  /// live replicas; the repair pass keeps the last walk's runs on
  /// runs_, their sets back to back on run_sets_, and one accumulator
  /// per plan range on repair_acc_.
  mutable std::vector<placement::NodeId> scratch_;
  std::vector<DesiredRun> runs_;
  std::vector<placement::NodeId> run_sets_;
  std::vector<RepairAcc> repair_acc_;
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
