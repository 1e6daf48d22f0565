// cobalt/placement/dht_backend.hpp
//
// PlacementBackend adapters over the paper's two balancing approaches.
//
// A placement node is one snode plus its enrolled vnodes; capacity is
// the enrollment level of section 2.1.2, expressed as vnode count:
// a node of capacity c enrolls round(vnodes_per_node * c) vnodes
// (at least one). With vnodes_per_node == 1 and homogeneous capacity
// this is exactly the figure-9 setup (one vnode per cluster node), and
// sigma() equals the paper's sigma-bar(Qv).
//
// The adapter translates the DHT's vnode-level MutationObserver events
// into node-level RelocationObserver ranges: a partition handover
// becomes an on_relocate over the partition's hash range (from == to
// when both vnodes share the snode), and split/merge waves become
// on_rebucket ranges. Buddy merges during removal drains may hand the
// odd half over implicitly; like the seed KV layer, the adapter
// accounts those as rebucketing, not movement.

#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "dht/dht_base.hpp"
#include "dht/global_dht.hpp"
#include "dht/local_dht.hpp"
#include "placement/replication_spec.hpp"
#include "placement/types.hpp"

namespace cobalt::placement {

/// Parameters of a balanced-DHT backend.
struct DhtBackendOptions {
  /// Model parameters (Pmin, Vmin, pick policy, seed).
  dht::Config dht;

  /// Vnodes a capacity-1.0 node enrolls; the coarse-grain balancement
  /// knob. Scenario drivers use 1 (the paper's figure-9 footprint).
  std::size_t vnodes_per_node = 1;
};

/// Adapter making dht::GlobalDht / dht::LocalDht model PlacementBackend.
template <typename DhtT>
class DhtBackend final : public ReplicationSurface<DhtBackend<DhtT>>,
                         private dht::MutationObserver {
 public:
  using Options = DhtBackendOptions;
  using ReplicationSurface<DhtBackend>::replica_set_into;
  using ReplicationSurface<DhtBackend>::replica_dirty_ranges;

  explicit DhtBackend(Options options);
  ~DhtBackend() override;

  /// Joins a node of relative `capacity`, enrolling vnodes
  /// proportionally; returns its id (== the underlying snode id).
  NodeId add_node(double capacity = 1.0);

  /// Leaves: drains every vnode of the node. Returns false when the
  /// local approach refuses a vnode removal with UnsupportedTopology;
  /// the node then stays live at its full enrollment *count*. A
  /// refusal partway through a multi-vnode drain is an aborted
  /// decommission, not an undo: the vnodes drained before the refusal
  /// are re-enrolled as fresh vnodes, so partition placement may have
  /// changed and the movement both ways is (honestly) accounted to the
  /// RelocationObserver. Requires another live node.
  bool remove_node(NodeId node);

  /// The node responsible for `index`.
  [[nodiscard]] NodeId owner_of(HashIndex index) const;

  /// Ranked distinct owners of the k copies of a key at `index`: the
  /// owner's partition first, then the successor walk over the
  /// partition map in hash order (wrapping), skipping partitions whose
  /// snode already holds a lower-ranked copy. Successor partitions are
  /// how the paper's model expresses adjacency, so this is the direct
  /// analogue of CH's successor-replication.
  /// The set is written into `out` (cleared first); `stop` may end
  /// the walk early (see WalkStop). Returns the last index through
  /// which the set holds: the end of the run of partitions sharing the
  /// owning partition's snode.
  HashIndex replica_set_into(HashIndex index, std::size_t k,
                             std::vector<NodeId>& out,
                             WalkStop stop = {}) const;

  /// A key's replica set changes only when its successor walk crosses
  /// a partition the last membership event transferred, split or
  /// merged before it completes: those partitions' ranges, expanded
  /// backward over the partition map until k distinct keys (snodes, or
  /// their failure domains under a spread) separate a partition from
  /// the range. An event that touched nothing (a refused drain with no
  /// internal rebalance) reports nothing.
  [[nodiscard]] std::vector<HashRange> replica_dirty_ranges(
      std::size_t k, DomainKey key = {}) const;

  [[nodiscard]] std::size_t node_count() const { return live_nodes_; }
  [[nodiscard]] std::size_t node_slot_count() const {
    return node_live_.size();
  }
  [[nodiscard]] bool is_live(NodeId node) const;

  /// Per-node quotas (sum of the node's vnode quotas), live nodes in
  /// id order. Their sigma() equals the paper's sigma-bar(Qv) when
  /// every node enrolls exactly one vnode.
  [[nodiscard]] std::vector<double> quotas() const;

  void set_observer(RelocationObserver* observer) { observer_ = observer; }

  /// The scheme's protocol serialization unit for hash `index` (the
  /// optional concept hook; see placement::serialization_domain_of).
  /// The global approach synchronizes every creation on the one
  /// replicated GPDR - a single domain - while the local approach
  /// synchronizes only the victim group's LPDR: the domain is the
  /// group slot of the partition holding `index` (slots are never
  /// reused, so domain identity is stable across splits). Requires at
  /// least one vnode (the tiling must cover `index`).
  [[nodiscard]] std::uint32_t serialization_domain(HashIndex index) const;

  static std::string_view scheme_name();

  // --- backend-specific surface (not part of the concept) -----------

  /// The underlying balancer (metrics, invariant checks, snapshots).
  /// Read-only: mutating membership behind the adapter would desync
  /// its node bookkeeping - use add_node/remove_node/add_vnode/
  /// remove_vnode/resize_node instead.
  [[nodiscard]] const DhtT& dht() const { return dht_; }

  /// Enrolls one more vnode on `node` (fine-grained elasticity).
  dht::VNodeId add_vnode(NodeId node);

  /// Removes one specific vnode (the local approach may throw
  /// dht::UnsupportedTopology, leaving the DHT unchanged).
  void remove_vnode(dht::VNodeId id);

  /// Enrollment-level change (section 2.1.2: enrollment "is not
  /// necessarily static"): adds or drains vnodes until the node's
  /// enrollment matches `capacity`. Returns false when a drain is
  /// refused partway (the node keeps whatever enrollment it reached).
  bool resize_node(NodeId node, double capacity);

  /// Vnodes currently enrolled by `node`.
  [[nodiscard]] std::size_t vnodes_of(NodeId node) const;

 private:
  // dht::MutationObserver -> RelocationObserver translation.
  void on_transfer(const dht::Partition& partition, dht::VNodeId from,
                   dht::VNodeId to) override;
  void on_split(const dht::Partition& partition, dht::VNodeId owner) override;
  void on_merge(const dht::Partition& parent, dht::VNodeId owner) override;

  [[nodiscard]] std::size_t target_vnodes(double capacity) const;

  Options options_;
  DhtT dht_;
  std::vector<bool> node_live_;  // node id == snode id; never reused
  std::size_t live_nodes_ = 0;
  RelocationObserver* observer_ = nullptr;
  /// Partition ranges the most recent membership operation transferred,
  /// split or merged (accumulated observer or not; cleared at the start
  /// of every membership call), the raw material of
  /// replica_dirty_ranges().
  std::vector<HashRange> last_event_ranges_;
};

/// The base model's one-record approach (section 2).
using GlobalDhtBackend = DhtBackend<dht::GlobalDht>;

/// The paper's contribution: group-local balancement (section 3).
using LocalDhtBackend = DhtBackend<dht::LocalDht>;

}  // namespace cobalt::placement
