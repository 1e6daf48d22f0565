// cobalt/placement/ch_backend.hpp
//
// PlacementBackend adapter over the Consistent Hashing reference model
// (section 4.3 of the paper).
//
// A placement node is one ring node; capacity is expressed in ring
// points: a node of capacity c places round(virtual_servers * c)
// virtual servers (at least one) - the CFS construction the paper
// cites for heterogeneous CH. sigma() is sigma-bar(Qn), the metric
// plotted on the CH side of figure 9.
//
// Relocation events come straight from the ring's arc transfers: a
// join steals arcs (reported from their previous owners), a leave
// accretes the node's arcs to the successors.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "ch/ring.hpp"
#include "placement/replication_spec.hpp"
#include "placement/types.hpp"

namespace cobalt::placement {

/// Parameters of a Consistent Hashing backend.
struct ChBackendOptions {
  /// Seed of the ring's point placement.
  std::uint64_t seed = 0x0ba1a9ced7ab1e5ull;

  /// Ring points a capacity-1.0 node places ("partitions per node" in
  /// the paper's figure-9 vocabulary).
  std::size_t virtual_servers = 32;
};

/// Adapter making ch::ConsistentHashRing model PlacementBackend.
class ChBackend final : public ReplicationSurface<ChBackend> {
 public:
  using Options = ChBackendOptions;
  using ReplicationSurface::replica_set_into;
  using ReplicationSurface::replica_dirty_ranges;

  explicit ChBackend(Options options);

  /// Joins a node of relative `capacity` (ring points scale with it).
  NodeId add_node(double capacity = 1.0);

  /// Leaves; CH can always express a removal (never refuses). Requires
  /// another live node.
  bool remove_node(NodeId node);

  [[nodiscard]] NodeId owner_of(HashIndex index) const;

  /// Ranked distinct owners of the k copies of a key at `index`: the
  /// classic CH successor walk (Chord/Dynamo replication) - the ring
  /// points at or after `index`, wrapping, skipping points of nodes
  /// that already hold a lower-ranked copy.
  /// The set is written into `out` (cleared first); `stop` may end
  /// the walk early (see WalkStop). Returns the last index through
  /// which the set holds: the end of the run of arcs whose points
  /// share the owning point's node.
  HashIndex replica_set_into(HashIndex index, std::size_t k,
                             std::vector<NodeId>& out,
                             WalkStop stop = {}) const;

  /// A key's replica set changes only when its successor walk crosses
  /// a ring point the last membership event inserted or removed before
  /// it completes: each transferred arc, expanded backward over the
  /// ring until k distinct keys (nodes, or their failure domains under
  /// a spread) separate a point from it.
  [[nodiscard]] std::vector<HashRange> replica_dirty_ranges(
      std::size_t k, DomainKey key = {}) const;

  [[nodiscard]] std::size_t node_count() const { return ring_.node_count(); }
  [[nodiscard]] std::size_t node_slot_count() const {
    return ring_.node_slot_count();
  }
  [[nodiscard]] bool is_live(NodeId node) const { return ring_.is_live(node); }

  /// Per-node quotas Qn, live nodes in id order (their sigma() is
  /// sigma-bar(Qn), the CH side of figure 9).
  [[nodiscard]] std::vector<double> quotas() const { return ring_.quotas(); }

  void set_observer(RelocationObserver* observer) { observer_ = observer; }

  static std::string_view scheme_name() { return "ch"; }

  // --- backend-specific surface (not part of the concept) -----------

  /// The underlying ring (point counts, exact arc units).
  [[nodiscard]] const ch::ConsistentHashRing& ring() const { return ring_; }

 private:
  [[nodiscard]] std::size_t target_points(double capacity) const;
  void forward(const std::vector<ch::ArcTransfer>& events);

  Options options_;
  ch::ConsistentHashRing ring_;
  RelocationObserver* observer_ = nullptr;
  /// Arc transfers of the most recent membership event (kept observer
  /// or not), the raw material of replica_dirty_ranges().
  std::vector<ch::ArcTransfer> last_event_;
};

}  // namespace cobalt::placement
