// cobalt/placement/jump_backend.hpp
//
// PlacementBackend adapter for jump consistent hash (Lamping & Veach,
// "A Fast, Minimal Memory, Consistent Hash Algorithm").
//
// Jump hash maps a 64-bit key to a bucket in [0, buckets) with the
// minimal-disruption property, but only for growth/shrink at the tail:
// the algorithm has no notion of removing bucket 3 of 10. The adapter
// makes removal of an arbitrary node honest with a remap layer between
// buckets and nodes: bucket b is owned by slots_[b], and removing a
// non-tail node moves the tail node's bucket into the hole before the
// bucket count shrinks. The departed node's keys land on the relocated
// tail node and the keys of the disappearing last bucket redistribute
// jump-style - both effects are reported exactly, because ownership is
// diffed on the RangeGrid (see range_grid.hpp) after every event.
//
// Jump hash is unweighted by construction: every bucket has the same
// expected quota, so add_node accepts only capacity == 1.0 (a weighted
// deployment would enroll one node as several buckets; that is a
// different scheme and the adapter refuses to fake it).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "placement/range_grid.hpp"
#include "placement/replication_spec.hpp"
#include "placement/types.hpp"

namespace cobalt::placement {

/// Parameters of a jump-consistent-hash backend.
struct JumpBackendOptions {
  /// Seed mixed into every cell key, decorrelating two backends.
  std::uint64_t seed = 0x10a9ull;

  /// Grid resolution: ownership is piecewise constant on 2^grid_bits
  /// equal cells of R_h.
  unsigned grid_bits = 14;
};

/// Adapter making jump consistent hash model PlacementBackend.
class JumpBackend final : public ReplicationSurface<JumpBackend> {
 public:
  using Options = JumpBackendOptions;
  using ReplicationSurface::replica_set_into;
  using ReplicationSurface::replica_dirty_ranges;

  explicit JumpBackend(Options options);

  JumpBackend(const JumpBackend&) = delete;
  JumpBackend& operator=(const JumpBackend&) = delete;

  /// Joins a node as the new tail bucket. Jump hash has no weighting
  /// mechanism, so only capacity == 1.0 is accepted.
  NodeId add_node(double capacity = 1.0);

  /// Leaves via the bucket remap layer (never refuses). Requires
  /// another live node.
  bool remove_node(NodeId node);

  [[nodiscard]] NodeId owner_of(HashIndex index) const {
    return grid_.owner_of(index);
  }

  /// Ranked distinct owners of the k copies of a key at `index`: the
  /// table probe of range_grid.hpp (forward cell walk from the owning
  /// cell, first-encounter order). Jump hash itself defines no replica
  /// rule; probing the materialized table keeps the set exactly
  /// consistent with owner_of.
  /// The set is written into `out` (cleared first).
  void replica_set_into(HashIndex index, std::size_t k,
                        std::vector<NodeId>& out) const {
    grid_replica_walk_into(grid_, index, k, out);
  }

  /// Replica sets change only where a forward cell walk can reach a
  /// cell the last rebuild reassigned: the grid's changed runs,
  /// expanded backward by k distinct owners.
  [[nodiscard]] std::vector<HashRange> replica_dirty_ranges(
      std::size_t k) const {
    return grid_replica_dirty_ranges(grid_, k);
  }

  [[nodiscard]] std::size_t node_count() const { return slots_.size(); }
  [[nodiscard]] std::size_t node_slot_count() const {
    return node_bucket_.size();
  }
  [[nodiscard]] bool is_live(NodeId node) const {
    return node < node_bucket_.size() && node_bucket_[node] != kNoBucket;
  }

  /// Per-node quotas (cells owned / grid size), live nodes in id order.
  [[nodiscard]] std::vector<double> quotas() const;

  /// sigma-bar of the per-node quotas (the figure-9 metric).
  [[nodiscard]] double sigma() const;

  void set_observer(RelocationObserver* observer) { observer_ = observer; }

  static std::string_view scheme_name() { return "jump"; }

  // --- backend-specific surface (not part of the concept) -----------

  /// The ownership grid (exact cell-level placement).
  [[nodiscard]] const RangeGrid& grid() const { return grid_; }

  /// The bucket currently mapped to `node` (kNoBucket when departed).
  static constexpr std::size_t kNoBucket = ~std::size_t{0};
  [[nodiscard]] std::size_t bucket_of(NodeId node) const;

 private:
  /// Recomputes the full grid ownership from the current bucket layout
  /// and diffs it against the previous one through the observer.
  void rebuild();

  Options options_;
  RangeGrid grid_;
  std::vector<NodeId> slots_;          // bucket -> node
  std::vector<std::size_t> node_bucket_;  // node -> bucket, kNoBucket dead
  RelocationObserver* observer_ = nullptr;
};

}  // namespace cobalt::placement
