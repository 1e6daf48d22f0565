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
// An event re-hashes only the cells that move: each cell keeps its
// next jump candidate (the first one >= the bucket count), so a join
// re-derives the cells whose candidate is the new bucket and a leave
// the cells of the vanishing tail bucket, while the hole's cells just
// follow the remap.
// Jump hash defines no replica rule; the GridScheme base's forward cell
// walk over the materialized table ranks the replicas, exactly
// consistent with owner_of.
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
class JumpBackend final : public GridScheme<JumpBackend> {
 public:
  using Options = JumpBackendOptions;

  explicit JumpBackend(Options options);

  /// Joins a node as the new tail bucket. Jump hash has no weighting
  /// mechanism, so only capacity == 1.0 is accepted.
  NodeId add_node(double capacity = 1.0);

  /// Leaves via the bucket remap layer (never refuses). Requires
  /// another live node.
  bool remove_node(NodeId node);

  static std::string_view scheme_name() { return "jump"; }

  // --- backend-specific surface (not part of the concept) -----------

  /// The bucket currently mapped to `node` (kNoBucket when departed).
  static constexpr std::size_t kNoBucket = ~std::size_t{0};
  [[nodiscard]] std::size_t bucket_of(NodeId node) const;

 private:
  /// Re-hashes `cell` over the current bucket count: stores its next
  /// jump candidate and returns the owner of its bucket.
  NodeId derive(std::size_t cell);

  Options options_;
  std::vector<NodeId> slots_;          // bucket -> node
  std::vector<std::size_t> node_bucket_;  // node -> bucket, kNoBucket dead
  // Per cell: the first jump candidate >= the bucket count (clamped to
  // 32 bits). A cell's bucket is node_bucket_ of its grid owner.
  std::vector<std::uint32_t> candidate_;
};

}  // namespace cobalt::placement
