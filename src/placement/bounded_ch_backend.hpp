// cobalt/placement/bounded_ch_backend.hpp
//
// PlacementBackend adapter for consistent hashing with bounded loads
// (Mirrokni, Thorup & Zadimoghaddam, '17): the plain ring decides the
// *preferred* owner of a range, but no node may own more than
// (1 + epsilon) times its fair share; ranges whose preferred owner is
// at capacity overflow to the next ring point of a node with spare
// capacity (the paper's forwarding rule).
//
// The adapter layers the rule over the existing ch::ConsistentHashRing
// (point placement, successor lookup) and materializes the resulting
// assignment on a RangeGrid (see range_grid.hpp): cells of R_h are
// assigned in ascending order - a deterministic arrival order, so the
// placement is a pure function of the membership - and every
// membership event refills the assignment in one pass and diffs it
// into coalesced relocation ranges. The pass walks the ring once: the
// cells' successor points ascend with the cells, and a node that
// reaches its cap stays full for the rest of the pass, so its points
// are skipped from then on. Quotas are exact cell counts, so sigma() directly
// shows the load bound at work: no node's quota can exceed
// (1 + epsilon) x its fair share (rounded up to whole cells). Replicas
// come from the GridScheme base's successor walk over the *bounded*
// grid, so they respect the load caps the scheme exists to enforce -
// walking the raw ring instead could rank an at-capacity node as a
// fallback.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "ch/ring.hpp"
#include "placement/range_grid.hpp"
#include "placement/types.hpp"

namespace cobalt::placement {

/// Parameters of a bounded-load consistent-hashing backend.
struct BoundedChBackendOptions {
  /// Seed of the ring's point placement.
  std::uint64_t seed = 0xb0cdedull;

  /// Ring points a capacity-1.0 node places.
  std::size_t virtual_servers = 32;

  /// Load-bound slack: a node of weight w may own at most
  /// ceil((1 + epsilon) * w / W * cells) grid cells. Must be positive
  /// (epsilon == 0 can make the assignment infeasible on a quantized
  /// grid). 0.1 is the classic operating point: tight enough that the
  /// cap visibly pulls sigma below the plain ring's level.
  double epsilon = 0.1;

  /// Grid resolution: ownership is piecewise constant on 2^grid_bits
  /// equal cells of R_h.
  unsigned grid_bits = 14;
};

/// Adapter making bounded-load consistent hashing model
/// PlacementBackend.
class BoundedChBackend final : public GridScheme<BoundedChBackend> {
 public:
  using Options = BoundedChBackendOptions;

  explicit BoundedChBackend(Options options);

  /// Joins a node of relative `capacity` (ring points and load cap
  /// both scale with it).
  NodeId add_node(double capacity = 1.0);

  /// Leaves; bounded-load CH can always express a removal (never
  /// refuses). Requires another live node.
  bool remove_node(NodeId node);

  static std::string_view scheme_name() { return "bounded-ch"; }

  // --- backend-specific surface (not part of the concept) -----------

  /// The underlying (unbounded) ring deciding preferred owners.
  [[nodiscard]] const ch::ConsistentHashRing& ring() const { return ring_; }

  /// The cell cap currently applied to `node` (0 when departed).
  [[nodiscard]] std::size_t cap_of(NodeId node) const;

 private:
  /// Refills the bounded assignment from the ring and the caps in one
  /// pass and diffs it against the previous one through the observer.
  void rebuild();

  Options options_;
  ch::ConsistentHashRing ring_;
  std::vector<double> node_weight_;  // per slot; 0 when departed
  std::vector<std::size_t> node_cap_;  // cells, recomputed per rebuild
};

}  // namespace cobalt::placement
