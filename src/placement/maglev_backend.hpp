// cobalt/placement/maglev_backend.hpp
//
// PlacementBackend adapter for maglev hashing (Eisenbud et al.,
// NSDI'16): every node owns a pseudo-random permutation of the lookup
// table's slots and the table is filled by round-robin turns, each
// node claiming the first unclaimed slot of its permutation. The
// result is a near-perfectly even table (entry counts differ by at
// most a few slots) at the cost of table-wide reshuffling on
// membership changes - the opposite trade-off to CH's minimal
// disruption, which is exactly why it belongs in the comparison.
//
// The lookup table IS the ownership grid (see range_grid.hpp): table
// slot t covers the t-th equal cell of R_h, so routing, quotas and
// relocation diffs are exactly consistent, and the GridScheme base's
// forward slot walk is the maglev analogue of successor replication.
// The refill reshuffles slots table-wide, but its diff is exact, so the
// dirty report (usually most of the table - the scheme's documented
// trade-off) is nothing on a no-op event. The table size is a power
// of two rather than the paper's prime; permutation skips are forced
// odd, which keeps them coprime with the table size so every
// permutation still visits every slot.
//
// capacity weights the fill: a node of capacity c takes c claims per
// round (accumulated fractionally), so its table share - and therefore
// its quota - is proportional to its weight.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "placement/range_grid.hpp"
#include "placement/types.hpp"

namespace cobalt::placement {

/// Parameters of a maglev-hashing backend.
struct MaglevBackendOptions {
  /// Seed of the per-node permutation parameters.
  std::uint64_t seed = 0x3a91efull;

  /// Lookup-table resolution: 2^table_bits slots. The maglev paper
  /// recommends a table much larger than the node count; entry-count
  /// imbalance is at most one claim round.
  unsigned table_bits = 14;
};

/// Adapter making maglev hashing model PlacementBackend.
class MaglevBackend final : public GridScheme<MaglevBackend> {
 public:
  using Options = MaglevBackendOptions;

  explicit MaglevBackend(Options options);

  /// Joins a node of relative `capacity` (its claim rate in the
  /// weighted table fill).
  NodeId add_node(double capacity = 1.0);

  /// Leaves; maglev can always express a removal (never refuses).
  /// Requires another live node.
  bool remove_node(NodeId node);

  static std::string_view scheme_name() { return "maglev"; }

 private:
  /// Repopulates the lookup table from the live set and diffs it
  /// against the previous population through the observer.
  void repopulate();

  Options options_;
  std::vector<double> node_weight_;        // per slot; 0 when departed
  std::vector<std::uint64_t> node_offset_;  // permutation start
  std::vector<std::uint64_t> node_skip_;    // permutation stride (odd)
  Xoshiro256 rng_;
};

}  // namespace cobalt::placement
