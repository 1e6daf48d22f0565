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
// relocation diffs are exactly consistent. The table size is a power
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
#include "placement/replication_spec.hpp"
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
class MaglevBackend final : public ReplicationSurface<MaglevBackend> {
 public:
  using Options = MaglevBackendOptions;
  using ReplicationSurface::replica_set_into;
  using ReplicationSurface::replica_dirty_ranges;

  explicit MaglevBackend(Options options);

  MaglevBackend(const MaglevBackend&) = delete;
  MaglevBackend& operator=(const MaglevBackend&) = delete;

  /// Joins a node of relative `capacity` (its claim rate in the
  /// weighted table fill).
  NodeId add_node(double capacity = 1.0);

  /// Leaves; maglev can always express a removal (never refuses).
  /// Requires another live node.
  bool remove_node(NodeId node);

  [[nodiscard]] NodeId owner_of(HashIndex index) const {
    return table_.owner_of(index);
  }

  /// Ranked distinct owners of the k copies of a key at `index`: the
  /// lookup-table probe (forward slot walk from the owning slot,
  /// first-encounter order) - the maglev analogue of successor
  /// replication, exactly consistent with owner_of.
  /// The set is written into `out` (cleared first); `stop` may end
  /// the walk early (see WalkStop).
  void replica_set_into(HashIndex index, std::size_t k,
                        std::vector<NodeId>& out, WalkStop stop = {}) const {
    grid_replica_walk_into(table_, index, k, node_count(), out, stop);
  }

  /// The table refill reshuffles slots table-wide, but the refill diff
  /// is exact: only walks that can reach a reassigned slot change, so
  /// the changed runs expanded backward by k distinct owners bound the
  /// repair honestly (usually most of the table - the scheme's
  /// documented trade-off - but nothing on a no-op event).
  [[nodiscard]] std::vector<HashRange> replica_dirty_ranges(
      std::size_t k) const {
    return grid_replica_dirty_ranges(table_, k);
  }

  [[nodiscard]] std::size_t node_count() const { return live_nodes_; }
  [[nodiscard]] std::size_t node_slot_count() const {
    return node_live_.size();
  }
  [[nodiscard]] bool is_live(NodeId node) const {
    return node < node_live_.size() && node_live_[node];
  }

  /// Per-node quotas (table entries / table size), live nodes in id
  /// order.
  [[nodiscard]] std::vector<double> quotas() const {
    return grid_quotas(table_, node_live_);
  }

  /// sigma-bar of the per-node quotas (the figure-9 metric).
  [[nodiscard]] double sigma() const;

  void set_observer(RelocationObserver* observer) { observer_ = observer; }

  static std::string_view scheme_name() { return "maglev"; }

  // --- backend-specific surface (not part of the concept) -----------

  /// The lookup table (exact slot-level placement).
  [[nodiscard]] const RangeGrid& table() const { return table_; }

 private:
  /// Repopulates the lookup table from the live set and diffs it
  /// against the previous population through the observer.
  void repopulate();

  Options options_;
  RangeGrid table_;
  std::vector<double> node_weight_;        // per slot; 0 when departed
  std::vector<std::uint64_t> node_offset_;  // permutation start
  std::vector<std::uint64_t> node_skip_;    // permutation stride (odd)
  std::vector<bool> node_live_;
  std::size_t live_nodes_ = 0;
  Xoshiro256 rng_;
  RelocationObserver* observer_ = nullptr;
};

}  // namespace cobalt::placement
