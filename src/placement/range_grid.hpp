// cobalt/placement/range_grid.hpp
//
// Shared ownership grid of the table-driven placement backends (HRW,
// jump, maglev, bounded-load CH).
//
// Those schemes define ownership per *key*, not per contiguous hash
// range, so their relocation events cannot be expressed as a handful of
// exact arcs the way the ring or the partition map can. Instead they
// quantize R_h into 2^bits equal cells and define ownership to be
// piecewise constant on the cells: owner_of(index) is the owner of the
// cell containing index, quotas are exact cell counts over the grid,
// and a membership event is diffed cell-by-cell against the previous
// ownership, with runs of identically-moving cells coalesced into the
// inclusive, never-wrapping ranges the RelocationObserver contract
// requires. Quantizing first makes routing, quotas and relocation
// accounting exactly consistent with each other - the same property
// the exact backends get from their native range structures.
//
// GridScheme below is the one base of those four adapters: it owns the
// grid, the observer and the live-node registry and answers routing,
// quotas, the registry probes and - for jump, maglev and bounded-load
// CH - the successor walk over the cells and its dirty report, the
// same two templates (successor_walk.hpp) the ring and the partition
// map run. A scheme adds only its Options, its membership calls and
// the fill of its owner table.

#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "placement/replication_spec.hpp"
#include "placement/successor_walk.hpp"
#include "placement/types.hpp"

namespace cobalt::placement {

/// R_h quantized into 2^bits equal cells with one owner per cell.
class RangeGrid {
 public:
  /// `bits` in [1, 30]: grids are dense arrays, so resolution is a
  /// memory/precision trade-off (2^bits cells of 4 bytes each).
  explicit RangeGrid(unsigned bits);

  /// Number of cells (2^bits).
  [[nodiscard]] std::size_t size() const { return owners_.size(); }

  /// Grid resolution in bits.
  [[nodiscard]] unsigned bits() const { return bits_; }

  /// The cell containing `index`.
  [[nodiscard]] std::size_t cell_of(HashIndex index) const {
    return static_cast<std::size_t>(index >> shift_);
  }

  /// First / last (inclusive) hash index of `cell`.
  [[nodiscard]] HashIndex cell_first(std::size_t cell) const {
    return static_cast<HashIndex>(cell) << shift_;
  }
  [[nodiscard]] HashIndex cell_last(std::size_t cell) const {
    return cell_first(cell) | ((HashIndex{1} << shift_) - 1);
  }

  /// Owner of `cell` (kInvalidNode before any node joined).
  [[nodiscard]] NodeId owner(std::size_t cell) const { return owners_[cell]; }

  /// Owner of the cell containing `index`.
  [[nodiscard]] NodeId owner_of(HashIndex index) const {
    return owners_[cell_of(index)];
  }

  /// The full ownership table (one entry per cell).
  [[nodiscard]] const std::vector<NodeId>& owners() const { return owners_; }

  /// Replaces the ownership table with `next`, reporting every changed
  /// cell to `observer` (when non-null) as coalesced on_relocate
  /// ranges: maximal runs of adjacent cells moving from the same owner
  /// to the same owner become one inclusive range. Cells previously
  /// unowned (bootstrap) are not reported, matching the other
  /// backends' "the first node reports nothing" convention.
  ///
  /// The changed cells are also remembered (observer or not) as the
  /// coalesced runs of last_changes(), the raw material of the
  /// grid-backed schemes' replica_dirty_ranges().
  void assign(std::vector<NodeId> next, RelocationObserver* observer);

  /// Cells owned per node over slots [0, slot_count); unowned cells
  /// (possible only before the first join) are not counted.
  [[nodiscard]] std::vector<std::size_t> cell_counts(
      std::size_t slot_count) const;

  /// Coalesced [first, last] cell runs whose owner changed in the most
  /// recent assign() (bootstrap cells excluded, like the observer
  /// convention). Empty when the last assign changed nothing.
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>&
  last_changes() const {
    return last_changes_;
  }

 private:
  unsigned bits_;
  unsigned shift_;
  std::vector<NodeId> owners_;
  std::vector<std::pair<std::size_t, std::size_t>> last_changes_;
};

/// The shared base of the grid-backed schemes (CRTP over
/// ReplicationSurface): owns the RangeGrid, the relocation observer
/// and the live-node registry, and supplies everything a scheme derives
/// from them - routing, the registry probes, quotas and the successor
/// walk over the cells with its dirty report (successor_walk.hpp). A
/// scheme keeps its Options, add_node/remove_node and the fill of its
/// owner table, which it installs with assign(). HRW replaces the walk
/// and the dirty report with its score order and exact-cell tracker.
template <typename Backend>
class GridScheme : public ReplicationSurface<Backend> {
 public:
  using ReplicationSurface<Backend>::replica_set_into;
  using ReplicationSurface<Backend>::replica_dirty_ranges;

  [[nodiscard]] NodeId owner_of(HashIndex index) const {
    return grid_.owner_of(index);
  }

  /// Ranked distinct owners of the k copies of a key at `index`: the
  /// forward cell walk from the owning cell (wrapping), in
  /// first-encounter order - the table probe that keeps the set
  /// exactly consistent with owner_of. The walk only ever sees live
  /// nodes, because every membership event reassigns all cells of a
  /// departed owner. The set is written into `out` (cleared first);
  /// `stop` may end the walk early (see WalkStop). Returns the last
  /// index through which the set holds: the end of the run of cells
  /// sharing the owning cell's owner.
  HashIndex replica_set_into(HashIndex index, std::size_t k,
                             std::vector<NodeId>& out,
                             WalkStop stop = {}) const {
    return successor_walk_into(Cells{grid_}, index, k, live_ids_.size(), out,
                               stop);
  }

  /// Replica sets change only where a forward cell walk can reach a
  /// cell the last assign() changed before it completes: the changed
  /// runs, expanded backward by k distinct keys (owners, or their
  /// failure domains under a spread; see successor_walk.hpp).
  [[nodiscard]] std::vector<HashRange> replica_dirty_ranges(
      std::size_t k, DomainKey key = {}) const {
    return successor_dirty_ranges(Cells{grid_}, grid_.last_changes(), k, key);
  }

  [[nodiscard]] std::size_t node_count() const { return live_ids_.size(); }
  [[nodiscard]] std::size_t node_slot_count() const {
    return node_live_.size();
  }
  [[nodiscard]] bool is_live(NodeId node) const {
    return node < node_live_.size() && node_live_[node];
  }

  /// Per-node quotas (cells owned / grid size), live nodes in id order.
  [[nodiscard]] std::vector<double> quotas() const {
    const auto counts = grid_.cell_counts(node_live_.size());
    const double total = static_cast<double>(grid_.size());
    std::vector<double> quotas;
    for (const NodeId node : live_ids_) {
      quotas.push_back(static_cast<double>(counts[node]) / total);
    }
    return quotas;
  }

  void set_observer(RelocationObserver* observer) { observer_ = observer; }

  /// The ownership grid (exact cell-level placement).
  [[nodiscard]] const RangeGrid& grid() const { return grid_; }

 protected:
  explicit GridScheme(unsigned grid_bits) : grid_(grid_bits) {}

  /// Registers a joining node under the next dense id.
  NodeId enroll() {
    const auto id = static_cast<NodeId>(node_live_.size());
    node_live_.push_back(true);
    live_ids_.push_back(id);
    return id;
  }

  /// Deregisters a leaving node; requires another live node.
  void retire(NodeId node) {
    COBALT_REQUIRE(is_live(node), "node is not live");
    COBALT_REQUIRE(live_ids_.size() >= 2, "cannot remove the last live node");
    node_live_[node] = false;
    live_ids_.erase(std::lower_bound(live_ids_.begin(), live_ids_.end(), node));
  }

  /// Installs a rebuilt owner table, reporting the moved cells to the
  /// observer (see RangeGrid::assign).
  void assign(std::vector<NodeId> next) {
    grid_.assign(std::move(next), observer_);
  }

  RangeGrid grid_;
  std::vector<bool> node_live_;  // per node slot; ids are never reused
  // The live ids, ascending: a loop over live nodes visits them in id
  // order (every tie-break is by id) without scanning departed slots.
  std::vector<NodeId> live_ids_;

 private:
  /// The cells as a successor-walk segment sequence; a change is one
  /// last_changes() run, whose expansion stops short of re-entering it.
  struct Cells {
    const RangeGrid& grid;

    std::size_t locate(HashIndex index) const { return grid.cell_of(index); }
    NodeId owner(std::size_t cell) const { return grid.owner(cell); }
    std::size_t next(std::size_t cell) const {
      return (cell + 1) & (grid.size() - 1);
    }
    std::size_t prev(std::size_t cell) const {
      return (cell - 1) & (grid.size() - 1);
    }
    HashIndex last(std::size_t cell) const { return grid.cell_last(cell); }
    std::size_t size() const { return grid.size(); }
    HashRange span(const auto& run) const {
      return {grid.cell_first(run.first), grid.cell_last(run.second)};
    }
    std::size_t reach(const auto& run) const {
      return grid.size() - (run.second - run.first + 1);
    }
  };

  RelocationObserver* observer_ = nullptr;
};

}  // namespace cobalt::placement
