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

#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
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

/// Per-node quotas of a grid-backed scheme: cells owned / total cells,
/// live nodes in ascending id order (the quotas() contract of the
/// PlacementBackend concept).
std::vector<double> grid_quotas(const RangeGrid& grid,
                                const std::vector<bool>& node_live);

/// The replica_set of a grid-backed scheme: walk the cells forward from
/// the cell containing `index` (wrapping), collecting distinct owners
/// in first-encounter order, until `k` nodes are found or the walk
/// comes full circle. Element 0 is the grid's own owner_of(index), so
/// the result satisfies the rank-0 invariant of the PlacementBackend
/// concept by construction; the walk only ever sees live nodes because
/// membership events reassign every cell of a departed owner. `out` is
/// cleared first.
void grid_replica_walk_into(const RangeGrid& grid, HashIndex index,
                            std::size_t k, std::vector<NodeId>& out);

/// The replica_dirty_ranges of a walk-replicated grid scheme: every
/// changed cell run of the grid's most recent assign(), expanded
/// backward (wrapping) until k distinct owners separate a cell from
/// the run - a forward replica walk starting behind that boundary
/// finds its k owners before reaching any changed cell, so its set
/// cannot have changed. Falls back to the full range when no such
/// boundary exists within one circle (k not smaller than the distinct
/// owner count).
std::vector<HashRange> grid_replica_dirty_ranges(const RangeGrid& grid,
                                                 std::size_t k);

}  // namespace cobalt::placement
