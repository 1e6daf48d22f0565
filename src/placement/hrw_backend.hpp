// cobalt/placement/hrw_backend.hpp
//
// PlacementBackend adapter for weighted rendezvous (highest-random-
// weight, HRW) hashing (Thaler & Ravishankar '96).
//
// Every (cell, node) pair gets an independent pseudo-random draw and
// the cell belongs to the node with the highest score; weighting uses
// the logarithm method (score = -w / ln(u), u uniform in (0,1)), which
// makes a node's expected quota exactly proportional to its weight.
// capacity is the weight, so heterogeneity needs no extra machinery.
//
// Ownership is defined on a RangeGrid (see range_grid.hpp): routing,
// quotas and relocation accounting all read the same sampled-range
// table, and membership events are diffed into coalesced on_relocate
// ranges. A join is incremental (the new node's score is compared
// against each cell's stored winning score, O(cells)); a leave
// recomputes only the cells the departed node owned (O(cells owned x
// live nodes), i.e. O(cells) in expectation).

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

/// Parameters of a rendezvous-hashing backend.
struct HrwBackendOptions {
  /// Seed of the per-node draw tags.
  std::uint64_t seed = 0x48725721ull;

  /// Grid resolution: ownership is piecewise constant on 2^grid_bits
  /// equal cells of R_h.
  unsigned grid_bits = 14;
};

/// Adapter making weighted rendezvous hashing model PlacementBackend.
class HrwBackend final : public ReplicationSurface<HrwBackend> {
 public:
  using Options = HrwBackendOptions;
  using ReplicationSurface::replica_set_into;
  using ReplicationSurface::replica_dirty_ranges;

  explicit HrwBackend(Options options);

  HrwBackend(const HrwBackend&) = delete;
  HrwBackend& operator=(const HrwBackend&) = delete;

  /// Joins a node of relative `capacity` (its rendezvous weight).
  NodeId add_node(double capacity = 1.0);

  /// Leaves; HRW can always express a removal (never refuses).
  /// Requires another live node.
  bool remove_node(NodeId node);

  [[nodiscard]] NodeId owner_of(HashIndex index) const {
    return grid_.owner_of(index);
  }

  /// Ranked distinct owners of the k copies of a key at `index`: the
  /// live nodes in descending rendezvous-score order for the cell
  /// containing `index` - HRW's native replication rule (every rank is
  /// an independent rendezvous, so replica placement inherits the
  /// weighting). Rank 0 is the grid's stored winner; the other ranks
  /// are heap pops, so a walk `stop` ends early never sorts the rest.
  /// The set is written into `out` (cleared first); the score ranking
  /// reuses a thread-local scratch buffer, so concurrent const calls
  /// (the store's shard-parallel repair) are safe.
  void replica_set_into(HashIndex index, std::size_t k,
                        std::vector<NodeId>& out, WalkStop stop = {}) const;

  /// Rank 0 changes exactly on the grid's changed cells, but every
  /// deeper rank is an independent rendezvous: a join can score into
  /// any cell's top k and a leave can vacate it, so for k > 1 every
  /// membership event honestly dirties the full range (this is the
  /// price of HRW's per-rank independence, and why its repair pass
  /// stays table-wide in the abl8 comparison).
  [[nodiscard]] std::vector<HashRange> replica_dirty_ranges(
      std::size_t k) const;

  [[nodiscard]] std::size_t node_count() const { return live_nodes_; }
  [[nodiscard]] std::size_t node_slot_count() const {
    return node_live_.size();
  }
  [[nodiscard]] bool is_live(NodeId node) const {
    return node < node_live_.size() && node_live_[node];
  }

  /// Per-node quotas (cells owned / grid size), live nodes in id order.
  [[nodiscard]] std::vector<double> quotas() const {
    return grid_quotas(grid_, node_live_);
  }

  /// sigma-bar of the per-node quotas (the figure-9 metric).
  [[nodiscard]] double sigma() const;

  void set_observer(RelocationObserver* observer) { observer_ = observer; }

  static std::string_view scheme_name() { return "hrw"; }

  // --- backend-specific surface (not part of the concept) -----------

  /// The ownership grid (exact cell-level placement).
  [[nodiscard]] const RangeGrid& grid() const { return grid_; }

  /// The rendezvous weight `node` joined with (0 when departed).
  [[nodiscard]] double weight_of(NodeId node) const;

  /// The weighted rendezvous score of (cell, node): the key of the
  /// replica ranking (score descending, ties by ascending id).
  [[nodiscard]] double score(std::size_t cell, NodeId node) const;

 private:

  Options options_;
  RangeGrid grid_;
  std::vector<double> winning_score_;  // per cell, matches grid_ owners
  std::vector<double> node_weight_;    // per node slot; 0 when departed
  std::vector<std::uint64_t> node_draw_;  // per-node random score tag
  std::vector<bool> node_live_;
  std::size_t live_nodes_ = 0;
  Xoshiro256 rng_;
  RelocationObserver* observer_ = nullptr;
};

}  // namespace cobalt::placement
