#include "placement/range_grid.hpp"

#include <algorithm>

namespace cobalt::placement {

RangeGrid::RangeGrid(unsigned bits)
    : bits_(bits), shift_(HashSpace::kBits - bits) {
  COBALT_REQUIRE(bits >= 1 && bits <= 30,
                 "grid resolution must be between 1 and 30 bits");
  owners_.assign(std::size_t{1} << bits, kInvalidNode);
}

void RangeGrid::assign(std::vector<NodeId> next, RelocationObserver* observer) {
  COBALT_INVARIANT(next.size() == owners_.size(),
                   "grid reassignment must keep the resolution");
  last_changes_.clear();
  const std::size_t n = owners_.size();
  std::size_t i = 0;
  while (i < n) {
    const NodeId from = owners_[i];
    const NodeId to = next[i];
    if (from == to || from == kInvalidNode) {
      ++i;
      continue;
    }
    // The changed-cell run for dirty tracking spans every changed
    // cell; the observer additionally wants it cut into maximal
    // same-(from, to) sub-runs.
    std::size_t run_end = i + 1;
    while (run_end < n && owners_[run_end] != next[run_end] &&
           owners_[run_end] != kInvalidNode) {
      ++run_end;
    }
    last_changes_.emplace_back(i, run_end - 1);
    if (observer != nullptr) {
      std::size_t sub = i;
      while (sub < run_end) {
        const NodeId sub_from = owners_[sub];
        const NodeId sub_to = next[sub];
        std::size_t j = sub + 1;
        while (j < run_end && owners_[j] == sub_from && next[j] == sub_to) {
          ++j;
        }
        observer->on_relocate(cell_first(sub), cell_last(j - 1), sub_from,
                              sub_to);
        sub = j;
      }
    }
    i = run_end;
  }
  owners_ = std::move(next);
}

std::vector<std::size_t> RangeGrid::cell_counts(std::size_t slot_count) const {
  std::vector<std::size_t> counts(slot_count, 0);
  for (const NodeId owner : owners_) {
    if (owner == kInvalidNode) continue;
    COBALT_INVARIANT(owner < slot_count, "grid owner outside the registry");
    ++counts[owner];
  }
  return counts;
}

std::vector<double> grid_quotas(const RangeGrid& grid,
                                const std::vector<bool>& node_live) {
  const auto counts = grid.cell_counts(node_live.size());
  const double total = static_cast<double>(grid.size());
  std::vector<double> quotas;
  for (NodeId node = 0; node < node_live.size(); ++node) {
    if (!node_live[node]) continue;
    quotas.push_back(static_cast<double>(counts[node]) / total);
  }
  return quotas;
}

void grid_replica_walk_into(const RangeGrid& grid, HashIndex index,
                            std::size_t k, std::size_t live_nodes,
                            std::vector<NodeId>& out, WalkStop stop) {
  COBALT_REQUIRE(k >= 1, "a replica set needs at least one member");
  out.clear();
  const std::size_t want = std::min(k, live_nodes);
  const std::size_t cells = grid.size();
  const std::size_t start = grid.cell_of(index);
  for (std::size_t step = 0; step < cells && out.size() < want; ++step) {
    const NodeId owner = grid.owner((start + step) & (cells - 1));
    if (owner == kInvalidNode) continue;  // pre-bootstrap grid only
    if (std::find(out.begin(), out.end(), owner) == out.end()) {
      out.push_back(owner);
      if (stop(owner)) return;
    }
  }
}

std::vector<HashRange> grid_replica_dirty_ranges(const RangeGrid& grid,
                                                 std::size_t k) {
  COBALT_REQUIRE(k >= 1, "a replica set needs at least one member");
  std::vector<HashRange> dirty;
  const std::size_t cells = grid.size();
  const std::size_t mask = cells - 1;
  for (const auto& [run_first, run_last] : grid.last_changes()) {
    // Walk backward from the run until k distinct owners separate a
    // cell from it; a replica walk starting at or before that cell
    // finds its k owners without entering the run.
    std::vector<NodeId> seen;
    const std::size_t run_len = run_last - run_first + 1;
    std::size_t dirty_first = run_first;
    bool bounded = false;
    std::size_t cell = run_first;
    for (std::size_t step = 0; step + run_len < cells; ++step) {
      cell = (cell + mask) & mask;  // cell - 1, wrapping
      const NodeId owner = grid.owner(cell);
      if (owner != kInvalidNode &&
          std::find(seen.begin(), seen.end(), owner) == seen.end()) {
        seen.push_back(owner);
      }
      if (seen.size() >= k) {  // `cell` itself already finds k owners
        bounded = true;
        break;
      }
      dirty_first = cell;
    }
    if (!bounded) return {{0, HashSpace::kMaxIndex}};
    const HashIndex first = grid.cell_first(dirty_first);
    const HashIndex last = grid.cell_last(run_last);
    if (first <= last) {
      dirty.push_back({first, last});
    } else {  // the backward expansion wrapped past 0
      dirty.push_back({first, HashSpace::kMaxIndex});
      dirty.push_back({0, last});
    }
  }
  coalesce_ranges(dirty);
  return dirty;
}

}  // namespace cobalt::placement
