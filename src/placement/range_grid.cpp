#include "placement/range_grid.hpp"

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

}  // namespace cobalt::placement
