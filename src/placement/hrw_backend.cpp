#include "placement/hrw_backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/stats.hpp"

namespace cobalt::placement {

HrwBackend::HrwBackend(Options options)
    : options_(options),
      grid_(options.grid_bits),
      winning_score_(grid_.size(), -std::numeric_limits<double>::infinity()),
      rng_(options.seed) {}

double HrwBackend::score(std::size_t cell, NodeId node) const {
  // An independent uniform draw per (cell, node), strictly inside
  // (0, 1) so the logarithm is finite and negative.
  const std::uint64_t h =
      mix64(static_cast<std::uint64_t>(cell) ^ node_draw_[node]);
  const double u = (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
  return -node_weight_[node] / std::log(u);
}

NodeId HrwBackend::add_node(double capacity) {
  COBALT_REQUIRE(capacity > 0.0, "node capacity must be positive");
  const auto id = static_cast<NodeId>(node_live_.size());
  node_weight_.push_back(capacity);
  node_draw_.push_back(rng_.next());
  node_live_.push_back(true);
  ++live_nodes_;

  // The new node wins exactly the cells where its score beats the
  // stored winner; every other cell is untouched.
  std::vector<NodeId> next(grid_.owners());
  for (std::size_t cell = 0; cell < next.size(); ++cell) {
    const double s = score(cell, id);
    if (s > winning_score_[cell]) {
      winning_score_[cell] = s;
      next[cell] = id;
    }
  }
  grid_.assign(std::move(next), observer_);
  return id;
}

bool HrwBackend::remove_node(NodeId node) {
  COBALT_REQUIRE(is_live(node), "node is not live");
  COBALT_REQUIRE(live_nodes_ >= 2, "cannot remove the last live node");
  node_live_[node] = false;
  node_weight_[node] = 0.0;
  --live_nodes_;

  // Only the cells the departed node won change hands: rerun the
  // rendezvous among the survivors for exactly those cells.
  std::vector<NodeId> next(grid_.owners());
  for (std::size_t cell = 0; cell < next.size(); ++cell) {
    if (next[cell] != node) continue;
    NodeId winner = kInvalidNode;
    double best = -std::numeric_limits<double>::infinity();
    for (NodeId candidate = 0; candidate < node_live_.size(); ++candidate) {
      if (!node_live_[candidate]) continue;
      const double s = score(cell, candidate);
      if (s > best) {
        best = s;
        winner = candidate;
      }
    }
    next[cell] = winner;
    winning_score_[cell] = best;
  }
  grid_.assign(std::move(next), observer_);
  return true;
}

void HrwBackend::replica_set_into(HashIndex index, std::size_t k,
                                  std::vector<NodeId>& out) const {
  COBALT_REQUIRE(k >= 1, "a replica set needs at least one member");
  COBALT_REQUIRE(live_nodes_ >= 1, "the backend has no nodes");
  const std::size_t cell = grid_.cell_of(index);
  // Thread-local, not a member: the store's repair pass calls this
  // concurrently from pool workers, and each worker keeps its own
  // allocation-free ranking buffer.
  static thread_local std::vector<std::pair<double, NodeId>> ranked;
  ranked.clear();
  ranked.reserve(live_nodes_);
  for (NodeId node = 0; node < node_live_.size(); ++node) {
    if (node_live_[node]) ranked.emplace_back(score(cell, node), node);
  }
  const std::size_t want = k < ranked.size() ? k : ranked.size();
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(want),
                    ranked.end(), [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  out.clear();
  out.reserve(want);
  for (std::size_t rank = 0; rank < want; ++rank) {
    out.push_back(ranked[rank].second);
  }
  // The stored winner decides rank 0 even in the (measure-zero) event
  // of a score tie, keeping replica_set exactly consistent with
  // owner_of; moving it to the front keeps the remaining ranks in
  // score order, so the k-prefix invariant of the concept holds.
  const NodeId owner = grid_.owner(cell);
  const auto it = std::find(out.begin(), out.end(), owner);
  if (it == out.end()) {
    out.pop_back();
    out.insert(out.begin(), owner);
  } else {
    std::rotate(out.begin(), it, it + 1);
  }
}

std::vector<HashRange> HrwBackend::replica_dirty_ranges(std::size_t k) const {
  COBALT_REQUIRE(k >= 1, "a replica set needs at least one member");
  if (k == 1) {
    // Rank 0 is the stored grid winner: exactly the changed cells.
    std::vector<HashRange> dirty;
    for (const auto& [run_first, run_last] : grid_.last_changes()) {
      dirty.push_back(
          {grid_.cell_first(run_first), grid_.cell_last(run_last)});
    }
    return dirty;
  }
  // Deeper ranks are independent rendezvous draws; any event can
  // reorder any cell's top k (see the header note).
  if (node_slot_count() == 0) return {};
  return {{0, HashSpace::kMaxIndex}};
}

double HrwBackend::sigma() const { return relative_stddev(quotas()); }

double HrwBackend::weight_of(NodeId node) const {
  COBALT_REQUIRE(node < node_weight_.size(), "unknown node");
  return node_weight_[node];
}

}  // namespace cobalt::placement
