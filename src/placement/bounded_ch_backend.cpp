#include "placement/bounded_ch_backend.hpp"

#include <cmath>
#include <numeric>
#include <utility>

namespace cobalt::placement {

BoundedChBackend::BoundedChBackend(Options options)
    : GridScheme(options.grid_bits), options_(options), ring_(options.seed) {
  COBALT_REQUIRE(options_.virtual_servers >= 1,
                 "a node must place at least one virtual server");
  COBALT_REQUIRE(options_.epsilon > 0.0, "epsilon must be positive");
}

NodeId BoundedChBackend::add_node(double capacity) {
  const std::size_t points =
      scaled_enrollment(options_.virtual_servers, capacity);
  node_weight_.push_back(capacity);
  const NodeId node = enroll();
  ring_.add_node(points, nullptr);  // the ring's ids are dense too
  rebuild();
  return node;
}

bool BoundedChBackend::remove_node(NodeId node) {
  retire(node);
  ring_.remove_node(static_cast<ch::NodeId>(node), nullptr);
  node_weight_[node] = 0.0;
  rebuild();
  return true;
}

void BoundedChBackend::rebuild() {
  const std::size_t cells = grid_.size();
  const std::size_t slots = node_weight_.size();

  // Load caps: ceil((1 + epsilon) * weighted fair share) in cells.
  // The ceilings make the cap sum strictly exceed the cell count, so a
  // node with spare capacity always exists and the overflow walk
  // terminates.
  double total_weight = 0.0;
  for (const NodeId node : live_ids_) total_weight += node_weight_[node];
  node_cap_.assign(slots, 0);
  for (const NodeId node : live_ids_) {
    node_cap_[node] = static_cast<std::size_t>(
        std::ceil((1.0 + options_.epsilon) * node_weight_[node] /
                  total_weight * static_cast<double>(cells)));
  }

  // Assign cells in ascending order (a deterministic arrival order):
  // preferred owner first (the successor point, exactly the plain
  // ring's routing), then forward along the ring past full nodes.
  // Cell starts ascend, so the successor point only moves forward: one
  // cursor over a flat copy of the ring replaces a search per cell.
  // Loads only grow, so a full node's point stays skipped: `skip`
  // links it to the next point (path halving keeps the hops short).
  const std::vector<std::pair<HashIndex, ch::NodeId>> ring(
      ring_.points().begin(), ring_.points().end());
  std::vector<std::size_t> skip(ring.size());
  std::iota(skip.begin(), skip.end(), std::size_t{0});
  std::vector<std::size_t> load(slots, 0);
  std::vector<NodeId> next(cells, kInvalidNode);
  std::size_t successor = 0;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const HashIndex first = grid_.cell_first(cell);
    while (successor < ring.size() && ring[successor].first < first) {
      ++successor;
    }
    std::size_t at = successor == ring.size() ? 0 : successor;
    for (;;) {
      while (skip[at] != at) at = skip[at] = skip[skip[at]];
      const NodeId candidate = ring[at].second;
      if (load[candidate] < node_cap_[candidate]) {
        next[cell] = candidate;
        ++load[candidate];
        break;
      }
      skip[at] = at + 1 == ring.size() ? 0 : at + 1;
    }
  }
  assign(std::move(next));
}

std::size_t BoundedChBackend::cap_of(NodeId node) const {
  COBALT_REQUIRE(node < node_cap_.size(), "unknown node");
  return node_cap_[node];
}

}  // namespace cobalt::placement
