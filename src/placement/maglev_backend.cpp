#include "placement/maglev_backend.hpp"

namespace cobalt::placement {

MaglevBackend::MaglevBackend(Options options)
    : GridScheme(options.table_bits), options_(options), rng_(options.seed) {}

NodeId MaglevBackend::add_node(double capacity) {
  require_capacity(capacity);
  const NodeId id = enroll();
  const std::size_t slots = grid_.size();
  node_weight_.push_back(capacity);
  node_offset_.push_back(rng_.next() & (slots - 1));
  // An odd skip is coprime with the power-of-two table size, so the
  // permutation offset + i * skip visits every slot.
  node_skip_.push_back((rng_.next() & (slots - 1)) | 1);
  repopulate();
  return id;
}

bool MaglevBackend::remove_node(NodeId node) {
  retire(node);
  node_weight_[node] = 0.0;
  repopulate();
  return true;
}

void MaglevBackend::repopulate() {
  const std::size_t slots = grid_.size();
  std::vector<NodeId> next(slots, kInvalidNode);
  std::vector<std::size_t> cursor(node_live_.size(), 0);
  std::vector<double> credit(node_live_.size(), 0.0);
  std::size_t filled = 0;
  // Round-robin fill: each round every live node accrues its weight in
  // claim credit and spends whole credits on the first unclaimed slots
  // of its permutation (the weighted generalization of the maglev
  // paper's one-claim-per-turn population loop).
  while (filled < slots) {
    for (NodeId node = 0; node < node_live_.size() && filled < slots;
         ++node) {
      if (!node_live_[node]) continue;
      credit[node] += node_weight_[node];
      while (credit[node] >= 1.0 && filled < slots) {
        credit[node] -= 1.0;
        std::size_t slot;
        do {
          slot = (node_offset_[node] + cursor[node] * node_skip_[node]) &
                 (slots - 1);
          ++cursor[node];
        } while (next[slot] != kInvalidNode);
        next[slot] = node;
        ++filled;
      }
    }
  }
  assign(std::move(next));
}

}  // namespace cobalt::placement
