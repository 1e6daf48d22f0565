#include "placement/ch_backend.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cobalt::placement {

ChBackend::ChBackend(Options options)
    : options_(options), ring_(options.seed) {
  COBALT_REQUIRE(options_.virtual_servers >= 1,
                 "a node must place at least one virtual server");
}

std::size_t ChBackend::target_points(double capacity) const {
  return scaled_enrollment(options_.virtual_servers, capacity);
}

NodeId ChBackend::add_node(double capacity) {
  last_event_.clear();
  const ch::NodeId node =
      ring_.add_node(target_points(capacity), &last_event_);
  forward(last_event_);
  return static_cast<NodeId>(node);
}

bool ChBackend::remove_node(NodeId node) {
  COBALT_REQUIRE(is_live(node), "node is not live");
  COBALT_REQUIRE(ring_.node_count() >= 2, "cannot remove the last live node");
  last_event_.clear();
  ring_.remove_node(static_cast<ch::NodeId>(node), &last_event_);
  forward(last_event_);
  return true;
}

NodeId ChBackend::owner_of(HashIndex index) const {
  return static_cast<NodeId>(ring_.lookup(index));
}

void ChBackend::replica_set_into(HashIndex index, std::size_t k,
                                 std::vector<NodeId>& out) const {
  COBALT_REQUIRE(k >= 1, "a replica set needs at least one member");
  COBALT_REQUIRE(ring_.node_count() >= 1, "the backend has no nodes");
  const std::size_t want =
      k < ring_.node_count() ? k : ring_.node_count();
  out.clear();
  out.reserve(want);
  // Successor walk: the first point at or after `index` is the owner
  // (the ring's lookup convention), later points rank the fallbacks.
  const auto& points = ring_.points();
  auto it = points.lower_bound(index);
  for (std::size_t step = 0; step < points.size() && out.size() < want;
       ++step, ++it) {
    if (it == points.end()) it = points.begin();
    const auto node = static_cast<NodeId>(it->second);
    if (std::find(out.begin(), out.end(), node) == out.end()) {
      out.push_back(node);
    }
  }
}

std::vector<HashRange> ChBackend::replica_dirty_ranges(std::size_t k) const {
  COBALT_REQUIRE(k >= 1, "a replica set needs at least one member");
  std::vector<HashRange> dirty;
  const auto& points = ring_.points();
  if (points.empty()) return dirty;
  for (const ch::ArcTransfer& t : last_event_) {
    // The arc [t.first, t.last] surrounds the inserted/removed point
    // (arcs end at their point); a successor walk whose window
    // reaches into the arc may have changed. Walk backward from the
    // arc over the surviving points, counting distinct nodes: once k
    // distinct nodes separate a point from the arc, walks starting at
    // or before that point terminate early and are clean.
    std::vector<NodeId> seen;
    HashIndex dirty_first = 0;
    bool bounded = false;
    auto it = points.lower_bound(t.first);
    for (std::size_t step = 0; step < points.size(); ++step) {
      if (it == points.begin()) it = points.end();
      --it;
      const auto node = static_cast<NodeId>(it->second);
      if (std::find(seen.begin(), seen.end(), node) == seen.end()) {
        seen.push_back(node);
      }
      if (seen.size() >= k) {
        // Keys mapping to this point or earlier find k distinct nodes
        // without entering the arc; the dirty region starts just
        // after the point (+1 wraps to 0 past the top of R_h).
        bounded = true;
        dirty_first = it->first + 1;
        break;
      }
    }
    if (!bounded) return {{0, HashSpace::kMaxIndex}};
    if (dirty_first <= t.last) {
      dirty.push_back({dirty_first, t.last});
    } else {  // the backward expansion wrapped past 0
      dirty.push_back({dirty_first, HashSpace::kMaxIndex});
      dirty.push_back({0, t.last});
    }
  }
  coalesce_ranges(dirty);
  return dirty;
}

void ChBackend::forward(const std::vector<ch::ArcTransfer>& events) {
  if (observer_ == nullptr) return;
  for (const ch::ArcTransfer& t : events) {
    observer_->on_relocate(t.first, t.last, static_cast<NodeId>(t.from),
                           static_cast<NodeId>(t.to));
  }
}

}  // namespace cobalt::placement
