#include "placement/ch_backend.hpp"

#include <map>

#include "common/error.hpp"
#include "placement/successor_walk.hpp"

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

namespace {

/// The ring's points as a successor-walk segment sequence: a point
/// closes the arc after its predecessor, and a change is one arc
/// transfer of the last event, whose expansion may visit every point.
struct RingPoints {
  const std::map<HashIndex, ch::NodeId>& points;

  auto locate(HashIndex index) const {
    const auto it = points.lower_bound(index);  // the owning point
    return it == points.end() ? points.begin() : it;
  }
  NodeId owner(auto it) const { return static_cast<NodeId>(it->second); }
  auto next(auto it) const {
    return ++it == points.end() ? points.begin() : it;
  }
  auto prev(auto it) const {
    if (it == points.begin()) it = points.end();
    return --it;
  }
  HashIndex last(auto it) const { return it->first; }
  std::size_t size() const { return points.size(); }
  HashRange span(const ch::ArcTransfer& t) const { return {t.first, t.last}; }
  std::size_t reach(const ch::ArcTransfer&) const { return points.size(); }
};

}  // namespace

HashIndex ChBackend::replica_set_into(HashIndex index, std::size_t k,
                                      std::vector<NodeId>& out,
                                      WalkStop stop) const {
  return successor_walk_into(RingPoints{ring_.points()}, index, k,
                             ring_.node_count(), out, stop);
}

std::vector<HashRange> ChBackend::replica_dirty_ranges(std::size_t k,
                                                       DomainKey key) const {
  return successor_dirty_ranges(RingPoints{ring_.points()}, last_event_, k,
                                key);
}

void ChBackend::forward(const std::vector<ch::ArcTransfer>& events) {
  if (observer_ == nullptr) return;
  for (const ch::ArcTransfer& t : events) {
    observer_->on_relocate(t.first, t.last, static_cast<NodeId>(t.from),
                           static_cast<NodeId>(t.to));
  }
}

}  // namespace cobalt::placement
