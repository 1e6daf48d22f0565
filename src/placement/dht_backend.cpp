#include "placement/dht_backend.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace cobalt::placement {

template <typename DhtT>
DhtBackend<DhtT>::DhtBackend(Options options)
    : options_(options), dht_(options.dht) {
  COBALT_REQUIRE(options_.vnodes_per_node >= 1,
                 "a node must enroll at least one vnode");
  dht_.set_observer(this);
}

template <typename DhtT>
DhtBackend<DhtT>::~DhtBackend() {
  dht_.set_observer(nullptr);
}

template <typename DhtT>
std::size_t DhtBackend<DhtT>::target_vnodes(double capacity) const {
  return scaled_enrollment(options_.vnodes_per_node, capacity);
}

template <typename DhtT>
NodeId DhtBackend<DhtT>::add_node(double capacity) {
  last_event_ranges_.clear();
  const dht::SNodeId snode = dht_.add_snode(capacity);
  node_live_.push_back(true);
  ++live_nodes_;
  const std::size_t count = target_vnodes(capacity);
  for (std::size_t v = 0; v < count; ++v) dht_.create_vnode(snode);
  return static_cast<NodeId>(snode);
}

template <typename DhtT>
bool DhtBackend<DhtT>::remove_node(NodeId node) {
  COBALT_REQUIRE(is_live(node), "node is not live");
  COBALT_REQUIRE(live_nodes_ >= 2, "cannot remove the last live node");
  last_event_ranges_.clear();
  const auto snode = static_cast<dht::SNodeId>(node);

  // Drain the node's vnodes; on a refusal partway, re-enroll what was
  // drained so the node keeps its full enrollment count. This is an
  // aborted decommission, not an undo - see the header contract.
  const std::vector<dht::VNodeId> members = dht_.snode(snode).vnodes;
  for (std::size_t drained = 0; drained < members.size(); ++drained) {
    try {
      dht_.remove_vnode(members[drained]);
    } catch (const dht::UnsupportedTopology&) {
      for (std::size_t v = 0; v < drained; ++v) dht_.create_vnode(snode);
      return false;
    }
  }
  node_live_[node] = false;
  --live_nodes_;
  return true;
}

template <typename DhtT>
NodeId DhtBackend<DhtT>::owner_of(HashIndex index) const {
  const auto hit = dht_.lookup(index);
  return static_cast<NodeId>(dht_.vnode(hit.owner).snode);
}

template <typename DhtT>
void DhtBackend<DhtT>::replica_set_into(HashIndex index, std::size_t k,
                                        std::vector<NodeId>& out) const {
  COBALT_REQUIRE(k >= 1, "a replica set needs at least one member");
  COBALT_REQUIRE(live_nodes_ >= 1, "the backend has no nodes");
  const std::size_t want = k < live_nodes_ ? k : live_nodes_;
  out.clear();
  out.reserve(want);
  // Walk the partition tiling from the owning partition; every live
  // snode owns at least one partition (a vnode always holds Pmin >= 1
  // partitions), so the walk finds `want` distinct nodes within one
  // full circle.
  dht::PartitionMap::Hit hit = dht_.lookup(index);
  const std::size_t partitions = dht_.partition_map().size();
  for (std::size_t step = 0; step < partitions && out.size() < want;
       ++step) {
    const auto node = static_cast<NodeId>(dht_.vnode(hit.owner).snode);
    if (std::find(out.begin(), out.end(), node) == out.end()) {
      out.push_back(node);
    }
    hit = dht_.partition_map().successor(hit.partition);
  }
}

template <typename DhtT>
std::vector<HashRange> DhtBackend<DhtT>::replica_dirty_ranges(
    std::size_t k) const {
  COBALT_REQUIRE(k >= 1, "a replica set needs at least one member");
  std::vector<HashRange> dirty;
  if (last_event_ranges_.empty() || dht_.partition_map().size() == 0) {
    return dirty;
  }
  const std::size_t partitions = dht_.partition_map().size();
  for (const HashRange& range : last_event_ranges_) {
    // Expand backward over the current tiling until k distinct snodes
    // separate a partition from the changed range: a successor walk
    // starting there finds its k owners before reaching the range.
    // The partition containing range.first may have grown past the
    // old boundary (a later merge of the same event); starting the
    // dirty region at its begin keeps the expansion conservative.
    std::vector<NodeId> seen;
    dht::PartitionMap::Hit hit = dht_.lookup(range.first);
    HashIndex dirty_first = hit.partition.begin();
    bool bounded = false;
    for (std::size_t step = 0; step + 1 < partitions; ++step) {
      hit = dht_.partition_map().predecessor(hit.partition);
      const auto node = static_cast<NodeId>(dht_.vnode(hit.owner).snode);
      if (std::find(seen.begin(), seen.end(), node) == seen.end()) {
        seen.push_back(node);
      }
      if (seen.size() >= k) {  // this partition's walk stops before the range
        bounded = true;
        break;
      }
      dirty_first = hit.partition.begin();
    }
    if (!bounded) return {{0, HashSpace::kMaxIndex}};
    if (dirty_first <= range.last) {
      dirty.push_back({dirty_first, range.last});
    } else {  // the backward expansion wrapped past 0
      dirty.push_back({dirty_first, HashSpace::kMaxIndex});
      dirty.push_back({0, range.last});
    }
  }
  coalesce_ranges(dirty);
  return dirty;
}

template <typename DhtT>
bool DhtBackend<DhtT>::is_live(NodeId node) const {
  return node < node_live_.size() && node_live_[node];
}

template <typename DhtT>
std::vector<double> DhtBackend<DhtT>::quotas() const {
  std::vector<double> result;
  result.reserve(live_nodes_);
  for (NodeId node = 0; node < node_live_.size(); ++node) {
    if (!node_live_[node]) continue;
    Dyadic quota;
    for (const dht::VNodeId v :
         dht_.snode(static_cast<dht::SNodeId>(node)).vnodes) {
      quota += dht_.exact_quota(v);
    }
    result.push_back(quota.to_double());
  }
  return result;
}

template <typename DhtT>
double DhtBackend<DhtT>::sigma() const {
  if (live_nodes_ == 0) return 0.0;
  const std::vector<double> q = quotas();
  return relative_stddev(q);
}

template <>
std::string_view DhtBackend<dht::GlobalDht>::scheme_name() {
  return "global";
}

template <>
std::string_view DhtBackend<dht::LocalDht>::scheme_name() {
  return "local";
}

template <>
std::uint32_t DhtBackend<dht::GlobalDht>::serialization_domain(
    HashIndex /*index*/) const {
  // "Every snode is, necessarily, involved in the creation of every
  // vnode": one replicated GPDR, one domain.
  return 0;
}

template <>
std::uint32_t DhtBackend<dht::LocalDht>::serialization_domain(
    HashIndex index) const {
  // Only the victim group's LPDR copies must synchronize: the domain
  // is the group slot holding the partition that covers `index`.
  return dht_.group_of(dht_.lookup(index).owner);
}

template <typename DhtT>
dht::VNodeId DhtBackend<DhtT>::add_vnode(NodeId node) {
  COBALT_REQUIRE(is_live(node), "node is not live");
  last_event_ranges_.clear();
  return dht_.create_vnode(static_cast<dht::SNodeId>(node));
}

template <typename DhtT>
void DhtBackend<DhtT>::remove_vnode(dht::VNodeId id) {
  last_event_ranges_.clear();
  dht_.remove_vnode(id);
}

template <typename DhtT>
bool DhtBackend<DhtT>::resize_node(NodeId node, double capacity) {
  COBALT_REQUIRE(is_live(node), "node is not live");
  last_event_ranges_.clear();
  const auto snode = static_cast<dht::SNodeId>(node);
  const std::size_t target = target_vnodes(capacity);
  while (dht_.snode(snode).vnodes.size() < target) dht_.create_vnode(snode);
  while (dht_.snode(snode).vnodes.size() > target) {
    try {
      dht_.remove_vnode(dht_.snode(snode).vnodes.back());
    } catch (const dht::UnsupportedTopology&) {
      return false;
    }
  }
  return true;
}

template <typename DhtT>
std::size_t DhtBackend<DhtT>::vnodes_of(NodeId node) const {
  COBALT_REQUIRE(node < node_live_.size(), "unknown node");
  return dht_.snode(static_cast<dht::SNodeId>(node)).vnodes.size();
}

template <typename DhtT>
void DhtBackend<DhtT>::on_transfer(const dht::Partition& partition,
                                   dht::VNodeId from, dht::VNodeId to) {
  last_event_ranges_.push_back({partition.begin(), partition.last()});
  if (observer_ == nullptr) return;
  observer_->on_relocate(partition.begin(), partition.last(),
                         static_cast<NodeId>(dht_.vnode(from).snode),
                         static_cast<NodeId>(dht_.vnode(to).snode));
}

template <typename DhtT>
void DhtBackend<DhtT>::on_split(const dht::Partition& partition,
                                dht::VNodeId /*owner*/) {
  // Splits keep every owner, but the successor walk's step structure
  // still shifts with the tiling; recording them keeps the dirty
  // contract conservative (merges genuinely matter: a buddy merge may
  // hand the odd half over implicitly).
  last_event_ranges_.push_back({partition.begin(), partition.last()});
  if (observer_ == nullptr) return;
  observer_->on_rebucket(partition.begin(), partition.last());
}

template <typename DhtT>
void DhtBackend<DhtT>::on_merge(const dht::Partition& parent,
                                dht::VNodeId /*owner*/) {
  last_event_ranges_.push_back({parent.begin(), parent.last()});
  if (observer_ == nullptr) return;
  observer_->on_rebucket(parent.begin(), parent.last());
}

template class DhtBackend<dht::GlobalDht>;
template class DhtBackend<dht::LocalDht>;

}  // namespace cobalt::placement
