// cobalt/cluster/topology.hpp
//
// Physical cluster structure: every node gets a (rack, zone)
// coordinate, racks carry a weight (their node count, optionally
// capacity-weighted), and racks/zones can be given operator-facing
// names ("failure domains"). The Topology is the single source of
// truth that the spread-aware replica filter
// (placement/replication_spec.hpp), the tiered NetworkModel, the
// FaultPlan rack-fault helpers and the serving sim's failover router
// all consult — one map, four consumers.
//
// Nodes the topology has never heard of are treated as singleton
// racks in their own singleton zone (synthetic ids derived from the
// node id). That makes "no topology configured" degenerate exactly to
// flat placement: every node is its own failure domain, so a
// rack-spread walk over singleton racks is the plain ranked walk.
//
// The topology is built up front (assign()/uniform()) and then read
// by placement; mutating it while another thread's placement reads it
// is a data race by contract, same as mutating a backend mid-read.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "placement/types.hpp"

namespace cobalt::cluster {

class Topology {
 public:
  using NodeId = placement::NodeId;
  using RackId = std::uint32_t;
  using ZoneId = std::uint32_t;

  /// Synthetic ids for nodes with no explicit assignment: each such
  /// node is a singleton rack / singleton zone of its own. The high
  /// bit keeps synthetic ids disjoint from explicit ones.
  static constexpr RackId kSyntheticBit = 0x8000'0000u;

  static constexpr RackId synthetic_rack(NodeId node) {
    return kSyntheticBit | static_cast<RackId>(node);
  }
  static constexpr bool is_synthetic(RackId id) {
    return (id & kSyntheticBit) != 0;
  }

  Topology() = default;

  /// Place `node` in `rack` (and `rack` in `zone`; a rack lives in
  /// exactly one zone — the last assignment wins for the whole rack).
  /// `weight` scales the node's contribution to the rack weight.
  /// Throws InvalidArgument, leaving the map unchanged, for a rack or
  /// zone id with kSyntheticBit set (reserved for unassigned nodes)
  /// or a negative or non-finite weight.
  void assign(NodeId node, RackId rack, ZoneId zone = 0,
              double weight = 1.0) {
    COBALT_REQUIRE(!is_synthetic(rack) && !is_synthetic(zone),
                   "explicit rack and zone ids must not set kSyntheticBit");
    COBALT_REQUIRE(std::isfinite(weight) && weight >= 0.0,
                   "a node weight must be finite and non-negative");
    auto [it, inserted] = nodes_.try_emplace(node, Placement{rack, weight});
    if (!inserted) {
      rack_entry(it->second.rack).remove(weight_of(it->second));
      it->second = Placement{rack, weight};
    }
    rack_entry(rack).add(weight);
    rack_zone_[rack] = zone;
    zones_.try_emplace(zone);
    sort_domain_sizes();
  }

  /// Uniform grid builder: `racks` racks of `nodes_per_rack` nodes,
  /// node ids dense from 0, racks striped over `zones` zones
  /// round-robin (zones == 0 puts everything in zone 0).
  static Topology uniform(std::size_t racks, std::size_t nodes_per_rack,
                          std::size_t zones = 1) {
    Topology topo;
    if (zones == 0) zones = 1;
    NodeId next = 0;
    for (std::size_t r = 0; r < racks; ++r) {
      const auto zone = static_cast<ZoneId>(r % zones);
      for (std::size_t i = 0; i < nodes_per_rack; ++i) {
        topo.assign(next++, static_cast<RackId>(r), zone);
      }
    }
    return topo;
  }

  /// Operator-facing failure-domain names ("rack-a12", "eu-west-1b").
  void name_rack(RackId rack, std::string name) {
    rack_entry(rack).name = std::move(name);
    sort_domain_sizes();
  }
  void name_zone(ZoneId zone, std::string name) {
    zones_[zone].name = std::move(name);
  }
  const std::string& rack_name(RackId rack) const {
    static const std::string kEmpty;
    auto it = racks_.find(rack);
    return it == racks_.end() ? kEmpty : it->second.name;
  }
  const std::string& zone_name(ZoneId zone) const {
    static const std::string kEmpty;
    auto it = zones_.find(zone);
    return it == zones_.end() ? kEmpty : it->second.name;
  }

  bool contains(NodeId node) const { return nodes_.count(node) != 0; }

  /// Coordinate queries; unassigned nodes answer with their synthetic
  /// singleton ids, so these are total functions.
  RackId rack_of(NodeId node) const {
    auto it = nodes_.find(node);
    return it == nodes_.end() ? synthetic_rack(node) : it->second.rack;
  }
  ZoneId zone_of(NodeId node) const {
    auto it = nodes_.find(node);
    if (it == nodes_.end()) return synthetic_rack(node);
    auto zit = rack_zone_.find(it->second.rack);
    return zit == rack_zone_.end() ? synthetic_rack(node) : zit->second;
  }
  ZoneId zone_of_rack(RackId rack) const {
    auto it = rack_zone_.find(rack);
    return it == rack_zone_.end() ? rack : it->second;
  }

  /// True when a and b share a rack (incl. both being the same
  /// unassigned singleton, i.e. a == b).
  bool same_rack(NodeId a, NodeId b) const { return rack_of(a) == rack_of(b); }
  bool same_zone(NodeId a, NodeId b) const { return zone_of(a) == zone_of(b); }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t rack_count() const { return racks_.size(); }
  std::size_t zone_count() const { return zones_.size(); }

  std::size_t rack_size(RackId rack) const {
    auto it = racks_.find(rack);
    return it == racks_.end() ? 0 : it->second.count;
  }
  double rack_weight(RackId rack) const {
    auto it = racks_.find(rack);
    return it == racks_.end() ? 0.0 : it->second.weight;
  }

  /// All explicitly assigned racks (synthetic singletons excluded),
  /// sorted by id for deterministic iteration.
  std::vector<RackId> racks() const {
    std::vector<RackId> out;
    out.reserve(racks_.size());
    for (const auto& [id, entry] : racks_) {
      if (entry.count > 0) out.push_back(id);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Members of one rack, sorted by node id.
  std::vector<NodeId> nodes_in_rack(RackId rack) const {
    std::vector<NodeId> out;
    for (const auto& [node, placement] : nodes_) {
      if (placement.rack == rack) out.push_back(node);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<NodeId> nodes_in_zone(ZoneId zone) const {
    std::vector<NodeId> out;
    for (const auto& [node, placement] : nodes_) {
      auto it = rack_zone_.find(placement.rack);
      if (it != rack_zone_.end() && it->second == zone) out.push_back(node);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Pigeonhole probe depth for a k-way spread walk: any
  /// spread_bound(k) *distinct* nodes necessarily span >= k distinct
  /// racks (zones with by_zone), because k-1 domains can hold at most
  /// "sum of the k-1 largest domain sizes" nodes. Unassigned nodes
  /// are singleton domains, so domains outside the explicit map
  /// contribute size 1 and never raise the bound. Returns >= k.
  /// O(k) and allocation-free: it reads the descending size arrays
  /// that assign() and name_rack() re-sort. Every rack entry counts,
  /// emptied or named-only ones as size 0; a zone counts while some
  /// rack maps to it.
  std::size_t spread_bound(std::size_t k, bool by_zone = false) const {
    if (k <= 1) return k;
    const std::vector<std::size_t>& sizes =
        by_zone ? zone_sizes_desc_ : rack_sizes_desc_;
    const std::size_t taken = std::min(k - 1, sizes.size());
    std::size_t capacity = 0;  // of the k-1 largest domains
    for (std::size_t i = 0; i < taken; ++i) capacity += sizes[i];
    // Remaining slots (if fewer explicit domains than k-1) are filled
    // by singleton domains of size 1.
    capacity += (k - 1) - taken;
    return std::max(k, capacity + 1);
  }

 private:
  struct Placement {
    RackId rack = 0;
    double weight = 1.0;
  };
  struct DomainEntry {
    std::string name;
    std::size_t count = 0;
    double weight = 0.0;
    void add(double w) {
      ++count;
      weight += w;
    }
    void remove(double w) {
      if (count > 0) --count;
      weight -= w;
    }
  };

  static double weight_of(const Placement& p) { return p.weight; }

  DomainEntry& rack_entry(RackId rack) { return racks_[rack]; }

  /// Re-sorts spread_bound's inputs after a change to the map: every
  /// rack's node count, and every mapped zone's summed count. The map
  /// is built up front, so this stays off the placement path.
  void sort_domain_sizes() {
    rack_sizes_desc_.clear();
    rack_sizes_desc_.reserve(racks_.size());
    for (const auto& [rack, entry] : racks_) {
      rack_sizes_desc_.push_back(entry.count);
    }
    std::sort(rack_sizes_desc_.begin(), rack_sizes_desc_.end(),
              std::greater<>());
    std::unordered_map<ZoneId, std::size_t> zone_sizes;
    for (const auto& [rack, zone] : rack_zone_) {
      zone_sizes[zone] += rack_size(rack);
    }
    zone_sizes_desc_.clear();
    zone_sizes_desc_.reserve(zone_sizes.size());
    for (const auto& [zone, size] : zone_sizes) {
      zone_sizes_desc_.push_back(size);
    }
    std::sort(zone_sizes_desc_.begin(), zone_sizes_desc_.end(),
              std::greater<>());
  }

  std::unordered_map<NodeId, Placement> nodes_;
  std::unordered_map<RackId, DomainEntry> racks_;
  std::unordered_map<RackId, ZoneId> rack_zone_;
  std::unordered_map<ZoneId, DomainEntry> zones_;
  // spread_bound's inputs, each sorted descending.
  std::vector<std::size_t> rack_sizes_desc_;
  std::vector<std::size_t> zone_sizes_desc_;
};

}  // namespace cobalt::cluster
