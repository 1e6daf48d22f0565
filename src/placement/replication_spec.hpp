// cobalt/placement/replication_spec.hpp
//
// The replication surface of the placement concept: instead of a bare
// replica count k, callers pass ReplicationSpec{k, SpreadPolicy} and
// every adapter answers with a *spread-aware* replica set — k distinct
// live nodes in >= k distinct racks (zones) whenever the attached
// cluster::Topology makes that feasible.
//
// All seven adapters share one implementation, ReplicationSurface
// below, which every adapter inherits and which runs the spread
// post-filter over the adapter's raw ranked walk: take it to a pigeonhole
// probe depth (Topology::spread_bound guarantees that many distinct
// nodes span >= k domains), reorder it so the first appearance of each
// failure domain comes first (in rank order), append the skipped
// same-domain candidates (in rank order), truncate to k.
//
// Contracts, extending the raw-walk contracts in backend.hpp:
//   - element 0 is still exactly owner_of(index): the owner's domain
//     appears first, and its first appearance is the owner itself.
//   - prefix stability in k survives the filter: the first k entries
//     are the first k *domain first-appearances* of the raw walk, and
//     the raw walk is itself prefix-stable, so growing k only appends.
//   - distinct domains when feasible, graceful fallback otherwise:
//     with fewer reachable domains than k, phase 2 tops the set up
//     with the best-ranked remaining candidates instead of failing.
//   - SpreadPolicy::kNone (or no topology attached) delegates to the
//     raw walk *verbatim* — bit-identical placement, zero overhead.
//
// Dirty ranges under a spec are the raw dirty ranges taken at the
// probe depth (+1 node to cover the depth shrink after a departure):
// the spread set at a point is a pure function of the raw walk prefix
// at probe depth, so any spread-set change implies a raw-walk change
// within that prefix — the raw ranges are a conservative cover.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/topology.hpp"
#include "placement/types.hpp"

namespace cobalt::placement {

/// Which failure domain a replica set must spread across.
enum class SpreadPolicy : std::uint8_t {
  kNone,  ///< raw ranked walk, topology ignored
  kRack,  ///< one replica per rack while racks remain
  kZone,  ///< one replica per zone while zones remain
};

inline const char* spread_policy_name(SpreadPolicy policy) {
  switch (policy) {
    case SpreadPolicy::kRack:
      return "rack";
    case SpreadPolicy::kZone:
      return "zone";
    case SpreadPolicy::kNone:
      break;
  }
  return "none";
}

/// How a key is replicated: k copies, spread across failure domains
/// per `spread`. Replaces the bare `k` ints that used to travel
/// through Store / ShardIndex / ProtocolDriver / scenario signatures.
struct ReplicationSpec {
  std::size_t k = 1;
  SpreadPolicy spread = SpreadPolicy::kNone;

  friend bool operator==(const ReplicationSpec&,
                         const ReplicationSpec&) = default;

  /// The spec a smaller clamped target induces (same policy).
  ReplicationSpec with_k(std::size_t new_k) const { return {new_k, spread}; }
};

namespace detail {

inline std::uint32_t spread_domain_of(const cluster::Topology& topo,
                                      NodeId node, SpreadPolicy policy) {
  return policy == SpreadPolicy::kZone ? topo.zone_of(node)
                                       : topo.rack_of(node);
}

}  // namespace detail

/// Reorders a raw ranked walk into spread order and truncates to k:
/// first appearance of each failure domain (rank order), then the
/// skipped candidates (rank order). Rank 0 never moves.
inline void spread_truncate(const cluster::Topology& topo, SpreadPolicy policy,
                            std::size_t k, std::vector<NodeId>& walk) {
  if (policy == SpreadPolicy::kNone || walk.size() <= 1 || k <= 1) {
    if (walk.size() > k) walk.resize(k);
    return;
  }
  thread_local std::vector<NodeId> ordered;
  thread_local std::vector<std::uint32_t> domains;
  thread_local std::vector<char> taken;
  const std::size_t n = walk.size();
  domains.clear();
  domains.reserve(n);
  for (NodeId node : walk) {
    domains.push_back(detail::spread_domain_of(topo, node, policy));
  }
  taken.assign(n, 0);
  ordered.clear();
  ordered.reserve(std::min(n, k));
  for (std::size_t i = 0; i < n && ordered.size() < k; ++i) {
    bool fresh = true;
    for (std::size_t j = 0; j < i; ++j) {
      if (domains[j] == domains[i]) {
        fresh = false;
        break;
      }
    }
    if (fresh) {
      ordered.push_back(walk[i]);
      taken[i] = 1;
    }
  }
  for (std::size_t i = 0; i < n && ordered.size() < k; ++i) {
    if (!taken[i]) ordered.push_back(walk[i]);
  }
  walk.assign(ordered.begin(), ordered.end());
}

/// The replication surface every adapter inherits (CRTP): the one
/// implementation of everything derived from a scheme's raw ranked
/// walk. An adapter `B` defines only
///   void replica_set_into(HashIndex, std::size_t k,
///                         std::vector<NodeId>& out) const;
///   std::vector<HashRange> replica_dirty_ranges(std::size_t k) const;
/// (the raw walk and its dirty report, see backend.hpp) and re-exports
/// this base's overloads of those two names with using-declarations,
/// which its own members would otherwise hide. The base adds the
/// vector convenience, the ReplicationSpec-keyed forms (the spread
/// post-filter above over the raw walk) and the topology they consult.
template <typename Backend>
class ReplicationSurface {
 public:
  /// The raw ranked walk as a fresh vector.
  [[nodiscard]] std::vector<NodeId> replica_set(HashIndex index,
                                                std::size_t k) const {
    std::vector<NodeId> out;
    self().replica_set_into(index, k, out);
    return out;
  }

  [[nodiscard]] std::vector<NodeId> replica_set(
      HashIndex index, const ReplicationSpec& spec) const {
    std::vector<NodeId> out;
    replica_set_into(index, spec, out);
    return out;
  }

  /// The spread replica set: raw walk to the pigeonhole probe depth,
  /// then spread_truncate. SpreadPolicy::kNone, or no topology
  /// attached, is the raw walk verbatim.
  void replica_set_into(HashIndex index, const ReplicationSpec& spec,
                        std::vector<NodeId>& out) const {
    if (!spreads(spec)) {
      self().replica_set_into(index, spec.k, out);
      return;
    }
    // Backends clamp the walk to the live node count themselves, so the
    // static pigeonhole bound needs no live-count correction here.
    self().replica_set_into(index, probe_bound(spec), out);
    spread_truncate(*topology_, spec.spread, spec.k, out);
  }

  /// Conservative dirty cover for the spread walk: the raw dirty ranges
  /// at the probe depth. The +1 covers departures - the walk one rank
  /// past the post-event live count is what the pre-event spread set
  /// may have consumed.
  [[nodiscard]] std::vector<HashRange> replica_dirty_ranges(
      const ReplicationSpec& spec) const {
    if (!spreads(spec)) return self().replica_dirty_ranges(spec.k);
    return self().replica_dirty_ranges(std::max(
        spec.k, std::min(self().node_count() + 1, probe_bound(spec))));
  }

  /// The failure-domain map the spread filter consults; null (the
  /// default) means every node is its own domain. Not owned; must
  /// outlive the backend's placement calls.
  void set_topology(const cluster::Topology* topology) {
    topology_ = topology;
  }
  [[nodiscard]] const cluster::Topology* topology() const {
    return topology_;
  }

 private:
  [[nodiscard]] const Backend& self() const {
    return static_cast<const Backend&>(*this);
  }

  /// False when `spec` places on the raw walk verbatim.
  [[nodiscard]] bool spreads(const ReplicationSpec& spec) const {
    return spec.spread != SpreadPolicy::kNone && topology_ != nullptr &&
           spec.k > 1;
  }

  /// The pigeonhole probe depth of a spreading `spec`.
  [[nodiscard]] std::size_t probe_bound(const ReplicationSpec& spec) const {
    return topology_->spread_bound(spec.k,
                                   spec.spread == SpreadPolicy::kZone);
  }

  const cluster::Topology* topology_ = nullptr;
};

}  // namespace cobalt::placement
