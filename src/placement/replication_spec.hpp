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
// post-filter over the adapter's raw ranked walk: walk until the prefix
// holds k distinct failure domains (a WalkStop ends the walk there),
// reorder it so the first appearance of each failure domain comes
// first (in rank order), append the skipped same-domain candidates (in
// rank order), truncate to k. The pigeonhole probe depth
// (Topology::spread_bound: that many distinct nodes always span >= k
// domains) only caps the walk; it is reached when the live nodes span
// fewer than k domains, and then phase 2 below fills the set.
//
// Stopping early cannot change the answer: the spread set is the first
// k domain first-appearances of the raw walk, and the raw walk is
// prefix-stable, so once its prefix holds k fresh domains no deeper
// rank can displace one of them.
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
// Dirty ranges under a spec are the successor schemes' raw report with
// the owners its backward expansion meets counted by failure domain
// (DomainKey below): each changed span grows backward until k distinct
// domains separate a segment from it. That is exact to the walk's own
// stopping rule. A spread walk stops at its k-th distinct domain, and
// the spread set is a function of the raw prefix up to there. Take a
// point p outside the report, and the first changed span C its
// forward walk would reach. The segments from p up to C carry k
// distinct domains (C's expansion stopped at or after p), and they
// are the same segments with the same owners - hence the same domains
// - before and after the event. So both walks from p collect k
// domains before they reach C, over the same owners in the same
// order, and p's spread set is unchanged. The placement cap
// (Topology::spread_bound) cannot cut either walk shorter: that many
// distinct nodes always span k domains. With fewer than k live
// domains no expansion reaches k and the report is the full range.
// HRW replaces this report with exact cells (see hrw_backend.hpp).

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/topology.hpp"
#include "common/stats.hpp"
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

/// The early exit of a spread walk: notes for each node the walk
/// appends whether it is the first of its failure domain, and stops
/// the walk at the k-th such node; order() then builds the spread set
/// from those marks, so no domain is looked up twice. Lives on the
/// caller's stack for one walk; `domains` and `first` start empty.
struct SpreadStop {
  const cluster::Topology& topo;
  SpreadPolicy policy;
  std::size_t k;
  std::vector<std::uint32_t>& domains;  ///< distinct domains, in walk order
  std::vector<char>& first;             ///< per walked node: fresh domain?

  bool operator()(NodeId node) {
    const std::uint32_t domain = spread_domain_of(topo, node, policy);
    const bool fresh =
        std::find(domains.begin(), domains.end(), domain) == domains.end();
    if (fresh) domains.push_back(domain);
    first.push_back(fresh ? 1 : 0);
    return domains.size() == k;
  }

  /// Reorders the marked `walk` into spread order: the first
  /// appearances (rank order), then the skipped candidates (rank
  /// order), truncated to k.
  void order(std::vector<NodeId>& walk) const {
    thread_local std::vector<NodeId> ordered;
    const std::size_t n = walk.size();
    ordered.clear();
    ordered.reserve(std::min(n, k));
    for (std::size_t i = 0; i < n && ordered.size() < k; ++i) {
      if (first[i]) ordered.push_back(walk[i]);
    }
    for (std::size_t i = 0; i < n && ordered.size() < k; ++i) {
      if (!first[i]) ordered.push_back(walk[i]);
    }
    walk.assign(ordered.begin(), ordered.end());
  }
};

}  // namespace detail

/// What a successor scheme's dirty report counts the owners it meets
/// by (successor_walk.hpp): the owner's failure domain under a
/// spreading policy, the owner itself otherwise. A null topology or
/// SpreadPolicy::kNone is the identity, the raw walk's rule.
struct DomainKey {
  const cluster::Topology* topology = nullptr;
  SpreadPolicy policy = SpreadPolicy::kNone;

  std::uint32_t operator()(NodeId owner) const {
    if (topology == nullptr || policy == SpreadPolicy::kNone) return owner;
    return detail::spread_domain_of(*topology, owner, policy);
  }
};

/// The replication surface every adapter inherits (CRTP): the one
/// implementation of everything derived from a scheme's raw ranked
/// walk. An adapter `B` defines only
///   HashIndex replica_set_into(HashIndex, std::size_t k,
///                              std::vector<NodeId>& out,
///                              WalkStop stop = {}) const;
///   std::vector<HashRange> replica_dirty_ranges(std::size_t k,
///                                              DomainKey key = {}) const;
/// (the raw walk and its dirty report, see backend.hpp; `key` counts
/// the owners the report's expansion meets) and re-exports
/// this base's overloads of those two names with using-declarations,
/// which its own members would otherwise hide; the grid-backed schemes
/// get both from GridScheme (range_grid.hpp). The base adds the vector
/// convenience, the ReplicationSpec-keyed forms (the spread post-filter
/// above over the raw walk), the topology they consult, and sigma()
/// over the adapter's quotas(). HRW alone replaces the spec-keyed
/// walk, the spec-keyed dirty report and set_topology with its
/// exact-cell tracker; see hrw_backend.hpp.
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
    self().replica_set_into(index, spec, out);
    return out;
  }

  /// The spread replica set: the raw walk, stopped at its k-th
  /// distinct failure domain (the pigeonhole probe depth only caps it),
  /// then put in spread order. SpreadPolicy::kNone, or no topology
  /// attached, is the raw walk verbatim. Returns the raw walk's extent:
  /// the spread set is a pure function of the raw walk, so it holds
  /// wherever the raw walk does.
  HashIndex replica_set_into(HashIndex index, const ReplicationSpec& spec,
                             std::vector<NodeId>& out) const {
    if (!spreads(spec)) return self().replica_set_into(index, spec.k, out);
    // The stop's buffers are per thread, so concurrent callers share
    // nothing. Every backend clamps the walk to its live node
    // count, so the static pigeonhole cap needs no live-count
    // correction here.
    thread_local std::vector<std::uint32_t> domains;
    thread_local std::vector<char> first;
    domains.clear();
    first.clear();
    detail::SpreadStop stop{*topology_, spec.spread, spec.k, domains, first};
    const HashIndex extent = self().replica_set_into(
        index, probe_bound(spec), out, WalkStop::of(stop));
    stop.order(out);
    return extent;
  }

  /// The dirty report of the spread walk: the raw report counting
  /// failure domains, not owners (see the header comment). kNone, or
  /// no topology attached, is the raw report verbatim.
  [[nodiscard]] std::vector<HashRange> replica_dirty_ranges(
      const ReplicationSpec& spec) const {
    return self().replica_dirty_ranges(spec.k,
                                       DomainKey{topology_, spec.spread});
  }

  /// sigma-bar of the per-node quotas: the relative standard deviation
  /// of quotas(), the figure-9 metric, comparable across schemes. 0
  /// before the first node joins (no quotas to spread).
  [[nodiscard]] double sigma() const {
    if (self().node_count() == 0) return 0.0;
    return relative_stddev(self().quotas());
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

 protected:
  // An adapter hands its own address to observers and trackers, so no
  // adapter is copyable.
  ReplicationSurface() = default;
  ReplicationSurface(const ReplicationSurface&) = delete;
  ReplicationSurface& operator=(const ReplicationSurface&) = delete;

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
