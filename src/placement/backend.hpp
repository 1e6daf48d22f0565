// cobalt/placement/backend.hpp
//
// The PlacementBackend concept: the single surface every placement
// scheme models so the KV store (kv::Store<Backend>), the scenario
// drivers (sim/scenario.hpp) and the comparison benches are written
// once and instantiated N times.
//
// A backend owns the scheme's state and exposes:
//   * membership     - add_node(capacity) / remove_node(id), where
//                      capacity expresses heterogeneous enrollment
//                      (section 2.1.2 of the paper);
//   * routing        - owner_of(index): the node responsible for a
//                      hash index;
//   * replication    - replica_set_into(index, k, out): the ranked
//                      distinct nodes that hold the k copies of a key
//                      hashed at index (rank 0 is always
//                      owner_of(index)), written into a caller-owned
//                      buffer - the scheme's raw ranked walk;
//   * repair planning - replica_dirty_ranges(k): the hash ranges
//                      outside of which replica_set(., k) is
//                      *guaranteed* unchanged by the backend's most
//                      recent membership event, so a replicated store
//                      can repair only the shards those ranges touch
//                      instead of scanning everything;
//   * shared surface - the ReplicationSurface<B> base every adapter
//                      inherits (replication_spec.hpp) builds the rest
//                      from those two calls, once for all schemes: the
//                      vector replica_set(index, k), the forms keyed by
//                      a ReplicationSpec{k, SpreadPolicy} that spread
//                      replicas across the racks/zones of an attached
//                      cluster::Topology (kNone is the raw walk
//                      verbatim), and set_topology()/topology();
//   * serialization  - an OPTIONAL serialization_domain(index) hook
//                      (see serialization_domain_of below): the unit
//                      the scheme's update protocol serializes on.
//                      Schemes without a native unit fall back to the
//                      arc-lattice default;
//   * quality        - quotas() and sigma(), the relative standard
//                      deviation of per-node quotas (the metric of
//                      figure 9, comparable across schemes);
//   * relocation     - set_observer(): range-level callbacks that feed
//                      the unified MigrationStats.
//
// replica_set invariants (shared by every adapter, property-tested in
// tests/placement/test_replica_set.cpp):
//   * element 0 equals owner_of(index) - the primary IS replica 0;
//   * elements are distinct live nodes, at most min(k, node_count());
//     a scheme whose placement assigns a live node zero mass (possible
//     for extreme weights on the table-driven schemes) may return
//     fewer;
//   * the result for k is a prefix of the result for k' > k (the
//     ranking does not depend on how many replicas are requested), so
//     raising the replication factor only appends copies.
// The ranking is the scheme's native preference order: the successor
// walk over partitions (DHT backends), ring points (CH) or grid cells
// (jump, maglev, bounded-load CH), and the score order for rendezvous
// hashing.
//
// replica_dirty_ranges(k) contract (the repair-planning surface):
//   * returns inclusive, never-wrapping hash ranges; any point whose
//     replica_set(point, k) differs from before the backend's most
//     recent membership event lies inside some returned range;
//   * a conservative superset is allowed - up to the full range for
//     schemes whose fallback ranking genuinely reshuffles everywhere
//     (HRW's per-cell score order, maglev's table refill) - but an
//     event that cannot have changed any replica set must report no
//     covering range (ideally empty), so no-op events cost no repair;
//   * the result describes only the most recent event; callers
//     accumulate across events themselves (kv::Store queries after
//     every membership call).
//
// remove_node returns false when the scheme cannot express the removal
// (the local approach's missing cross-group merge, see DESIGN notes in
// dht/local_dht.hpp); callers treat a refusal as "the node stayed at
// its enrollment". An aborted multi-vnode drain may still have
// rebalanced internally; any movement it caused is reported through
// the observer (see dht_backend.hpp).

#pragma once

#include <concepts>
#include <cstddef>
#include <string_view>
#include <vector>

#include "placement/replication_spec.hpp"
#include "placement/types.hpp"

namespace cobalt::placement {

template <typename B>
concept PlacementBackend =
    std::constructible_from<B, typename B::Options> &&
    // The spread-aware replication surface, written once over the raw
    // walk below.
    std::derived_from<B, ReplicationSurface<B>> &&
    requires(B backend, const B const_backend, double capacity, NodeId node,
             HashIndex index, std::size_t replicas, std::vector<NodeId>& out,
             RelocationObserver* observer) {
      typename B::Options;

      // Membership.
      { backend.add_node(capacity) } -> std::same_as<NodeId>;
      { backend.remove_node(node) } -> std::same_as<bool>;

      // Routing.
      { const_backend.owner_of(index) } -> std::same_as<NodeId>;

      // Replication: the raw ranked walk - distinct owners of the k
      // copies of a key hashed at `index`, element 0 == owner_of(index),
      // written into `out` (cleared first) so bulk repair loops reuse one
      // buffer instead of allocating a vector per key.
      {
        const_backend.replica_set_into(index, replicas, out)
      } -> std::same_as<void>;

      // Repair planning: where the walk for `replicas` copies may have
      // changed in the most recent membership event (see the header
      // contract above).
      {
        const_backend.replica_dirty_ranges(replicas)
      } -> std::same_as<std::vector<HashRange>>;

      // Registry: live count, total slots ever allocated (node ids
      // index into [0, node_slot_count)), liveness probe.
      { const_backend.node_count() } -> std::same_as<std::size_t>;
      { const_backend.node_slot_count() } -> std::same_as<std::size_t>;
      { const_backend.is_live(node) } -> std::same_as<bool>;

      // Quality metrics (live nodes, ascending id order).
      { const_backend.quotas() } -> std::same_as<std::vector<double>>;
      { const_backend.sigma() } -> std::same_as<double>;

      // Relocation events.
      { backend.set_observer(observer) };

      // Scheme identity for tables, CSV columns and logs.
      { B::scheme_name() } -> std::convertible_to<std::string_view>;
    };

/// Detection concept for the optional serialization-domain hook: the
/// scheme's protocol serialization unit, i.e. which shared record a
/// membership round touching hash `index` must lock. The paper's
/// global approach has a single domain (the replicated GPDR), the
/// local approach one per group (its LPDR); schemes with no shared
/// record beyond the arc itself (the ring/grid family) do not define
/// the hook and get the arc-lattice default below.
template <typename B>
concept HasSerializationDomain = requires(const B backend, HashIndex index) {
  { backend.serialization_domain(index) } -> std::same_as<std::uint32_t>;
};

/// The default serialization domain for schemes without a native unit:
/// a fixed lattice of 2^bits equal arcs of R_h keyed by the top bits
/// of the index. Rounds touching different arcs overlap (per-arc
/// handovers are pairwise node traffic, not record synchronization);
/// rounds landing in one arc queue - a stable, conservative stand-in
/// for per-arc ownership records.
inline std::uint32_t arc_serialization_domain(HashIndex index,
                                              std::uint32_t bits) {
  COBALT_REQUIRE(bits >= 1 && bits <= 31,
                 "the arc lattice needs between 1 and 31 bits");
  return static_cast<std::uint32_t>(index >> (HashSpace::kBits - bits));
}

/// The serialization domain of `index` under `backend`: the scheme's
/// own hook when it defines one, the `default_bits`-bit arc lattice
/// otherwise. This is the dispatch surface the protocol DES
/// (cluster::ProtocolDriver) maps event ranges through.
template <PlacementBackend B>
std::uint32_t serialization_domain_of(const B& backend, HashIndex index,
                                      std::uint32_t default_bits = 8) {
  if constexpr (HasSerializationDomain<B>) {
    (void)default_bits;
    return backend.serialization_domain(index);
  } else {
    (void)backend;
    return arc_serialization_domain(index, default_bits);
  }
}

}  // namespace cobalt::placement
