// cobalt/placement/types.hpp
//
// Shared vocabulary of the placement layer: every placement scheme
// (the paper's global and local balanced-DHT approaches, and the
// Consistent Hashing reference model) is driven through one node-level
// surface so stores, simulators and benches can be written once and
// instantiated per scheme.
//
// A placement *node* is the unit the comparison of the paper cares
// about: one physical cluster node. The balanced-DHT backends map a
// node to an snode plus its enrolled vnodes; the CH backend maps it to
// a ring node with its virtual servers.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "hashing/hash_space.hpp"

namespace cobalt::placement {

/// Index of a placement node within a backend. Node ids are dense,
/// assigned in join order, and never reused after a node leaves.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = ~NodeId{0};

/// The optional early exit of a raw ranked walk (the fourth argument of
/// a backend's replica_set_into): the walk calls it after appending
/// each new distinct node and, when it answers true, returns the
/// prefix it holds. The raw walk is prefix-stable, so that prefix is
/// exactly the first entries of the unstopped walk. Non-owning - a
/// function pointer plus the caller's state - so an empty stop costs
/// one null test and a set one allocates nothing.
struct WalkStop {
  bool (*fn)(void* state, NodeId node) = nullptr;
  void* state = nullptr;

  /// A stop calling `predicate(node)`; `predicate` must outlive the walk.
  template <typename Predicate>
  static WalkStop of(Predicate& predicate) {
    return {[](void* state, NodeId node) {
              return (*static_cast<Predicate*>(state))(node);
            },
            &predicate};
  }

  /// True when the walk should return after appending `node`.
  bool operator()(NodeId node) const {
    return fn != nullptr && fn(state, node);
  }
};

/// Most units (vnodes, ring points) one node may enroll: unit ids are
/// 32-bit (dht::VNodeId), so no node can hold more.
inline constexpr double kMaxEnrollment = 4294967295.0;

/// The one node-capacity rule of every backend: finite, positive, and
/// small enough that its enrollment at `baseline` units per
/// capacity-1.0 node fits kMaxEnrollment (the weighted schemes, which
/// enroll no units, check a baseline of one). Throws InvalidArgument
/// before the backend changes anything.
inline void require_capacity(double capacity, std::size_t baseline = 1) {
  COBALT_REQUIRE(std::isfinite(capacity) && capacity > 0.0,
                 "node capacity must be positive and finite");
  COBALT_REQUIRE(static_cast<double>(baseline) * capacity <= kMaxEnrollment,
                 "node capacity enrolls more units than a node can hold");
}

/// Units (vnodes, ring points) a node of relative `capacity` enrolls
/// when a capacity-1.0 node enrolls `baseline` of them: rounded to
/// nearest, at least one (the enrollment rule of section 2.1.2).
/// Shared by every backend so the rounding policy lives in one place.
inline std::size_t scaled_enrollment(std::size_t baseline, double capacity) {
  require_capacity(capacity, baseline);
  const auto scaled = static_cast<std::size_t>(
      std::llround(static_cast<double>(baseline) * capacity));
  return scaled < 1 ? 1 : scaled;
}

/// An inclusive, never-wrapping hash range [first, last]: the range
/// vocabulary of the RelocationObserver contract and of
/// replica_dirty_ranges() (a backend reports a wrapping arc as two
/// ranges).
struct HashRange {
  HashIndex first = 0;
  HashIndex last = 0;

  friend bool operator==(const HashRange&, const HashRange&) = default;
};

/// Sorts `ranges` by first index and merges overlapping or adjacent
/// entries in place, so consumers (the store's repair planner) visit
/// every covered shard exactly once.
inline void coalesce_ranges(std::vector<HashRange>& ranges) {
  if (ranges.size() < 2) return;
  const auto by_first = [](const HashRange& a, const HashRange& b) {
    return a.first < b.first;
  };
  // Reports usually arrive ascending (HRW's exact cells, thousands of
  // them); only an unordered report pays for the sort.
  if (!std::is_sorted(ranges.begin(), ranges.end(), by_first)) {
    std::sort(ranges.begin(), ranges.end(), by_first);
  }
  std::size_t out = 0;
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    HashRange& merged = ranges[out];
    const HashRange& next = ranges[i];
    // Adjacent counts as mergeable; guard the +1 against wrapping.
    if (next.first <= merged.last ||
        (merged.last != HashSpace::kMaxIndex &&
         next.first == merged.last + 1)) {
      merged.last = std::max(merged.last, next.last);
    } else {
      ranges[++out] = next;
    }
  }
  ranges.resize(out + 1);
}

/// Cumulative data-movement accounting, identical for every backend.
struct MigrationStats {
  /// Keys whose responsible unit changed in a membership event. For the
  /// DHT backends this counts vnode-level handovers (intra-node ones
  /// included); for CH it counts keys inside relocated arcs.
  std::uint64_t keys_moved_total = 0;

  /// The subset of keys_moved_total whose responsible *node* changed:
  /// actual network traffic in a deployment.
  std::uint64_t keys_moved_across_nodes = 0;

  /// Keys re-indexed in place by partition splits/merges (the DHT
  /// backends' split waves; always 0 for CH, which never re-buckets).
  std::uint64_t keys_rebucketed = 0;
};

/// Observes responsibility changes of hash ranges. The KV store derives
/// its migration accounting entirely from these callbacks; protocol and
/// cost models can tap the same surface.
///
/// Ranges are inclusive and never wrap; a backend reports a wrapping
/// arc as two calls.
class RelocationObserver {
 public:
  virtual ~RelocationObserver() = default;

  /// Keys hashed into [first, last] moved from node `from` to node
  /// `to`. `from == to` when the movement stayed inside one node (e.g.
  /// a handover between two vnodes of one snode): it still counts as
  /// movement at the backend's internal granularity, but not as
  /// cross-node traffic.
  virtual void on_relocate(HashIndex first, HashIndex last, NodeId from,
                           NodeId to) = 0;

  /// Keys hashed into [first, last] were re-indexed in place (binary
  /// split or buddy merge); the responsible node is unchanged.
  virtual void on_rebucket(HashIndex first, HashIndex last) = 0;
};

}  // namespace cobalt::placement
