// The extent contract of replica_set_into (placement/backend.hpp): the
// index a walk returns is the last one through which its answer holds.
// A repair pass over ascending hashes walks again only past it, so an
// extent one index too far silently keeps a stale set for the keys
// behind a segment boundary. Checked for every scheme over a seeded
// script of joins, drains and whole-rack crashes, for the raw walk and
// for the spec-keyed (spread) walk:
//
//   * the extent is at least the probe;
//   * the set at the extent, and at random points between the probe
//     and the extent, equals the set at the probe.
//
// HRW answers the spec-keyed walk from its exact-cell tracker when the
// tracker is armed for the spec; after every event that answer must
// equal the scored walk on every cell. The 2-rack topology at k = 3
// forces the spread top-up, where spread order and rank order differ.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "placement/backend.hpp"

#include "backends.hpp"

namespace cobalt::placement {
namespace {

/// Probes per event; each also checks kBetween points of its extent.
constexpr int kProbes = 48;
constexpr int kBetween = 4;
constexpr int kEvents = 14;

/// A uniform draw from [first, last].
HashIndex draw_between(Xoshiro256& rng, HashIndex first, HashIndex last) {
  const HashIndex width = last - first;
  if (width == HashSpace::kMaxIndex) return rng.next();
  return first + rng.next() % (width + 1);
}

/// Checks the extent contract of `walk(point, out) -> extent` at seeded
/// probes; `label` names the case in failure messages.
template <typename Walk>
void expect_extents_hold(Walk&& walk, Xoshiro256& rng,
                         const std::string& label) {
  std::vector<NodeId> at_probe;
  std::vector<NodeId> at_point;
  for (int p = 0; p < kProbes; ++p) {
    // The first two probes sit on the ends of R_h.
    const HashIndex probe = p == 0   ? 0
                            : p == 1 ? HashSpace::kMaxIndex
                                     : rng.next();
    const HashIndex extent = walk(probe, at_probe);
    ASSERT_GE(extent, probe) << label << ": extent below probe " << probe;
    std::vector<HashIndex> points{extent};
    for (int i = 0; i < kBetween; ++i) {
      points.push_back(draw_between(rng, probe, extent));
    }
    for (const HashIndex point : points) {
      (void)walk(point, at_point);
      ASSERT_EQ(at_point, at_probe)
          << label << ": the set of probe " << probe << " (extent " << extent
          << ") does not hold at " << point;
    }
  }
}

/// HRW's tracked spec-keyed answer against the scored walk of the
/// shared surface, on every cell.
void expect_tracked_matches_scored(const HrwBackend& backend,
                                   const ReplicationSpec& spec,
                                   const std::string& label) {
  std::vector<NodeId> tracked;
  std::vector<NodeId> scored;
  const RangeGrid& grid = backend.grid();
  for (std::size_t cell = 0; cell < grid.size(); ++cell) {
    const HashIndex point = grid.cell_first(cell);
    const HashIndex extent = backend.replica_set_into(point, spec, tracked);
    (void)backend.ReplicationSurface<HrwBackend>::replica_set_into(
        point, spec, scored);
    ASSERT_EQ(tracked, scored) << label << ": cell " << cell;
    ASSERT_EQ(extent, grid.cell_last(cell)) << label << ": cell " << cell;
  }
}

/// Runs the join/drain/crash script on one backend under `spec`
/// (`topology` null: no spread) and checks the contract after every
/// backend call. Joins land in a random rack of the topology.
template <typename B>
void expect_extent_contract(std::uint64_t seed, std::size_t initial,
                            cluster::Topology* topology,
                            const ReplicationSpec& spec,
                            const std::string& label) {
  auto backend = make_backend<B>(seed);
  for (std::size_t n = 0; n < initial; ++n) backend.add_node();
  if (topology != nullptr) backend.set_topology(topology);
  Xoshiro256 rng(seed + 1);
  const auto clamped = [&] {
    return spec.with_k(std::min(spec.k, backend.node_count()));
  };

  const auto check = [&](int event) {
    // The store queries the dirty report after every call, which keeps
    // HRW's tracker armed for the clamped spec.
    (void)backend.replica_dirty_ranges(clamped());
    const std::string at = label + " event " + std::to_string(event);
    const ReplicationSpec current = clamped();
    expect_extents_hold(
        [&](HashIndex point, std::vector<NodeId>& out) {
          return backend.replica_set_into(point, current.k, out);
        },
        rng, at + " raw");
    expect_extents_hold(
        [&](HashIndex point, std::vector<NodeId>& out) {
          return backend.replica_set_into(point, current, out);
        },
        rng, at + " spec");
    if constexpr (std::is_same_v<B, HrwBackend>) {
      expect_tracked_matches_scored(backend, current, at);
    }
  };

  const auto live = [&] {
    std::vector<NodeId> nodes;
    for (NodeId node = 0; node < backend.node_slot_count(); ++node) {
      if (backend.is_live(node)) nodes.push_back(node);
    }
    return nodes;
  };

  check(-1);
  for (int event = 0; event < kEvents; ++event) {
    const std::vector<NodeId> nodes = live();
    if (event % 5 == 4 && topology != nullptr) {
      // A whole-rack crash: every live node of one rack, one call each.
      const NodeId victim = nodes[rng.next_below(nodes.size())];
      for (const NodeId node : nodes) {
        if (topology->rack_of(node) != topology->rack_of(victim)) continue;
        if (backend.node_count() < 2) break;
        (void)backend.remove_node(node);
        check(event);
        if (::testing::Test::HasFatalFailure()) return;
      }
      continue;
    }
    if (rng.next_below(3) == 0 && nodes.size() > 4) {
      (void)backend.remove_node(nodes[rng.next_below(nodes.size())]);
    } else {
      if (topology != nullptr) {
        const auto rack = static_cast<cluster::Topology::RackId>(
            rng.next_below(topology->rack_count()));
        topology->assign(static_cast<NodeId>(backend.node_slot_count()), rack,
                         topology->zone_of_rack(rack));
      }
      backend.add_node();
    }
    check(event);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

template <typename B>
class WalkExtentSuite : public ::testing::Test {};

TYPED_TEST_SUITE(WalkExtentSuite, AllBackends);

TYPED_TEST(WalkExtentSuite, SetHoldsThroughTheExtentWithoutSpread) {
  for (std::size_t k = 1; k <= 4; ++k) {
    ASSERT_NO_FATAL_FAILURE(expect_extent_contract<TypeParam>(
        900 + k, 10, nullptr, ReplicationSpec{k, SpreadPolicy::kNone},
        "no spread k=" + std::to_string(k)));
  }
}

TYPED_TEST(WalkExtentSuite, SetHoldsThroughTheExtentWithRackSpread) {
  for (std::size_t k = 1; k <= 4; ++k) {
    cluster::Topology topo = cluster::Topology::uniform(12, 2);
    ASSERT_NO_FATAL_FAILURE(expect_extent_contract<TypeParam>(
        920 + k, 24, &topo, ReplicationSpec{k, SpreadPolicy::kRack},
        "12 racks k=" + std::to_string(k)));
  }
}

TYPED_TEST(WalkExtentSuite, SetHoldsThroughTheExtentWhenSpreadTopsUp) {
  // Two racks cannot hold three replicas apart: every set is topped up
  // with a second node of one rack.
  cluster::Topology topo = cluster::Topology::uniform(2, 5);
  ASSERT_NO_FATAL_FAILURE(expect_extent_contract<TypeParam>(
      940, 10, &topo, ReplicationSpec{3, SpreadPolicy::kRack},
      "2 racks k=3"));
}

}  // namespace
}  // namespace cobalt::placement
