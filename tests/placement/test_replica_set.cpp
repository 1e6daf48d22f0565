// Backend-generic property tests of the replication surface: one typed
// suite drives replica_set over every placement scheme - the paper's
// local and global approaches, plain Consistent Hashing, and the
// table-driven alternatives (HRW, jump, maglev, bounded-load CH) -
// through the invariants of the PlacementBackend contract
// (placement/backend.hpp):
//
//   * the set holds min(k, node_count()) distinct live nodes;
//   * rank 0 equals owner_of (the primary IS replica 0);
//   * the set for k is a prefix of the set for k' > k (the ranking is
//     independent of how many replicas are requested);
//   * departed nodes leave every replica set;
//   * the result is deterministic for a fixed membership;
//   * a WalkStop cuts the walk to a prefix, and the stopped rack and
//     zone spread sets equal the full-depth definition (walk to
//     spread_bound, then reorder) on uneven, churned, partly
//     unassigned and crashed-rack topologies;
//   * the successor schemes' spread dirty report, which counts failure
//     domains, covers every spread set an event changed and stays near
//     the exact change.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "placement/backend.hpp"

#include "backends.hpp"

namespace cobalt::placement {
namespace {

/// A spread of probe points across R_h (deterministic).
std::vector<HashIndex> probe_points(std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<HashIndex> points;
  points.reserve(count + 2);
  points.push_back(0);
  points.push_back(HashSpace::kMaxIndex);
  for (std::size_t i = 0; i < count; ++i) points.push_back(rng.next());
  return points;
}

bool all_distinct(const std::vector<NodeId>& nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (nodes[i] == nodes[j]) return false;
    }
  }
  return true;
}

template <typename B>
class ReplicaSetSuite : public ::testing::Test {};

TYPED_TEST_SUITE(ReplicaSetSuite, AllBackends);

TYPED_TEST(ReplicaSetSuite, ReturnsKDistinctLiveNodesWithOwnerFirst) {
  auto backend = make_backend<TypeParam>(301);
  for (int n = 0; n < 12; ++n) backend.add_node();
  for (const HashIndex point : probe_points(40, 17)) {
    for (std::size_t k = 1; k <= 4; ++k) {
      const auto replicas = backend.replica_set(point, k);
      ASSERT_EQ(replicas.size(), k) << "point " << point << " k " << k;
      ASSERT_TRUE(all_distinct(replicas));
      for (const NodeId node : replicas) {
        ASSERT_TRUE(backend.is_live(node));
      }
      ASSERT_EQ(replicas.front(), backend.owner_of(point))
          << "rank 0 must be the primary";
    }
  }
}

TYPED_TEST(ReplicaSetSuite, SmallerKIsAPrefixOfLargerK) {
  auto backend = make_backend<TypeParam>(302);
  for (int n = 0; n < 10; ++n) backend.add_node();
  for (const HashIndex point : probe_points(25, 23)) {
    const auto four = backend.replica_set(point, 4);
    ASSERT_EQ(four.size(), 4u);
    for (std::size_t k = 1; k < 4; ++k) {
      const auto fewer = backend.replica_set(point, k);
      ASSERT_EQ(fewer.size(), k);
      EXPECT_TRUE(std::equal(fewer.begin(), fewer.end(), four.begin()))
          << "the ranking must not depend on k";
    }
  }
}

TYPED_TEST(ReplicaSetSuite, ClampsToTheLiveNodeCount) {
  auto backend = make_backend<TypeParam>(303);
  backend.add_node();
  backend.add_node();
  for (const HashIndex point : probe_points(10, 29)) {
    const auto replicas = backend.replica_set(point, 5);
    ASSERT_EQ(replicas.size(), 2u);  // min(k, node_count)
    ASSERT_TRUE(all_distinct(replicas));
    EXPECT_EQ(replicas.front(), backend.owner_of(point));
  }
}

TYPED_TEST(ReplicaSetSuite, DepartedNodesLeaveEveryReplicaSet) {
  auto backend = make_backend<TypeParam>(304);
  std::vector<NodeId> nodes;
  for (int n = 0; n < 10; ++n) nodes.push_back(backend.add_node());
  // Remove up to 3 nodes; schemes may refuse (the local approach).
  std::vector<NodeId> gone;
  for (std::size_t i = 0; i < nodes.size() && gone.size() < 3; ++i) {
    if (backend.remove_node(nodes[i])) gone.push_back(nodes[i]);
  }
  ASSERT_FALSE(gone.empty());
  for (const HashIndex point : probe_points(30, 31)) {
    const auto replicas = backend.replica_set(point, 3);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(replicas.front(), backend.owner_of(point));
    for (const NodeId dead : gone) {
      EXPECT_EQ(std::find(replicas.begin(), replicas.end(), dead),
                replicas.end())
          << "departed node " << dead << " still ranked";
    }
  }
}

TYPED_TEST(ReplicaSetSuite, DeterministicForAFixedMembership) {
  auto backend = make_backend<TypeParam>(305);
  for (int n = 0; n < 8; ++n) backend.add_node();
  for (const HashIndex point : probe_points(15, 37)) {
    EXPECT_EQ(backend.replica_set(point, 3), backend.replica_set(point, 3));
  }
}

TYPED_TEST(ReplicaSetSuite, SingleNodeOwnsTheOnlyReplica) {
  auto backend = make_backend<TypeParam>(306);
  const NodeId only = backend.add_node();
  for (const HashIndex point : probe_points(10, 41)) {
    const auto replicas = backend.replica_set(point, 3);
    ASSERT_EQ(replicas.size(), 1u);
    EXPECT_EQ(replicas.front(), only);
  }
}

TYPED_TEST(ReplicaSetSuite, RejectsZeroK) {
  auto backend = make_backend<TypeParam>(307);
  backend.add_node();
  EXPECT_THROW((void)backend.replica_set(0, 0), InvalidArgument);
}

// --- the bulk-repair surface (replica_set_into + dirty ranges) ------

TYPED_TEST(ReplicaSetSuite, ReplicaSetIntoMatchesReplicaSet) {
  auto backend = make_backend<TypeParam>(308);
  for (int n = 0; n < 9; ++n) backend.add_node();
  std::vector<NodeId> out;
  for (const HashIndex point : probe_points(25, 43)) {
    for (std::size_t k = 1; k <= 4; ++k) {
      out.assign(7, kInvalidNode);  // stale content must be cleared
      backend.replica_set_into(point, k, out);
      EXPECT_EQ(out, backend.replica_set(point, k))
          << "point " << point << " k " << k;
    }
  }
}

/// True when `point` lies inside one of the (inclusive, non-wrapping)
/// ranges.
bool covered(const std::vector<HashRange>& ranges, HashIndex point) {
  for (const HashRange& range : ranges) {
    if (point >= range.first && point <= range.last) return true;
  }
  return false;
}

TYPED_TEST(ReplicaSetSuite, DirtyRangesCoverEveryReplicaSetChange) {
  // The replica_dirty_ranges contract: after a membership event, any
  // point whose replica_set(., k) changed must lie inside a reported
  // range (a conservative superset is fine; a missed change would let
  // the store's planned repair silently skip real repair work).
  auto backend = make_backend<TypeParam>(309);
  for (int n = 0; n < 6; ++n) backend.add_node();
  const auto points = probe_points(120, 47);
  Xoshiro256 rng(53);

  for (int event = 0; event < 10; ++event) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
      // Snapshot, mutate, diff.
      std::vector<std::vector<NodeId>> before;
      before.reserve(points.size());
      for (const HashIndex point : points) {
        before.push_back(backend.replica_set(point, k));
      }

      if (rng.next_below(3) == 0 && backend.node_count() > 4) {
        std::vector<NodeId> live;
        for (NodeId node = 0; node < backend.node_slot_count(); ++node) {
          if (backend.is_live(node)) live.push_back(node);
        }
        const NodeId victim = live[static_cast<std::size_t>(
            rng.next_below(live.size()))];
        if (!backend.remove_node(victim)) {
          // A refused drain is its own event (an aborted decommission
          // may still have rebalanced); re-snapshot before the join so
          // the diff below spans only the most recent event - exactly
          // what replica_dirty_ranges reports.
          before.clear();
          for (const HashIndex point : points) {
            before.push_back(backend.replica_set(point, k));
          }
          backend.add_node();
        }
      } else {
        backend.add_node();
      }

      const auto dirty = backend.replica_dirty_ranges(k);
      for (std::size_t p = 0; p < points.size(); ++p) {
        if (backend.replica_set(points[p], k) == before[p]) continue;
        EXPECT_TRUE(covered(dirty, points[p]))
            << "k=" << k << " event " << event << ": replica set of point "
            << points[p] << " changed outside every dirty range";
      }
    }
  }
}

// --- the spread-aware surface (ReplicationSpec + Topology) ----------

/// Distinct failure domains represented in `replicas` under `of`.
template <typename DomainOf>
std::size_t distinct_domains(const std::vector<NodeId>& replicas,
                             DomainOf of) {
  std::vector<std::uint32_t> domains;
  for (const NodeId node : replicas) domains.push_back(of(node));
  std::sort(domains.begin(), domains.end());
  domains.erase(std::unique(domains.begin(), domains.end()), domains.end());
  return domains.size();
}

TYPED_TEST(ReplicaSetSuite, SpreadNoneMatchesTheRawWalkBitForBit) {
  // SpreadPolicy::kNone must reproduce the raw ranked walk exactly,
  // topology attached or not - the abl8 byte-parity guarantee.
  auto backend = make_backend<TypeParam>(310);
  for (int n = 0; n < 12; ++n) backend.add_node();
  const cluster::Topology topo = cluster::Topology::uniform(4, 3);
  backend.set_topology(&topo);
  for (const HashIndex point : probe_points(30, 59)) {
    for (std::size_t k = 1; k <= 3; ++k) {
      const ReplicationSpec spec{k, SpreadPolicy::kNone};
      EXPECT_EQ(backend.replica_set(point, spec),
                backend.replica_set(point, k));
    }
  }
}

TYPED_TEST(ReplicaSetSuite, SpreadWithoutTopologyMatchesTheRawWalk) {
  auto backend = make_backend<TypeParam>(311);
  for (int n = 0; n < 10; ++n) backend.add_node();
  ASSERT_EQ(backend.topology(), nullptr);
  for (const HashIndex point : probe_points(20, 61)) {
    const ReplicationSpec spec{3, SpreadPolicy::kRack};
    EXPECT_EQ(backend.replica_set(point, spec),
              backend.replica_set(point, 3));
  }
}

TYPED_TEST(ReplicaSetSuite, RackSpreadPlacesReplicasOnDistinctRacks) {
  auto backend = make_backend<TypeParam>(312);
  for (int n = 0; n < 12; ++n) backend.add_node();
  const cluster::Topology topo = cluster::Topology::uniform(4, 3);
  backend.set_topology(&topo);
  for (const HashIndex point : probe_points(40, 67)) {
    for (std::size_t k = 2; k <= 3; ++k) {
      const ReplicationSpec spec{k, SpreadPolicy::kRack};
      const auto replicas = backend.replica_set(point, spec);
      ASSERT_EQ(replicas.size(), k);
      ASSERT_TRUE(all_distinct(replicas));
      EXPECT_EQ(replicas.front(), backend.owner_of(point))
          << "rank 0 must stay the raw owner under spread";
      EXPECT_EQ(distinct_domains(replicas,
                                 [&](NodeId n) { return topo.rack_of(n); }),
                k)
          << "replicas share a rack with 4 racks available";
    }
  }
}

TYPED_TEST(ReplicaSetSuite, ZoneSpreadPlacesReplicasOnDistinctZones) {
  auto backend = make_backend<TypeParam>(313);
  for (int n = 0; n < 12; ++n) backend.add_node();
  const cluster::Topology topo = cluster::Topology::uniform(4, 3, 2);
  backend.set_topology(&topo);
  for (const HashIndex point : probe_points(30, 71)) {
    const ReplicationSpec spec{2, SpreadPolicy::kZone};
    const auto replicas = backend.replica_set(point, spec);
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_EQ(replicas.front(), backend.owner_of(point));
    EXPECT_EQ(distinct_domains(replicas,
                               [&](NodeId n) { return topo.zone_of(n); }),
              2u);
  }
}

TYPED_TEST(ReplicaSetSuite, SpreadFallsBackGracefullyWhenDomainsRunOut) {
  // 2 racks, k = 3: one node per rack first, then the filter fills the
  // third slot from the walk - never fewer than k distinct nodes.
  auto backend = make_backend<TypeParam>(314);
  for (int n = 0; n < 10; ++n) backend.add_node();
  const cluster::Topology topo = cluster::Topology::uniform(2, 5);
  backend.set_topology(&topo);
  for (const HashIndex point : probe_points(30, 73)) {
    const ReplicationSpec spec{3, SpreadPolicy::kRack};
    const auto replicas = backend.replica_set(point, spec);
    ASSERT_EQ(replicas.size(), 3u);
    ASSERT_TRUE(all_distinct(replicas));
    EXPECT_EQ(replicas.front(), backend.owner_of(point));
    EXPECT_EQ(distinct_domains(replicas,
                               [&](NodeId n) { return topo.rack_of(n); }),
              2u)
        << "both racks must still be represented";
  }
}

TYPED_TEST(ReplicaSetSuite, SpreadSmallerKIsAPrefixOfLargerK) {
  // The spread walk keeps the prefix-stability contract of the raw
  // walk: the first min(k, domains) slots are the walk-order first
  // appearances of each new domain, independent of k.
  auto backend = make_backend<TypeParam>(315);
  for (int n = 0; n < 12; ++n) backend.add_node();
  const cluster::Topology topo = cluster::Topology::uniform(4, 3);
  backend.set_topology(&topo);
  for (const HashIndex point : probe_points(25, 79)) {
    const ReplicationSpec three{3, SpreadPolicy::kRack};
    const auto full = backend.replica_set(point, three);
    ASSERT_EQ(full.size(), 3u);
    for (std::size_t k = 1; k < 3; ++k) {
      const auto fewer = backend.replica_set(point, three.with_k(k));
      ASSERT_EQ(fewer.size(), k);
      EXPECT_TRUE(std::equal(fewer.begin(), fewer.end(), full.begin()))
          << "the spread ranking must not depend on k";
    }
  }
}

TYPED_TEST(ReplicaSetSuite, SpreadReplicaSetIntoMatchesReplicaSet) {
  auto backend = make_backend<TypeParam>(316);
  for (int n = 0; n < 9; ++n) backend.add_node();
  const cluster::Topology topo = cluster::Topology::uniform(3, 3);
  backend.set_topology(&topo);
  std::vector<NodeId> out;
  for (const HashIndex point : probe_points(20, 83)) {
    for (const SpreadPolicy policy :
         {SpreadPolicy::kNone, SpreadPolicy::kRack, SpreadPolicy::kZone}) {
      const ReplicationSpec spec{3, policy};
      out.assign(7, kInvalidNode);  // stale content must be cleared
      backend.replica_set_into(point, spec, out);
      EXPECT_EQ(out, backend.replica_set(point, spec));
    }
  }
}

/// The live nodes of `backend`, ascending.
template <typename B>
std::vector<NodeId> live_nodes(const B& backend) {
  std::vector<NodeId> live;
  for (NodeId node = 0; node < backend.node_slot_count(); ++node) {
    if (backend.is_live(node)) live.push_back(node);
  }
  return live;
}

/// Distinct failure domains (nodes, under kNone) among the live nodes.
template <typename B>
std::size_t live_domains(const B& backend, const cluster::Topology& topo,
                         SpreadPolicy policy) {
  return distinct_domains(live_nodes(backend), DomainKey{&topo, policy});
}

/// The spec-keyed dirty-range contract over a scripted churn: after
/// every event (a join, a drain, or a whole-rack crash - one removal
/// per backend call, with the reports of the calls accumulated), any
/// probe point whose spread set changed lies inside a reported range.
/// Joins land in a random rack of `topo`, or (when `synthetic`) in a
/// singleton rack outside it. The report is armed before the script,
/// so HRW answers with its exact cells from the first event on.
/// Returns how many events left fewer live domains than spec.k.
template <typename B>
std::size_t expect_spread_dirty_cover(std::uint64_t seed, std::size_t initial,
                                      cluster::Topology topo,
                                      const ReplicationSpec& spec,
                                      bool synthetic, const char* label) {
  auto backend = make_backend<B>(seed);
  for (std::size_t n = 0; n < initial; ++n) backend.add_node();
  backend.set_topology(&topo);
  const auto points = probe_points(120, seed + 1);
  Xoshiro256 rng(seed + 2);
  const auto query = [&] {
    return backend.replica_dirty_ranges(
        spec.with_k(std::min(spec.k, backend.node_count())));
  };
  const auto snapshot = [&] {
    std::vector<std::vector<NodeId>> sets;
    for (const HashIndex point : points) {
      sets.push_back(backend.replica_set(
          point, spec.with_k(std::min(spec.k, backend.node_count()))));
    }
    return sets;
  };
  const auto join = [&] {
    if (!synthetic) {
      const auto rack = static_cast<cluster::Topology::RackId>(
          rng.next_below(topo.rack_count()));
      topo.assign(static_cast<NodeId>(backend.node_slot_count()), rack,
                  topo.zone_of_rack(rack));
    }
    backend.add_node();
  };
  (void)query();

  std::size_t short_of_k = 0;
  for (int event = 0; event < 16; ++event) {
    auto before = snapshot();
    std::vector<HashRange> dirty;
    const std::vector<NodeId> live = live_nodes(backend);
    if (event % 5 == 4) {
      // A whole-rack crash: every live node of one rack, one call each.
      const NodeId victim = live[rng.next_below(live.size())];
      for (const NodeId node : live) {
        if (topo.rack_of(node) != topo.rack_of(victim)) continue;
        if (backend.node_count() < 2) break;
        (void)backend.remove_node(node);
        const auto ranges = query();
        dirty.insert(dirty.end(), ranges.begin(), ranges.end());
      }
    } else if (rng.next_below(3) == 0 && live.size() > 4) {
      if (!backend.remove_node(live[rng.next_below(live.size())])) {
        // A refused drain is its own event; diff only the join.
        before = snapshot();
        join();
      }
      dirty = query();
    } else {
      join();
      dirty = query();
    }

    const auto after = snapshot();
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (after[p] == before[p]) continue;
      EXPECT_TRUE(covered(dirty, points[p]))
          << label << " event " << event << ": spread replica set of point "
          << points[p] << " changed outside every dirty range";
    }
    if (live_domains(backend, topo, spec.spread) < spec.k) ++short_of_k;
  }
  return short_of_k;
}

TYPED_TEST(ReplicaSetSuite, SpreadDirtyRangesCoverEverySpreadSetChange) {
  // A topology that only covers the initial population: later joins
  // land in synthetic singleton racks (the mixed real/synthetic case).
  expect_spread_dirty_cover<TypeParam>(
      317, 6, cluster::Topology::uniform(3, 2),
      ReplicationSpec{2, SpreadPolicy::kRack}, true, "k=2 rack synthetic");
  // Four racks of three over three zones (zone 0 holds two racks):
  // crashes can leave fewer live zones than k.
  const auto topo = cluster::Topology::uniform(4, 3, 3);
  for (const SpreadPolicy policy :
       {SpreadPolicy::kRack, SpreadPolicy::kZone, SpreadPolicy::kNone}) {
    expect_spread_dirty_cover<TypeParam>(
        331, 12, topo, ReplicationSpec{3, policy}, false,
        spread_policy_name(policy));
  }
}

/// Share of the hash space `ranges` cover.
double dirty_mass(std::vector<HashRange> ranges) {
  coalesce_ranges(ranges);
  double mass = 0.0;
  for (const HashRange& range : ranges) {
    mass += (static_cast<double>(range.last - range.first) + 1.0) * 0x1.0p-64;
  }
  return mass;
}

TEST(HrwSpreadDirtyCells, JoinsAndLeavesDirtyASmallShare) {
  // Once armed, HRW reports the cells whose spread set changed, not the
  // whole space: on 48 nodes in 12 racks an event moves about k/48 of
  // the sets.
  for (const SpreadPolicy policy : {SpreadPolicy::kRack, SpreadPolicy::kNone}) {
    HrwBackend backend({41, 12});
    cluster::Topology topo = cluster::Topology::uniform(12, 4);
    for (int n = 0; n < 48; ++n) backend.add_node();
    backend.set_topology(&topo);
    const ReplicationSpec spec{3, policy};
    EXPECT_EQ(dirty_mass(backend.replica_dirty_ranges(spec)), 1.0)
        << "arming answers the full range";
    Xoshiro256 rng(43);
    for (int event = 0; event < 12; ++event) {
      const std::vector<NodeId> live = live_nodes(backend);
      const NodeId victim = live[rng.next_below(live.size())];
      const auto rack = topo.rack_of(victim);
      ASSERT_TRUE(backend.remove_node(victim));
      EXPECT_LT(dirty_mass(backend.replica_dirty_ranges(spec)), 0.25)
          << spread_policy_name(policy) << " leave " << event;
      topo.assign(static_cast<NodeId>(backend.node_slot_count()), rack);
      backend.add_node();
      EXPECT_LT(dirty_mass(backend.replica_dirty_ranges(spec)), 0.25)
          << spread_policy_name(policy) << " join " << event;
    }
  }
}

// --- the domain-counting report of the walk-ordered schemes ----------

template <typename B>
class WalkDirtySuite : public ::testing::Test {};

using WalkBackends =
    ::testing::Types<LocalDhtBackend, GlobalDhtBackend, ChBackend,
                     JumpBackend, MaglevBackend, BoundedChBackend>;
TYPED_TEST_SUITE(WalkDirtySuite, WalkBackends);

TYPED_TEST(WalkDirtySuite, DomainReportCoversEverySpreadSetChange) {
  // The soundness of counting domains, not owners: k = 2..4 under rack
  // and zone spread, joins into real racks and into synthetic
  // singleton racks, whole-rack crashes. Three racks of two in three
  // zones start short of k = 4, four racks of three in three zones
  // have the racks but not the zones for k = 4, and whole-rack crashes
  // can leave fewer live domains than k: the script must reach that
  // case, where the report is the full range.
  std::size_t short_of_k = 0;
  for (const SpreadPolicy policy : {SpreadPolicy::kRack, SpreadPolicy::kZone}) {
    for (std::size_t k = 2; k <= 4; ++k) {
      const ReplicationSpec spec{k, policy};
      const std::uint64_t seed = 401 + 10 * k;
      short_of_k += expect_spread_dirty_cover<TypeParam>(
          seed, 12, cluster::Topology::uniform(4, 3, 3), spec, false,
          spread_policy_name(policy));
      short_of_k += expect_spread_dirty_cover<TypeParam>(
          seed + 1, 6, cluster::Topology::uniform(3, 2, 3), spec, true,
          "synthetic");
    }
  }
  EXPECT_GT(short_of_k, 0u) << "no event left fewer live domains than k";
}

TYPED_TEST(WalkDirtySuite, DomainReportStaysNearTheExactChange) {
  // Tightness on a fixed script: 48 nodes in 12 racks of 4 at k = 3
  // rack spread, 24 events alternating a drain of a random live node
  // with a join into its rack. Over the script the report may hold at
  // most 1.5x the probe points whose spread set really changed (and
  // must hold all of them); counting owners instead held 2.7-4.1x. The
  // local approach's report also carries its split waves, which keep
  // every owner but are recorded as changed spans (dht_backend.cpp):
  // they lift it from 1.34x to 1.67x here, so it gets 1.75x.
  auto backend = make_backend<TypeParam>(353);
  cluster::Topology topo = cluster::Topology::uniform(12, 4);
  for (int n = 0; n < 48; ++n) backend.add_node();
  backend.set_topology(&topo);
  const ReplicationSpec spec{3, SpreadPolicy::kRack};
  const auto points = probe_points(4096, 359);
  const auto snapshot = [&] {
    std::vector<std::vector<NodeId>> sets;
    for (const HashIndex point : points) {
      sets.push_back(backend.replica_set(point, spec));
    }
    return sets;
  };
  Xoshiro256 rng(367);
  std::size_t changed = 0;
  std::size_t reported = 0;
  auto before = snapshot();
  cluster::Topology::RackId rack = 0;
  for (int event = 0; event < 24; ++event) {
    if (event % 2 == 0) {
      const std::vector<NodeId> live = live_nodes(backend);
      const NodeId victim = live[rng.next_below(live.size())];
      rack = topo.rack_of(victim);
      (void)backend.remove_node(victim);
    } else {
      topo.assign(static_cast<NodeId>(backend.node_slot_count()), rack);
      backend.add_node();
    }
    const auto dirty = backend.replica_dirty_ranges(spec);
    const auto after = snapshot();
    for (std::size_t p = 0; p < points.size(); ++p) {
      const bool in_report = covered(dirty, points[p]);
      if (in_report) ++reported;
      if (after[p] == before[p]) continue;
      ++changed;
      EXPECT_TRUE(in_report) << "event " << event << ": point " << points[p]
                             << " changed outside the report";
    }
    before = after;
  }
  ASSERT_GT(changed, 0u);
  const double bound = std::is_same_v<TypeParam, LocalDhtBackend> ? 1.75 : 1.5;
  EXPECT_LE(static_cast<double>(reported),
            bound * static_cast<double>(changed))
      << "report " << reported << " against " << changed << " changed";
}

TYPED_TEST(WalkDirtySuite, DomainReportNestsInTheCapDepthReport) {
  // The domain report stops its expansion at the k-th distinct domain,
  // which pigeonhole places no deeper than the placement cap's owner
  // count, so it lies inside the raw report at that cap (departed
  // nodes keep the cap high here).
  auto backend = make_backend<TypeParam>(337);
  cluster::Topology topo = cluster::Topology::uniform(12, 4);
  for (int n = 0; n < 48; ++n) backend.add_node();
  backend.set_topology(&topo);
  const ReplicationSpec spec{3, SpreadPolicy::kRack};
  Xoshiro256 rng(347);
  for (int event = 0; event < 16; ++event) {
    if (event % 2 == 0) {
      const std::vector<NodeId> live = live_nodes(backend);
      (void)backend.remove_node(live[rng.next_below(live.size())]);
    } else {
      const auto rack = static_cast<cluster::Topology::RackId>(
          rng.next_below(topo.rack_count()));
      topo.assign(static_cast<NodeId>(backend.node_slot_count()), rack);
      backend.add_node();
    }
    const std::size_t cap = std::max(
        spec.k, std::min(backend.node_count() + 1, topo.spread_bound(spec.k)));
    auto wide = backend.replica_dirty_ranges(cap);
    coalesce_ranges(wide);
    for (const HashRange& range : backend.replica_dirty_ranges(spec)) {
      EXPECT_TRUE(std::any_of(wide.begin(), wide.end(),
                              [&](const HashRange& w) {
                                return w.first <= range.first &&
                                       range.last <= w.last;
                              }))
          << "event " << event << ": [" << range.first << ", " << range.last
          << "] lies outside the cap-depth report";
    }
  }
}

// --- the stopped spread walk against its full-depth definition -------

/// The spread set as defined without an early exit: the raw walk taken
/// to the full pigeonhole depth, then the first appearance of each
/// failure domain (rank order), then the skipped candidates (rank
/// order), truncated to k.
template <typename B>
std::vector<NodeId> full_depth_spread(const B& backend,
                                      const cluster::Topology& topo,
                                      SpreadPolicy policy, std::size_t k,
                                      HashIndex point) {
  const bool by_zone = policy == SpreadPolicy::kZone;
  const auto walk = backend.replica_set(point, topo.spread_bound(k, by_zone));
  std::vector<std::uint32_t> seen;
  std::vector<NodeId> fresh;
  std::vector<NodeId> skipped;
  for (const NodeId node : walk) {
    const std::uint32_t domain =
        by_zone ? topo.zone_of(node) : topo.rack_of(node);
    if (std::find(seen.begin(), seen.end(), domain) == seen.end()) {
      seen.push_back(domain);
      fresh.push_back(node);
    } else {
      skipped.push_back(node);
    }
  }
  fresh.insert(fresh.end(), skipped.begin(), skipped.end());
  if (fresh.size() > k) fresh.resize(k);
  return fresh;
}

/// Every rack and zone spread set at k = 2..4 equals the full-depth
/// definition.
template <typename B>
void expect_spread_matches_full_depth(const B& backend,
                                      const cluster::Topology& topo,
                                      std::uint64_t seed,
                                      const char* scenario) {
  for (const SpreadPolicy policy : {SpreadPolicy::kRack, SpreadPolicy::kZone}) {
    for (std::size_t k = 2; k <= 4; ++k) {
      for (const HashIndex point : probe_points(60, seed)) {
        ASSERT_EQ(backend.replica_set(point, ReplicationSpec{k, policy}),
                  full_depth_spread(backend, topo, policy, k, point))
            << scenario << ": " << spread_policy_name(policy) << " k=" << k
            << " point " << point;
      }
    }
  }
}

TYPED_TEST(ReplicaSetSuite, StoppedSpreadWalkMatchesTheFullDepthDefinition) {
  // Uneven racks (5, 4, 2, 2, 1 nodes) over three uneven zones, node
  // ids interleaved across racks.
  auto backend = make_backend<TypeParam>(318);
  const std::vector<cluster::Topology::RackId> rack_of_node{
      0, 1, 0, 2, 1, 0, 3, 1, 0, 2, 4, 1, 0, 3};
  const std::vector<cluster::Topology::ZoneId> zone_of_rack{0, 1, 0, 2, 2};
  cluster::Topology topo;
  for (NodeId node = 0; node < rack_of_node.size(); ++node) {
    backend.add_node();
    topo.assign(node, rack_of_node[node], zone_of_rack[rack_of_node[node]]);
  }
  backend.set_topology(&topo);
  expect_spread_matches_full_depth(backend, topo, 101, "uneven racks");

  // Departed nodes stay assigned, so they still count in the bound.
  // Schemes may refuse a drain (the local approach).
  for (const NodeId node : {NodeId{1}, NodeId{5}, NodeId{8}}) {
    (void)backend.remove_node(node);
  }
  expect_spread_matches_full_depth(backend, topo, 103, "departed nodes");

  // Joins outside the topology are synthetic singleton domains.
  for (int n = 0; n < 3; ++n) backend.add_node();
  expect_spread_matches_full_depth(backend, topo, 107, "synthetic nodes");
}

TYPED_TEST(ReplicaSetSuite, StoppedSpreadWalkFallsBackAfterARackCrash) {
  // Three racks, one per zone; rack 2 crashes, so k = 3 and k = 4 find
  // fewer live domains than k: the stop never fires, the walk runs to
  // the cap (clamped to the live count, since the bound of 13 exceeds
  // it) and phase 2 fills the set.
  auto backend = make_backend<TypeParam>(319);
  for (int n = 0; n < 12; ++n) backend.add_node();
  const cluster::Topology topo = cluster::Topology::uniform(3, 4, 3);
  backend.set_topology(&topo);
  for (const NodeId node : topo.nodes_in_rack(2)) {
    (void)backend.remove_node(node);
  }
  expect_spread_matches_full_depth(backend, topo, 109, "crashed rack");
  for (const HashIndex point : probe_points(30, 113)) {
    const auto replicas =
        backend.replica_set(point, ReplicationSpec{4, SpreadPolicy::kRack});
    ASSERT_EQ(replicas.size(), 4u);
    ASSERT_TRUE(all_distinct(replicas));
    EXPECT_LT(distinct_domains(replicas,
                               [&](NodeId n) { return topo.rack_of(n); }),
              4u)
        << "four racks cannot exist: the fallback filled the set";
  }
}

/// A stop firing at the j-th node yields exactly the first j entries
/// of the unstopped walk, and sees every appended node in order (the
/// spread stop relies on both); a stop that never fires leaves the walk
/// (clamped to the live count) untouched.
template <typename B>
void expect_stops_cut_prefixes(const B& backend, std::uint64_t seed) {
  std::vector<NodeId> out;
  for (const HashIndex point : probe_points(20, seed)) {
    const auto full = backend.replica_set(point, backend.node_count());
    for (std::size_t j = 1; j <= full.size(); ++j) {
      std::vector<NodeId> seen;
      auto fire_at_j = [&](NodeId node) {
        seen.push_back(node);
        return seen.size() == j;
      };
      backend.replica_set_into(point, full.size(), out,
                               WalkStop::of(fire_at_j));
      const std::vector<NodeId> prefix(
          full.begin(), full.begin() + static_cast<std::ptrdiff_t>(j));
      ASSERT_EQ(out, prefix) << "point " << point << " stop at " << j;
      ASSERT_EQ(seen, out);
    }
    std::vector<NodeId> seen;
    auto never = [&](NodeId node) {
      seen.push_back(node);
      return false;
    };
    backend.replica_set_into(point, full.size() + 5, out, WalkStop::of(never));
    ASSERT_EQ(out, full);
    ASSERT_EQ(seen, full);
  }
}

TYPED_TEST(ReplicaSetSuite, StoppedWalkReturnsThePrefixOfTheUnstoppedWalk) {
  auto backend = make_backend<TypeParam>(320);
  for (int n = 0; n < 10; ++n) backend.add_node();
  (void)backend.remove_node(3);
  expect_stops_cut_prefixes(backend, 127);

  // A lone node is still reported to the stop, so a spread walk over
  // it has its one domain marked.
  auto single = make_backend<TypeParam>(322);
  const NodeId only = single.add_node();
  expect_stops_cut_prefixes(single, 137);
  const cluster::Topology topo = cluster::Topology::uniform(2, 2);
  single.set_topology(&topo);
  const ReplicationSpec spec{3, SpreadPolicy::kRack};
  for (const HashIndex point : probe_points(10, 139)) {
    EXPECT_EQ(single.replica_set(point, spec), std::vector<NodeId>{only});
  }
}

TEST(HrwReplicaOrder, LazyRanksMatchSortingEveryScore) {
  // HRW yields the stored owner, then pops the others off a heap; the
  // result must equal sorting every live node's score (descending,
  // ties by ascending id) behind the owner.
  HrwBackend backend({321, 10});
  for (int n = 0; n < 12; ++n) backend.add_node(n % 3 == 0 ? 2.5 : 1.0);
  (void)backend.remove_node(2);
  (void)backend.remove_node(7);
  for (const HashIndex point : probe_points(80, 131)) {
    const std::size_t cell = backend.grid().cell_of(point);
    const NodeId owner = backend.owner_of(point);
    std::vector<std::pair<double, NodeId>> scored;
    for (NodeId node = 0; node < backend.node_slot_count(); ++node) {
      if (backend.is_live(node) && node != owner) {
        scored.emplace_back(backend.score(cell, node), node);
      }
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    std::vector<NodeId> expected{owner};
    for (const auto& [score, node] : scored) expected.push_back(node);
    EXPECT_EQ(backend.replica_set(point, backend.node_count()), expected)
        << "point " << point;
  }
}

}  // namespace
}  // namespace cobalt::placement
