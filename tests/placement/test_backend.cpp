// Tests for the placement layer: the PlacementBackend concept and the
// seven adapters (local DHT, global DHT, Consistent Hashing, HRW,
// jump, maglev, bounded-load CH), including the removal drain paths
// and relocation-event surfaces. Cross-backend properties live in
// test_backend_properties.cpp; this file covers scheme-specific
// behaviour.

#include "placement/backend.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "dht/invariants.hpp"
#include "placement/bounded_ch_backend.hpp"
#include "placement/ch_backend.hpp"
#include "placement/dht_backend.hpp"
#include "placement/hrw_backend.hpp"
#include "placement/jump_backend.hpp"
#include "placement/maglev_backend.hpp"

namespace cobalt::placement {
namespace {

// The shipped schemes model the concept - enforced at compile time,
// so a surface regression is a build error, not a test failure.
static_assert(PlacementBackend<LocalDhtBackend>);
static_assert(PlacementBackend<GlobalDhtBackend>);
static_assert(PlacementBackend<ChBackend>);
static_assert(PlacementBackend<HrwBackend>);
static_assert(PlacementBackend<JumpBackend>);
static_assert(PlacementBackend<MaglevBackend>);
static_assert(PlacementBackend<BoundedChBackend>);

dht::Config cfg(std::uint64_t pmin, std::uint64_t vmin, std::uint64_t seed) {
  dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = seed;
  return c;
}

/// Collects relocation events for assertions.
class EventLog final : public RelocationObserver {
 public:
  struct Relocation {
    HashIndex first;
    HashIndex last;
    NodeId from;
    NodeId to;
  };

  void on_relocate(HashIndex first, HashIndex last, NodeId from,
                   NodeId to) override {
    ASSERT_LE(first, last) << "ranges must not wrap";
    relocations.push_back({first, last, from, to});
  }

  void on_rebucket(HashIndex first, HashIndex last) override {
    ASSERT_LE(first, last) << "ranges must not wrap";
    ++rebuckets;
  }

  std::vector<Relocation> relocations;
  std::size_t rebuckets = 0;
};

TEST(DhtBackend, QuotasSumToOneAndSigmaMatchesTheBalancer) {
  LocalDhtBackend backend({cfg(8, 8, 1), 1});
  for (int n = 0; n < 50; ++n) backend.add_node();
  EXPECT_EQ(backend.node_count(), 50u);
  const auto quotas = backend.quotas();
  ASSERT_EQ(quotas.size(), 50u);
  const double sum = std::accumulate(quotas.begin(), quotas.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // One vnode per node: the node metric IS the paper's sigma-bar(Qv).
  EXPECT_DOUBLE_EQ(backend.sigma(), backend.dht().sigma_qv());
}

TEST(DhtBackend, CapacityScalesEnrollment) {
  GlobalDhtBackend backend({cfg(8, 1, 2), 4});
  const NodeId small = backend.add_node(1.0);
  const NodeId big = backend.add_node(2.5);
  EXPECT_EQ(backend.vnodes_of(small), 4u);
  EXPECT_EQ(backend.vnodes_of(big), 10u);
  // Quotas follow enrollment: big ~ 2.5x small.
  const auto quotas = backend.quotas();
  EXPECT_NEAR(quotas[1] / quotas[0], 2.5, 0.8);
}

TEST(DhtBackend, OwnerOfAgreesWithTheRoutingMap) {
  LocalDhtBackend backend({cfg(8, 4, 3), 2});
  for (int n = 0; n < 10; ++n) backend.add_node();
  for (HashIndex probe : {HashIndex{0}, HashIndex{1} << 40,
                          HashIndex{1} << 63, HashSpace::kMaxIndex}) {
    const auto hit = backend.dht().lookup(probe);
    EXPECT_EQ(backend.owner_of(probe),
              static_cast<NodeId>(backend.dht().vnode(hit.owner).snode));
  }
}

TEST(DhtBackend, GlobalRemovalDrainsThroughMerges) {
  // Grow far enough for several split waves, then shrink back across
  // power-of-two boundaries: every removal drains through
  // merge_everything and the invariants must hold at each step.
  GlobalDhtBackend backend({cfg(8, 1, 4), 1});
  std::vector<NodeId> nodes;
  for (int n = 0; n < 33; ++n) nodes.push_back(backend.add_node());
  const unsigned level_at_peak = backend.dht().splitlevel();

  for (int n = 32; n >= 2; --n) {
    ASSERT_TRUE(backend.remove_node(nodes[static_cast<std::size_t>(n)]));
    dht::check_invariants(backend.dht(), /*creation_only=*/false);
  }
  EXPECT_EQ(backend.node_count(), 2u);
  // The merge waves rewound the splitlevel toward the bootstrap value.
  EXPECT_LT(backend.dht().splitlevel(), level_at_peak);
  // Survivors cover the whole range.
  const auto quotas = backend.quotas();
  EXPECT_NEAR(std::accumulate(quotas.begin(), quotas.end(), 0.0), 1.0,
              1e-12);
}

TEST(DhtBackend, LocalRefusalLeavesTheNodeFullyEnrolled) {
  // Drive removals across many multi-vnode nodes; whenever the local
  // approach refuses, the targeted node must keep its full enrollment
  // and the balancer must stay consistent (the rollback path).
  LocalDhtBackend backend({cfg(4, 4, 5), 2});
  std::vector<NodeId> nodes;
  for (int n = 0; n < 24; ++n) nodes.push_back(backend.add_node());

  std::size_t refused = 0;
  std::size_t completed = 0;
  for (const NodeId node : nodes) {
    if (backend.node_count() <= 2) break;
    const std::size_t enrolled_before = backend.vnodes_of(node);
    if (backend.remove_node(node)) {
      ++completed;
      EXPECT_FALSE(backend.is_live(node));
      EXPECT_EQ(backend.vnodes_of(node), 0u);
    } else {
      ++refused;
      EXPECT_TRUE(backend.is_live(node));
      EXPECT_EQ(backend.vnodes_of(node), enrolled_before);
    }
    ASSERT_NO_THROW(
        dht::check_invariants(backend.dht(), /*creation_only=*/false));
  }
  EXPECT_GT(completed, 0u);
}

TEST(Backends, NonPositiveCapacityIsRejected) {
  // Regression: a negative capacity must not wrap through the
  // size_t enrollment scaling into a near-infinite join loop.
  LocalDhtBackend local({cfg(8, 8, 30), 2});
  EXPECT_THROW((void)local.add_node(-1.0), InvalidArgument);
  EXPECT_THROW((void)local.add_node(0.0), InvalidArgument);
  ChBackend ch({30, 8});
  EXPECT_THROW((void)ch.add_node(-1.0), InvalidArgument);
  const NodeId node = local.add_node(1.0);
  local.add_node(1.0);
  EXPECT_THROW((void)local.resize_node(node, -2.0), InvalidArgument);
}

TEST(DhtBackend, RemovalPreconditions) {
  GlobalDhtBackend backend({cfg(8, 1, 6), 1});
  const NodeId only = backend.add_node();
  EXPECT_THROW((void)backend.remove_node(only), InvalidArgument);
  backend.add_node();
  ASSERT_TRUE(backend.remove_node(only));
  EXPECT_THROW((void)backend.remove_node(only), InvalidArgument);  // dead
  EXPECT_THROW((void)backend.remove_node(99), InvalidArgument);  // unknown
}

TEST(DhtBackend, ResizeNodeTracksCapacity) {
  GlobalDhtBackend backend({cfg(8, 1, 7), 2});
  const NodeId node = backend.add_node(1.0);
  backend.add_node(1.0);
  EXPECT_EQ(backend.vnodes_of(node), 2u);
  EXPECT_TRUE(backend.resize_node(node, 3.0));
  EXPECT_EQ(backend.vnodes_of(node), 6u);
  EXPECT_TRUE(backend.resize_node(node, 1.0));
  EXPECT_EQ(backend.vnodes_of(node), 2u);
  dht::check_invariants(backend.dht(), /*creation_only=*/false);
}

TEST(DhtBackend, TransferEventsCarryNodeLevelEndpoints) {
  EventLog log;
  LocalDhtBackend backend({cfg(8, 8, 8), 1});
  backend.set_observer(&log);
  for (int n = 0; n < 6; ++n) backend.add_node();
  EXPECT_FALSE(log.relocations.empty());
  for (const auto& r : log.relocations) {
    EXPECT_LT(r.from, backend.node_slot_count());
    EXPECT_LT(r.to, backend.node_slot_count());
    // One vnode per node: a handover always crosses nodes.
    EXPECT_NE(r.from, r.to);
  }
  // Crossing V = 2^k triggered split waves.
  EXPECT_GT(log.rebuckets, 0u);
  backend.set_observer(nullptr);
}

TEST(ChBackend, SigmaAndQuotasComeFromTheRing) {
  ChBackend backend({21, 32});
  for (int n = 0; n < 16; ++n) backend.add_node();
  EXPECT_DOUBLE_EQ(backend.sigma(), backend.ring().sigma_qn());
  EXPECT_EQ(backend.quotas(), backend.ring().quotas());
  EXPECT_EQ(backend.node_count(), 16u);
  EXPECT_EQ(backend.node_slot_count(), 16u);
}

TEST(ChBackend, ArcEventsPartitionTheStolenTerritory) {
  // The arcs reported for a join must be disjoint, owned by the new
  // node afterwards, and their exact total length must equal the new
  // node's arc units.
  EventLog log;
  ChBackend backend({23, 16});
  for (int n = 0; n < 8; ++n) backend.add_node();
  backend.set_observer(&log);
  const NodeId joined = backend.add_node();
  backend.set_observer(nullptr);

  ASSERT_FALSE(log.relocations.empty());
  uint128 stolen = 0;
  for (const auto& r : log.relocations) {
    EXPECT_EQ(r.to, joined);
    EXPECT_NE(r.from, joined);
    EXPECT_EQ(backend.owner_of(r.first), joined);
    EXPECT_EQ(backend.owner_of(r.last), joined);
    stolen += static_cast<uint128>(r.last - r.first) + 1;
  }
  EXPECT_TRUE(stolen == backend.ring().arc_units(joined));
}

TEST(ChBackend, LeaveEventsReturnTheTerritory) {
  EventLog log;
  ChBackend backend({25, 16});
  for (int n = 0; n < 8; ++n) backend.add_node();
  const uint128 owned = backend.ring().arc_units(4);
  backend.set_observer(&log);
  ASSERT_TRUE(backend.remove_node(4));
  backend.set_observer(nullptr);

  uint128 returned = 0;
  for (const auto& r : log.relocations) {
    EXPECT_EQ(r.from, 4u);
    EXPECT_NE(r.to, 4u);
    returned += static_cast<uint128>(r.last - r.first) + 1;
  }
  EXPECT_TRUE(returned == owned);
  EXPECT_FALSE(backend.is_live(4));
}

// --- HRW (rendezvous) ----------------------------------------------

TEST(HrwBackend, WeightsScaleQuotas) {
  HrwBackend backend({31, 12});
  backend.add_node(1.0);
  const NodeId big = backend.add_node(3.0);
  for (int n = 0; n < 6; ++n) backend.add_node(1.0);
  // Expected quota of the weighted node: 3 / (7 + 3).
  const auto quotas = backend.quotas();
  EXPECT_NEAR(quotas[big], 0.3, 0.08);
  EXPECT_THROW((void)backend.add_node(0.0), InvalidArgument);
  EXPECT_THROW((void)backend.add_node(-1.0), InvalidArgument);
}

TEST(HrwBackend, RemovalRedistributesOnlyTheVictimsCells) {
  HrwBackend backend({32, 10});
  for (int n = 0; n < 8; ++n) backend.add_node();
  // Snapshot ownership, remove node 3, and require every cell that
  // changed hands to have belonged to the victim.
  const auto before = backend.grid().owners();
  ASSERT_TRUE(backend.remove_node(3));
  const auto& after = backend.grid().owners();
  std::size_t changed = 0;
  for (std::size_t cell = 0; cell < before.size(); ++cell) {
    if (before[cell] == after[cell]) continue;
    ++changed;
    EXPECT_EQ(before[cell], 3u);
    EXPECT_NE(after[cell], 3u);
    EXPECT_TRUE(backend.is_live(after[cell]));
  }
  EXPECT_GT(changed, 0u);
  EXPECT_EQ(backend.weight_of(3), 0.0);
}

// --- jump consistent hash ------------------------------------------

TEST(JumpBackend, NonTailRemovalRemapsTheTailBucket) {
  JumpBackend backend({33, 10});
  std::vector<NodeId> nodes;
  for (int n = 0; n < 6; ++n) nodes.push_back(backend.add_node());
  ASSERT_EQ(backend.bucket_of(nodes[5]), 5u);
  // Removing bucket 2's node moves the tail node into bucket 2.
  ASSERT_TRUE(backend.remove_node(nodes[2]));
  EXPECT_FALSE(backend.is_live(nodes[2]));
  EXPECT_EQ(backend.bucket_of(nodes[2]), JumpBackend::kNoBucket);
  EXPECT_EQ(backend.bucket_of(nodes[5]), 2u);
  EXPECT_EQ(backend.node_count(), 5u);
  // Tail removal needs no remap.
  ASSERT_TRUE(backend.remove_node(nodes[4]));
  EXPECT_EQ(backend.node_count(), 4u);
  // The survivors still cover R_h.
  const auto quotas = backend.quotas();
  EXPECT_NEAR(std::accumulate(quotas.begin(), quotas.end(), 0.0), 1.0,
              1e-12);
}

TEST(JumpBackend, RejectsWeightsItCannotExpress) {
  JumpBackend backend({34, 8});
  backend.add_node();
  EXPECT_THROW((void)backend.add_node(2.0), InvalidArgument);
  EXPECT_EQ(backend.node_count(), 1u);
}

TEST(JumpBackend, GrowthIsMinimalDisruption) {
  // Jump's defining property: a join only moves cells into the new
  // node - nothing shuffles between the survivors.
  JumpBackend backend({35, 12});
  for (int n = 0; n < 9; ++n) backend.add_node();
  const auto before = backend.grid().owners();
  const NodeId joined = backend.add_node();
  const auto& after = backend.grid().owners();
  for (std::size_t cell = 0; cell < before.size(); ++cell) {
    if (before[cell] != after[cell]) {
      EXPECT_EQ(after[cell], joined);
    }
  }
}

// --- maglev ---------------------------------------------------------

TEST(MaglevBackend, TableFillIsNearlyEven) {
  MaglevBackend backend({36, 12});
  for (int n = 0; n < 7; ++n) backend.add_node();
  // 4096 slots over 7 homogeneous nodes: every node's entry count is
  // within one claim round of the fair share.
  const auto counts = backend.grid().cell_counts(7);
  const double fair = 4096.0 / 7.0;
  for (const auto count : counts) {
    EXPECT_NEAR(static_cast<double>(count), fair, 2.0);
  }
}

TEST(MaglevBackend, WeightsScaleTableShares) {
  MaglevBackend backend({37, 12});
  const NodeId small = backend.add_node(1.0);
  const NodeId big = backend.add_node(3.0);
  const auto quotas = backend.quotas();
  EXPECT_NEAR(quotas[big] / quotas[small], 3.0, 0.1);
}

// --- bounded-load CH ------------------------------------------------

TEST(BoundedChBackend, NoNodeExceedsItsCap) {
  BoundedChBackend backend({38, 8, 0.25, 12});
  for (int n = 0; n < 10; ++n) backend.add_node();
  const auto counts = backend.grid().cell_counts(10);
  for (NodeId node = 0; node < 10; ++node) {
    EXPECT_LE(counts[node], backend.cap_of(node)) << "node " << node;
    EXPECT_GT(counts[node], 0u) << "node " << node;
  }
  // The cap actually binds: plain CH with 8 points/node at N=10 has
  // heavy nodes well above (1+0.25)/N, so at least one node must sit
  // exactly at its cap.
  bool any_at_cap = false;
  for (NodeId node = 0; node < 10; ++node) {
    any_at_cap = any_at_cap || counts[node] == backend.cap_of(node);
  }
  EXPECT_TRUE(any_at_cap);
}

TEST(BoundedChBackend, SigmaImprovesOnThePlainRing) {
  BoundedChBackend bounded({39, 8, 0.25, 12});
  ChBackend plain({39, 8});
  for (int n = 0; n < 24; ++n) {
    bounded.add_node();
    plain.add_node();
  }
  // Same seed, same ring geometry: the load cap must tighten sigma.
  EXPECT_LT(bounded.sigma(), plain.sigma());
}

TEST(BoundedChBackend, ValidatesOptionsAndCapacity) {
  EXPECT_THROW(BoundedChBackend({40, 8, 0.0, 12}), InvalidArgument);
  EXPECT_THROW(BoundedChBackend({40, 0, 0.25, 12}), InvalidArgument);
  BoundedChBackend backend({40, 8, 0.25, 12});
  EXPECT_THROW((void)backend.add_node(0.0), InvalidArgument);
}

// --- leave-side mass conservation for the grid-backed schemes -------
// (The DHT adapters account implicit buddy-merge handovers as
// rebucketing, so the exact leave-side ledger is a grid/ring-scheme
// property; the join side is covered for all seven backends in
// test_backend_properties.cpp.)

template <typename B>
void expect_leave_conserves_mass(typename B::Options options) {
  B backend(options);
  for (int n = 0; n < 9; ++n) backend.add_node();
  const double owned = backend.quotas()[4];

  EventLog log;
  backend.set_observer(&log);
  ASSERT_TRUE(backend.remove_node(4));
  backend.set_observer(nullptr);

  // Maglev's repopulation, jump's disappearing tail bucket and bounded
  // CH's cap growth may legitimately shuffle mass between survivors
  // too, so the conservation claim is about the *net* outflow of the
  // victim - but nothing may ever flow INTO a departed node.
  long double out = 0.0L;
  for (const auto& r : log.relocations) {
    EXPECT_NE(r.to, 4u) << "relocation into a departed node";
    EXPECT_TRUE(backend.is_live(r.to));
    if (r.from == 4u) {
      out += static_cast<long double>(r.last - r.first) + 1.0L;
    }
  }
  EXPECT_NEAR(static_cast<double>(out * 0x1.0p-64L), owned, 1e-9);
}

TEST(GridBackends, LeaveEventsReturnExactlyTheVictimsMass) {
  expect_leave_conserves_mass<HrwBackend>({41, 10});
  expect_leave_conserves_mass<JumpBackend>({42, 10});
  expect_leave_conserves_mass<MaglevBackend>({43, 10});
  expect_leave_conserves_mass<BoundedChBackend>({44, 8, 0.25, 10});
}

TEST(SchemeNames, AreDistinct) {
  const std::vector<std::string_view> names{
      LocalDhtBackend::scheme_name(), GlobalDhtBackend::scheme_name(),
      ChBackend::scheme_name(),       HrwBackend::scheme_name(),
      JumpBackend::scheme_name(),     MaglevBackend::scheme_name(),
      BoundedChBackend::scheme_name()};
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

}  // namespace
}  // namespace cobalt::placement
