// Backend-generic property tests: one typed suite drives every
// placement scheme - the paper's local and global approaches, plain
// Consistent Hashing, and the table-driven alternatives (HRW, jump,
// maglev, bounded-load CH) - through the same invariants:
//
//   * quotas() is a probability vector (sums to ~1.0, entries
//     non-negative) after arbitrary join/leave sequences, and sigma()
//     is 0 before the first join;
//   * the relocation events of a join conserve hash-range mass: the
//     net mass reported into the new node equals the mass the node
//     ends up owning (catches wrap-around and off-by-one range
//     reporting in the adapters);
//   * the scenario drivers of sim/scenario.hpp run unmodified over
//     every backend;
//   * a capacity no backend can honour (NaN, infinite, huge, zero,
//     negative) is rejected before the membership changes.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/int128.hpp"
#include "common/rng.hpp"
#include "placement/backend.hpp"
#include "sim/scenario.hpp"

#include "backends.hpp"

namespace cobalt::placement {
namespace {

// Every shipped scheme models the concept - a surface regression is a
// build error, not a test failure.
static_assert(PlacementBackend<LocalDhtBackend>);
static_assert(PlacementBackend<GlobalDhtBackend>);
static_assert(PlacementBackend<ChBackend>);
static_assert(PlacementBackend<HrwBackend>);
static_assert(PlacementBackend<JumpBackend>);
static_assert(PlacementBackend<MaglevBackend>);
static_assert(PlacementBackend<BoundedChBackend>);

/// Accounts the mass (in 1/2^64 units of R_h) flowing into and out of
/// one node through on_relocate events, validating the range contract
/// on the way.
class MassLedger final : public RelocationObserver {
 public:
  explicit MassLedger(NodeId tracked) : tracked_(tracked) {}

  void on_relocate(HashIndex first, HashIndex last, NodeId from,
                   NodeId to) override {
    ASSERT_LE(first, last) << "ranges must not wrap";
    ASSERT_NE(from, kInvalidNode);
    ASSERT_NE(to, kInvalidNode);
    const uint128 mass = static_cast<uint128>(last - first) + 1;
    if (to == tracked_) in_ += mass;
    if (from == tracked_) out_ += mass;
    ++events_;
  }

  void on_rebucket(HashIndex first, HashIndex last) override {
    ASSERT_LE(first, last) << "ranges must not wrap";
  }

  /// Net mass into the tracked node (negative when the node is a net
  /// loser), as a fraction of R_h.
  [[nodiscard]] double net_fraction() const {
    return (static_cast<double>(in_) - static_cast<double>(out_)) *
           0x1.0p-64;
  }

  [[nodiscard]] std::size_t events() const { return events_; }

 private:
  NodeId tracked_;
  uint128 in_ = 0;
  uint128 out_ = 0;
  std::size_t events_ = 0;
};

double quota_sum(const std::vector<double>& quotas) {
  return std::accumulate(quotas.begin(), quotas.end(), 0.0);
}

template <typename B>
class BackendPropertySuite : public ::testing::Test {};

TYPED_TEST_SUITE(BackendPropertySuite, AllBackends);

TYPED_TEST(BackendPropertySuite, QuotasStayAProbabilityVector) {
  auto backend = make_backend<TypeParam>(101);
  Xoshiro256 rng(977);
  backend.add_node();
  backend.add_node();
  for (int step = 0; step < 60; ++step) {
    const bool leave = backend.node_count() > 2 && rng.next_bool();
    if (leave) {
      std::vector<NodeId> live;
      for (NodeId node = 0; node < backend.node_slot_count(); ++node) {
        if (backend.is_live(node)) live.push_back(node);
      }
      const NodeId victim =
          live[static_cast<std::size_t>(rng.next_below(live.size()))];
      (void)backend.remove_node(victim);  // a refusal keeps the node
    } else {
      backend.add_node();
    }
    const auto quotas = backend.quotas();
    ASSERT_EQ(quotas.size(), backend.node_count()) << "step " << step;
    for (const double q : quotas) ASSERT_GE(q, 0.0);
    ASSERT_NEAR(quota_sum(quotas), 1.0, 1e-9) << "step " << step;
    ASSERT_GE(backend.sigma(), 0.0);
  }
}

TYPED_TEST(BackendPropertySuite, JoinEventsConserveHashRangeMass) {
  // The total mass the relocation events report into a joining node
  // (net of anything reported back out, e.g. bounded CH's overflow
  // cascade) must equal the mass the node ends up owning.
  auto backend = make_backend<TypeParam>(202);
  for (int n = 0; n < 10; ++n) backend.add_node();

  for (int joins = 0; joins < 4; ++joins) {
    MassLedger ledger(static_cast<NodeId>(backend.node_slot_count()));
    backend.set_observer(&ledger);
    backend.add_node();
    backend.set_observer(nullptr);

    EXPECT_GT(ledger.events(), 0u);
    // The joined node has the highest id, hence the last quota slot.
    const double owned = backend.quotas().back();
    EXPECT_NEAR(ledger.net_fraction(), owned, 1e-9);
  }
}

TYPED_TEST(BackendPropertySuite, ChurnScenarioRunsUnmodified) {
  auto backend = make_backend<TypeParam>(404);
  const auto outcome = sim::run_churn(backend, 12, 30, 555);
  EXPECT_EQ(outcome.sigma_series.size(), 30u);
  EXPECT_EQ(outcome.completed_removals + outcome.refused_removals, 30u);
  EXPECT_EQ(backend.node_count(), 12u);  // population held constant
  for (const double sigma : outcome.sigma_series) {
    EXPECT_TRUE(std::isfinite(sigma));
    EXPECT_GE(sigma, 0.0);
  }
}

TYPED_TEST(BackendPropertySuite, GrowthScenarioRunsUnmodified) {
  auto backend = make_backend<TypeParam>(505);
  const auto series = sim::run_growth(backend, 16);
  ASSERT_EQ(series.size(), 16u);
  EXPECT_NEAR(series[0], 0.0, 1e-12);  // one node owns everything
  for (const double sigma : series) {
    EXPECT_TRUE(std::isfinite(sigma));
    EXPECT_GE(sigma, 0.0);
  }
}

TYPED_TEST(BackendPropertySuite, DeterministicPerSeed) {
  const auto run_once = [] {
    auto backend = make_backend<TypeParam>(606);
    for (int n = 0; n < 9; ++n) backend.add_node();
    (void)backend.remove_node(4);
    backend.add_node();
    return backend.quotas();
  };
  EXPECT_EQ(run_once(), run_once());
}

TYPED_TEST(BackendPropertySuite, UnusableCapacityIsRejectedUnchanged) {
  // Regression: inf and 1e300 scaled to a 2^63-unit enrollment (and
  // HRW/maglev took inf as a weight) instead of failing.
  auto backend = make_backend<TypeParam>(707);
  for (int n = 0; n < 3; ++n) backend.add_node();
  const std::size_t nodes = backend.node_count();
  const std::size_t slots = backend.node_slot_count();
  for (const double capacity :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), 1e300, 0.0, -1.0}) {
    EXPECT_THROW((void)backend.add_node(capacity), InvalidArgument)
        << "capacity " << capacity;
    EXPECT_EQ(backend.node_count(), nodes);
    EXPECT_EQ(backend.node_slot_count(), slots);
  }
}

TYPED_TEST(BackendPropertySuite, SigmaIsZeroBeforeTheFirstJoin) {
  // Regression: the ring and grid schemes threw "mean of an empty span"
  // here while the DHT schemes answered 0 - one sigma(), one answer.
  const auto backend = make_backend<TypeParam>(808);
  EXPECT_EQ(backend.sigma(), 0.0);
}

TYPED_TEST(BackendPropertySuite, ReplicaSetIsEmptyBeforeTheFirstJoin) {
  // Regression: ch, hrw, local and global threw "the backend has no
  // nodes" here while the grid walks answered the clamped empty set.
  const auto backend = make_backend<TypeParam>(909);
  std::vector<NodeId> out{7, 8};
  backend.replica_set_into(42, 3, out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(backend.replica_set(HashSpace::kMaxIndex, 1).empty());
}

TYPED_TEST(BackendPropertySuite, SchemeNamesAreNonEmptyAndStable) {
  const auto name = TypeParam::scheme_name();
  EXPECT_FALSE(name.empty());
  EXPECT_EQ(name, TypeParam::scheme_name());
}

}  // namespace
}  // namespace cobalt::placement
