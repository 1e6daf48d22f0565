// Unit and property tests for the Consistent Hashing baseline.

#include "ch/ring.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace cobalt::ch {
namespace {

constexpr double kUlp = 1e-12;

TEST(ConsistentHashRing, SingleNodeOwnsTheWholeRing) {
  ConsistentHashRing ring(1);
  const NodeId n = ring.add_node(4);
  EXPECT_EQ(ring.node_count(), 1u);
  EXPECT_EQ(ring.point_count(), 4u);
  const auto q = ring.quotas();
  ASSERT_EQ(q.size(), 1u);
  EXPECT_NEAR(q[0], 1.0, kUlp);
  EXPECT_NEAR(ring.sigma_qn(), 0.0, kUlp);
  EXPECT_EQ(ring.lookup(0), n);
  EXPECT_EQ(ring.lookup(HashSpace::kMaxIndex), n);
}

TEST(ConsistentHashRing, QuotasAlwaysSumToOne) {
  ConsistentHashRing ring(7);
  for (int i = 0; i < 50; ++i) {
    ring.add_node(8);
    const auto q = ring.quotas();
    double sum = 0.0;
    for (double v : q) sum += v;
    ASSERT_NEAR(sum, 1.0, 1e-9) << "after node " << i + 1;
  }
}

TEST(ConsistentHashRing, ArcUnitsSumExactlyToTheRing) {
  ConsistentHashRing ring(11);
  for (int i = 0; i < 20; ++i) ring.add_node(16);
  uint128 sum = 0;
  for (NodeId n = 0; n < 20; ++n) sum += ring.arc_units(n);
  EXPECT_TRUE(sum == (static_cast<uint128>(1) << 64));
}

TEST(ConsistentHashRing, LookupReturnsLiveNodes) {
  ConsistentHashRing ring(13);
  for (int i = 0; i < 10; ++i) ring.add_node(8);
  Xoshiro256 rng(99);
  for (int probe = 0; probe < 2000; ++probe) {
    const NodeId n = ring.lookup(rng.next());
    EXPECT_TRUE(ring.is_live(n));
  }
}

TEST(ConsistentHashRing, LookupDistributionTracksQuotas) {
  // Monte-Carlo: the fraction of keys routed to a node approaches its
  // quota (this validates that quota bookkeeping matches routing).
  ConsistentHashRing ring(17);
  for (int i = 0; i < 4; ++i) ring.add_node(16);
  std::vector<std::size_t> hits(4, 0);
  Xoshiro256 rng(5);
  constexpr int kProbes = 200000;
  for (int probe = 0; probe < kProbes; ++probe) {
    ++hits[ring.lookup(rng.next())];
  }
  const auto q = ring.quotas();
  for (std::size_t n = 0; n < 4; ++n) {
    const double observed =
        static_cast<double>(hits[n]) / static_cast<double>(kProbes);
    EXPECT_NEAR(observed, q[n], 0.01) << "node " << n;
  }
}

TEST(ConsistentHashRing, RemoveNodeAccretesArcsToSurvivors) {
  ConsistentHashRing ring(19);
  for (int i = 0; i < 6; ++i) ring.add_node(8);
  ring.remove_node(2);
  EXPECT_EQ(ring.node_count(), 5u);
  EXPECT_FALSE(ring.is_live(2));
  EXPECT_TRUE(ring.arc_units(2) == 0);
  const auto q = ring.quotas();
  ASSERT_EQ(q.size(), 5u);
  double sum = 0.0;
  for (double v : q) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Keys previously owned by node 2 now land on live nodes.
  Xoshiro256 rng(3);
  for (int probe = 0; probe < 1000; ++probe) {
    EXPECT_NE(ring.lookup(rng.next()), 2u);
  }
}

TEST(ConsistentHashRing, RemoveLastNodeEmptiesTheRing) {
  ConsistentHashRing ring(23);
  const NodeId n = ring.add_node(4);
  ring.remove_node(n);
  EXPECT_EQ(ring.node_count(), 0u);
  EXPECT_EQ(ring.point_count(), 0u);
  EXPECT_THROW((void)ring.lookup(1), InvalidArgument);
}

TEST(ConsistentHashRing, InvalidOperationsRejected) {
  ConsistentHashRing ring(29);
  EXPECT_THROW((void)ring.add_node(0), InvalidArgument);
  EXPECT_THROW((void)ring.remove_node(0), InvalidArgument);
  ring.add_node(2);
  ring.remove_node(0);
  EXPECT_THROW((void)ring.remove_node(0), InvalidArgument);
}

TEST(ConsistentHashRing, MoreVirtualServersImproveBalance) {
  // The classic CH result: sigma-bar(Qn) shrinks roughly as 1/sqrt(k).
  // Compare averaged deviations at k=4 and k=64 over several seeds.
  double coarse = 0.0;
  double fine = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ConsistentHashRing a(seed);
    ConsistentHashRing b(seed + 1000);
    for (int i = 0; i < 64; ++i) a.add_node(4);
    for (int i = 0; i < 64; ++i) b.add_node(64);
    coarse += a.sigma_qn();
    fine += b.sigma_qn();
  }
  EXPECT_LT(fine, coarse * 0.6);
}

TEST(ConsistentHashRing, DeterministicUnderSeed) {
  ConsistentHashRing a(42);
  ConsistentHashRing b(42);
  for (int i = 0; i < 16; ++i) {
    a.add_node(8);
    b.add_node(8);
  }
  EXPECT_EQ(a.quotas(), b.quotas());
  ConsistentHashRing c(43);
  for (int i = 0; i < 16; ++i) c.add_node(8);
  EXPECT_NE(a.quotas(), c.quotas());
}

// Parameterized: growth from 1 to 128 nodes keeps sigma in a sane band
// for several k (CH exhibits a roughly flat profile - figure 9's
// qualitative shape).
class ChGrowth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChGrowth, SigmaStaysBoundedDuringGrowth) {
  ConsistentHashRing ring(77);
  for (int i = 0; i < 128; ++i) {
    ring.add_node(GetParam());
    if (ring.node_count() >= 8) {
      EXPECT_LT(ring.sigma_qn(), 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, ChGrowth,
                         ::testing::Values(std::size_t{8}, std::size_t{32},
                                           std::size_t{64}));

}  // namespace
}  // namespace cobalt::ch
