// Tests for the event-driven protocol DES (cluster::ProtocolDriver):
// the one-accounting-source invariant (DES-derived handover and repair
// totals bit-identical to the store's relocation/replication channels
// over random churn, on all seven backends), the serialization-domain
// structure per scheme, the store's membership bracket as the driver
// sees it (rejected calls leave no event; vnode-level changes through
// Store::mutate keep replicas and totals aligned), and the scheduling
// surfaces.

#include "cluster/protocol_driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "dht/local_dht.hpp"
#include "hashing/hash.hpp"
#include "kv/store.hpp"
#include "sim/protocol_cost.hpp"

namespace cobalt::cluster {
namespace {

using placement::ReplicationSpec;
using placement::SpreadPolicy;

std::vector<std::string> make_keys(std::size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back("k" + std::to_string(i));
  }
  return keys;
}

dht::Config dht_cfg(std::uint64_t pmin, std::uint64_t vmin,
                    std::uint64_t seed) {
  dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = seed;
  return c;
}

/// The lockstep invariant: run random store-level churn with the
/// driver attached and require the DES batch totals to equal the
/// store's two stats channels bit for bit - same event log, three
/// views. Exercised per scheme at k = 1..3.
template <typename StoreT, typename MakeStore>
void expect_lockstep(MakeStore make) {
  for (std::size_t k = 1; k <= 3; ++k) {
    StoreT store = make(k);
    const auto keys = make_keys(800);
    const auto outcome =
        sim::run_protocol_churn(store, 8, 20, keys, /*seed=*/1234 + k);

    // Between brackets no batch is pending, so the channels and the
    // detached totals snapshot describe the same completed events.
    const placement::MigrationStats reloc = store.stats().relocation;
    const kv::ReplicationStats repl = store.stats().replication;

    EXPECT_EQ(outcome.totals.handover_keys_total, reloc.keys_moved_total);
    EXPECT_EQ(outcome.totals.handover_keys_cross,
              reloc.keys_moved_across_nodes);
    EXPECT_EQ(outcome.totals.rebucket_keys, reloc.keys_rebucketed);
    EXPECT_EQ(outcome.totals.repair_copies, repl.keys_rereplicated);
    EXPECT_EQ(outcome.totals.keys_lost, repl.keys_lost);

    // The scenario moved real data, so the log cannot be empty and
    // scheduling it must take time and messages.
    EXPECT_GT(outcome.totals.handover_keys_cross, 0u);
    EXPECT_GT(outcome.schedule.rounds, 0u);
    EXPECT_GT(outcome.schedule.messages, 0u);
    EXPECT_GT(outcome.schedule.makespan_us, 0.0);
    // Serializing the events can never be faster than overlapping
    // them, and scheduling does not change message counts.
    EXPECT_GE(outcome.serialized.makespan_us,
              outcome.schedule.makespan_us - 1e-9);
    EXPECT_EQ(outcome.serialized.messages, outcome.schedule.messages);
  }
}

TEST(ProtocolDriverLockstep, LocalDht) {
  expect_lockstep<kv::KvStore>([](std::size_t k) {
    return kv::KvStore({dht_cfg(32, 8, 11), 1},
                       ReplicationSpec{k, SpreadPolicy::kNone});
  });
}

TEST(ProtocolDriverLockstep, GlobalDht) {
  expect_lockstep<kv::GlobalKvStore>([](std::size_t k) {
    return kv::GlobalKvStore({dht_cfg(32, 1, 12), 1},
                             ReplicationSpec{k, SpreadPolicy::kNone});
  });
}

TEST(ProtocolDriverLockstep, ConsistentHashing) {
  expect_lockstep<kv::ChKvStore>([](std::size_t k) {
    return kv::ChKvStore({13, 16}, ReplicationSpec{k, SpreadPolicy::kNone});
  });
}

TEST(ProtocolDriverLockstep, Rendezvous) {
  expect_lockstep<kv::HrwKvStore>([](std::size_t k) {
    return kv::HrwKvStore({14, 10}, ReplicationSpec{k, SpreadPolicy::kNone});
  });
}

TEST(ProtocolDriverLockstep, Jump) {
  expect_lockstep<kv::JumpKvStore>([](std::size_t k) {
    return kv::JumpKvStore({15, 10}, ReplicationSpec{k, SpreadPolicy::kNone});
  });
}

TEST(ProtocolDriverLockstep, Maglev) {
  expect_lockstep<kv::MaglevKvStore>([](std::size_t k) {
    return kv::MaglevKvStore({16, 10}, ReplicationSpec{k, SpreadPolicy::kNone});
  });
}

TEST(ProtocolDriverLockstep, BoundedCh) {
  expect_lockstep<kv::BoundedChKvStore>([](std::size_t k) {
    return kv::BoundedChKvStore({17, 16, 0.1, 10},
                                ReplicationSpec{k, SpreadPolicy::kNone});
  });
}

TEST(SerializationDomains, GlobalIsOneDomain) {
  // One replicated GPDR: every round of every event serializes through
  // domain 0, so the longest chain is the whole log.
  kv::GlobalKvStore store({dht_cfg(32, 1, 21), 1},
                          ReplicationSpec{2, SpreadPolicy::kNone});
  ProtocolDriver<placement::GlobalDhtBackend> driver(store);
  for (int n = 0; n < 6; ++n) store.add_node();
  const auto keys = make_keys(400);
  for (const auto& key : keys) store.put(key, "v");
  store.add_node();
  store.remove_node(0);

  const ScheduleOutcome outcome = driver.run();
  EXPECT_EQ(outcome.domains_used, 1u);
  EXPECT_EQ(outcome.serialized_round_depth, outcome.rounds);
  EXPECT_NEAR(outcome.concurrency, 1.0, 1e-9);
}

TEST(SerializationDomains, LocalUsesPerGroupDomains) {
  // Small Vmin so the growth splits groups: events land in different
  // LPDR domains and the chain is shorter than the log.
  kv::KvStore store({dht_cfg(32, 2, 22), 1},
                    ReplicationSpec{2, SpreadPolicy::kNone});
  ProtocolDriver<placement::LocalDhtBackend> driver(store);
  const auto keys = make_keys(400);
  for (int n = 0; n < 16; ++n) store.add_node();
  for (const auto& key : keys) store.put(key, "v");
  for (int n = 0; n < 8; ++n) store.add_node();

  EXPECT_GT(store.backend().dht().group_count(), 1u);
  const ScheduleOutcome outcome = driver.run();
  EXPECT_GT(outcome.domains_used, 1u);
  EXPECT_LT(outcome.serialized_round_depth, outcome.rounds);
}

TEST(SerializationDomains, GridSchemesFallBackToTheArcLattice) {
  // HRW defines no native serialization domain; ranges map onto the
  // top-bits arc lattice (many domains, concurrent rounds).
  kv::HrwKvStore store({23, 10}, ReplicationSpec{1, SpreadPolicy::kNone});
  ProtocolDriver<placement::HrwBackend> driver(store);
  const auto keys = make_keys(600);
  store.add_node();
  for (const auto& key : keys) store.put(key, "v");
  for (int n = 0; n < 8; ++n) store.add_node();

  const ScheduleOutcome outcome = driver.run();
  EXPECT_GT(outcome.domains_used, 1u);
  EXPECT_GT(outcome.concurrency, 1.0);
}

TEST(SerializationDomains, ArcLatticeIsTheTopBits) {
  EXPECT_EQ(placement::arc_serialization_domain(0, 8), 0u);
  EXPECT_EQ(placement::arc_serialization_domain(HashSpace::kMaxIndex, 8),
            255u);
  EXPECT_EQ(placement::arc_serialization_domain(HashIndex{1} << 56, 8), 1u);
  EXPECT_THROW((void)placement::arc_serialization_domain(0, 0),
               InvalidArgument);
  EXPECT_THROW((void)placement::arc_serialization_domain(0, 32),
               InvalidArgument);
}

/// Counts the sink brackets a store emits (and checks they nest).
class RecordingSink final : public kv::StoreEventSink {
 public:
  void on_membership_begin(kv::MembershipEventKind) override {
    EXPECT_FALSE(open_) << "begin inside an open bracket";
    open_ = true;
    ++begins_;
  }
  void on_relocation_batch(HashIndex, HashIndex, placement::NodeId,
                           placement::NodeId, std::uint64_t, bool) override {
    EXPECT_TRUE(open_) << "relocation batch outside a bracket";
  }
  void on_repair_batch(HashIndex, HashIndex, std::uint64_t, std::uint64_t,
                       std::size_t) override {  // raw-k-ok: sink payload
    EXPECT_TRUE(open_) << "repair batch outside a bracket";
  }
  void on_membership_end() override {
    EXPECT_TRUE(open_) << "end without a begin";
    open_ = false;
    ++ends_;
  }

  [[nodiscard]] bool open() const { return open_; }
  [[nodiscard]] int begins() const { return begins_; }
  [[nodiscard]] int ends() const { return ends_; }

 private:
  bool open_ = false;
  int begins_ = 0;
  int ends_ = 0;
};

/// A membership call rejected before it changed anything opens no
/// sink bracket: the driver records exactly the one successful join.
template <typename StoreT>
void expect_rejected_join_leaves_no_event(StoreT& store) {
  using Backend = typename StoreT::BackendType;
  store.add_node();
  for (const auto& key : make_keys(300)) store.put(key, "v");
  {
    ProtocolDriver<Backend> driver(store);
    EXPECT_THROW((void)store.add_node(-2.0), InvalidArgument);
    store.add_node();
    EXPECT_EQ(driver.totals().events, 1u);
  }
  RecordingSink sink;
  store.set_event_sink(&sink);
  EXPECT_THROW((void)store.add_node(-2.0), InvalidArgument);
  EXPECT_EQ(sink.begins(), 0);
  store.add_node();
  EXPECT_EQ(sink.begins(), 1);
  EXPECT_EQ(sink.ends(), 1);
  EXPECT_FALSE(sink.open());
  store.set_event_sink(nullptr);
}

TEST(ProtocolDriver, RejectedJoinOpensNoBracket) {
  kv::ChKvStore ch({24, 16}, ReplicationSpec{1, SpreadPolicy::kNone});
  expect_rejected_join_leaves_no_event(ch);
  kv::KvStore local({dht_cfg(32, 8, 27), 2},
                    ReplicationSpec{2, SpreadPolicy::kNone});
  expect_rejected_join_leaves_no_event(local);
}

/// After every bracket: each key's materialized replica set is the
/// backend's spec-keyed set, and the driver's totals equal the store's
/// two channels.
template <typename StoreT>
void expect_bracket_consistent(
    const StoreT& store,
    const ProtocolDriver<typename StoreT::BackendType>& driver,
    const std::vector<std::string>& keys) {
  const kv::StatsSnapshot stats = store.stats();
  const ProtocolTotals& totals = driver.totals();
  EXPECT_EQ(totals.handover_keys_total, stats.relocation.keys_moved_total);
  EXPECT_EQ(totals.handover_keys_cross,
            stats.relocation.keys_moved_across_nodes);
  EXPECT_EQ(totals.rebucket_keys, stats.relocation.keys_rebucketed);
  EXPECT_EQ(totals.repair_copies, stats.replication.keys_rereplicated);
  EXPECT_EQ(totals.keys_lost, stats.replication.keys_lost);
  const ReplicationSpec spec = store.replication_spec();
  const ReplicationSpec target =
      spec.with_k(std::min(spec.k, store.backend().node_count()));
  for (const std::string& key : keys) {
    const HashIndex h =
        hashing::hash_bytes(hashing::Algorithm::kXxh64, key.data(), key.size());
    ASSERT_EQ(store.replicas_of(key), store.backend().replica_set(h, target))
        << "key " << key;
  }
}

/// A vnode of the local approach whose removal is refused: a Vmin-sized
/// group whose sibling has split further cannot merge (see
/// LocalDht.RemoveUnsupportedWhenSiblingSplitFurther).
std::optional<dht::VNodeId> refused_removal(const dht::LocalDht& dht,
                                            std::uint64_t vmin) {
  const std::vector<std::uint32_t> live = dht.live_groups();
  for (const std::uint32_t slot : live) {
    const dht::Group& group = dht.group(slot);
    if (group.members.size() != vmin || group.id.depth() < 1) continue;
    const bool sibling_alive =
        std::any_of(live.begin(), live.end(), [&](std::uint32_t other) {
          return dht.group(other).id == group.id.sibling();
        });
    if (!sibling_alive) return group.members.front();
  }
  return std::nullopt;
}

template <typename StoreT>
class MutateBracketSuite : public ::testing::Test {};

using DhtStores = ::testing::Types<kv::KvStore, kv::GlobalKvStore>;
TYPED_TEST_SUITE(MutateBracketSuite, DhtStores);

TYPED_TEST(MutateBracketSuite, VnodeElasticityRunsThroughTheBracket) {
  using Backend = typename TypeParam::BackendType;
  constexpr bool kLocal = std::is_same_v<TypeParam, kv::KvStore>;
  const auto keys = make_keys(400);
  for (std::size_t k = 1; k <= 3; ++k) {
    bool refused = false;
    for (std::uint64_t seed = 1; seed <= 16 && !refused; ++seed) {
      TypeParam store({dht_cfg(4, kLocal ? 4 : 1, 40 + seed), 2},
                      ReplicationSpec{k, SpreadPolicy::kNone});
      ProtocolDriver<Backend> driver(store);
      std::vector<placement::NodeId> nodes;
      for (int n = 0; n < 3; ++n) nodes.push_back(store.add_node());
      for (const auto& key : keys) store.put(key, "v");
      expect_bracket_consistent(store, driver, keys);

      using kv::MembershipEventKind;
      store.mutate(MembershipEventKind::kJoin, [&](Backend& backend) {
        return backend.add_vnode(nodes[0]);
      });
      expect_bracket_consistent(store, driver, keys);
      (void)store.mutate(MembershipEventKind::kJoin, [&](Backend& backend) {
        return backend.resize_node(nodes[1], 4.0);
      });
      EXPECT_EQ(store.backend().vnodes_of(nodes[1]), 8u);
      expect_bracket_consistent(store, driver, keys);
      (void)store.mutate(MembershipEventKind::kDrain, [&](Backend& backend) {
        return backend.resize_node(nodes[1], 1.0);
      });
      expect_bracket_consistent(store, driver, keys);
      if constexpr (kLocal) {
        // Grow one node until a removal the local approach must refuse
        // exists, then drive that removal through the bracket.
        for (int v = 0; v < 80 && !refused; ++v) {
          store.mutate(MembershipEventKind::kJoin, [&](Backend& backend) {
            return backend.add_vnode(nodes[2]);
          });
          const auto victim = refused_removal(store.backend().dht(), 4);
          if (!victim) continue;
          const std::uint64_t events = driver.totals().events;
          EXPECT_THROW(store.mutate(MembershipEventKind::kDrain,
                                    [&](Backend& backend) {
                                      backend.remove_vnode(*victim);
                                    }),
                       dht::UnsupportedTopology);
          EXPECT_EQ(driver.totals().events, events);  // rejected up front
          expect_bracket_consistent(store, driver, keys);
          refused = true;
        }
      } else {
        refused = true;  // only the local approach refuses
      }
    }
    EXPECT_TRUE(refused) << "no refusal topology found at k=" << k;
  }
}

TEST(ProtocolDriver, ClearRestrictsTheLogToLaterEvents) {
  kv::HrwKvStore store({25, 10}, ReplicationSpec{2, SpreadPolicy::kNone});
  ProtocolDriver<placement::HrwBackend> driver(store);
  const auto keys = make_keys(300);
  for (int n = 0; n < 6; ++n) store.add_node();
  for (const auto& key : keys) store.put(key, "v");

  driver.clear();
  EXPECT_EQ(driver.totals().events, 0u);
  EXPECT_TRUE(driver.recorded().empty());

  store.add_node();
  EXPECT_EQ(driver.totals().events, 1u);
  EXPECT_FALSE(driver.recorded().empty());
}

TEST(ProtocolDriver, ArrivalGapsDelayButNeverReorderDomains) {
  // The same log scheduled with spaced arrivals can only finish later;
  // messages are a property of the log, not the schedule.
  kv::JumpKvStore store({26, 10}, ReplicationSpec{2, SpreadPolicy::kNone});
  ProtocolDriver<placement::JumpBackend> driver(store);
  const auto keys = make_keys(400);
  for (int n = 0; n < 6; ++n) store.add_node();
  for (const auto& key : keys) store.put(key, "v");
  for (int n = 0; n < 4; ++n) store.add_node();

  const ScheduleOutcome at_once = driver.run(0.0);
  const ScheduleOutcome spaced = driver.run(500.0);
  EXPECT_GE(spaced.makespan_us, at_once.makespan_us - 1e-9);
  EXPECT_EQ(spaced.messages, at_once.messages);
  EXPECT_EQ(spaced.rounds, at_once.rounds);
}

}  // namespace
}  // namespace cobalt::cluster
