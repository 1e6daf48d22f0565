// Tests for the message-level fault-injection layer
// (cluster/fault_injection.hpp): FaultPlan window/partition semantics
// and stateless draws, the executor's clean-execution invariants
// (priced message count and makespan reproduced exactly, zero retries),
// abort/re-plan/abandon behavior under total loss, and bit-identical
// determinism of fault-injected churn across all seven backends.

#include "cluster/fault_injection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/protocol_driver.hpp"
#include "kv/store.hpp"
#include "sim/protocol_cost.hpp"

namespace cobalt::cluster {
namespace {

using placement::ReplicationSpec;
using placement::SpreadPolicy;

constexpr ReplicationSpec kTwoCopies{2, SpreadPolicy::kNone};

// --- FaultPlan -------------------------------------------------------

TEST(FaultPlan, CrashWindowsGateAvailability) {
  FaultPlan plan(7);
  plan.add_crash_window(3, 100.0, 200.0);
  EXPECT_FALSE(plan.node_down(3, 99.0));
  EXPECT_TRUE(plan.node_down(3, 100.0));
  EXPECT_TRUE(plan.node_down(3, 199.0));
  EXPECT_FALSE(plan.node_down(3, 200.0));  // [start, end)
  EXPECT_FALSE(plan.node_down(4, 150.0));

  EXPECT_FALSE(plan.available(3, 150.0));
  EXPECT_TRUE(plan.available(3, 250.0));
  EXPECT_DOUBLE_EQ(plan.next_available(3, 150.0), 200.0);
  EXPECT_DOUBLE_EQ(plan.next_available(3, 50.0), 50.0);
}

TEST(FaultPlan, CrashWithoutRecoveryIsPermanent) {
  FaultPlan plan(7);
  plan.add_crash_window(1, 10.0);
  EXPECT_TRUE(plan.node_down(1, 1e12));
  EXPECT_TRUE(std::isinf(plan.next_available(1, 20.0)));
}

TEST(FaultPlan, PartitionCutsCrossSideLinksAndClientReach) {
  FaultPlan plan(7);
  plan.add_partition("minority", 100.0, 300.0, {1, 2});

  // Cross-side links cut during the episode only.
  EXPECT_TRUE(plan.link_cut(1, 5, 150.0));
  EXPECT_TRUE(plan.link_cut(5, 2, 150.0));
  EXPECT_FALSE(plan.link_cut(1, 5, 99.0));
  EXPECT_FALSE(plan.link_cut(1, 5, 300.0));
  // Links inside one side keep working.
  EXPECT_FALSE(plan.link_cut(1, 2, 150.0));
  EXPECT_FALSE(plan.link_cut(4, 5, 150.0));

  // The minority side is unreachable from clients; the majority serves.
  EXPECT_FALSE(plan.available(1, 150.0));
  EXPECT_TRUE(plan.available(5, 150.0));
  EXPECT_DOUBLE_EQ(plan.next_available(2, 150.0), 300.0);
}

TEST(FaultPlan, DrawsAreStatelessAndMonotoneInProbability) {
  FaultPlan low(42);
  low.set_default_link({.drop = 0.01});
  FaultPlan high(42);
  high.set_default_link({.drop = 0.2});

  int dropped_low = 0;
  int dropped_high = 0;
  for (std::uint64_t token = 0; token < 5000; ++token) {
    const bool lo = low.dropped(0, 1, token);
    const bool hi = high.dropped(0, 1, token);
    dropped_low += lo;
    dropped_high += hi;
    // Same seed, same token: a message lost at 1% is lost at 20%.
    if (lo) {
      EXPECT_TRUE(hi);
    }
    // Stateless: asking again changes nothing.
    EXPECT_EQ(low.dropped(0, 1, token), lo);
  }
  EXPECT_GT(dropped_low, 0);
  EXPECT_GT(dropped_high, dropped_low);
  EXPECT_LT(dropped_high, 2000);  // ~20% of 5000, not everything
}

TEST(FaultPlan, LinkOverridesBeatTheDefault) {
  FaultPlan plan(9);
  plan.set_default_link({.drop = 0.0});
  plan.set_link(2, 3, {.drop = 1.0});
  EXPECT_TRUE(plan.dropped(2, 3, 77));
  EXPECT_FALSE(plan.dropped(3, 2, 77));
  EXPECT_FALSE(plan.dropped(2, 4, 77));
}

TEST(FaultPlan, JitterStaysInsideTheConfiguredSpan) {
  FaultPlan plan(11);
  plan.set_default_link({.delay_jitter_us = 50.0});
  for (std::uint64_t token = 0; token < 1000; ++token) {
    const SimTime jitter = plan.jitter_us(0, 1, token);
    EXPECT_GE(jitter, 0.0);
    EXPECT_LT(jitter, 50.0);
  }
  FaultPlan none(11);
  EXPECT_DOUBLE_EQ(none.jitter_us(0, 1, 5), 0.0);
}

// --- executor: clean execution ---------------------------------------

std::vector<FaultRound> two_domain_rounds() {
  std::vector<FaultRound> rounds;
  {
    FaultRound round;
    round.domain = 0;
    round.coordinator = 0;
    round.participants = {0, 1, 2};
    round.payload_keys = 100;
    round.payload_ranges = 2;
    round.local_work_us = 6.0;
    rounds.push_back(round);
  }
  {
    FaultRound round;
    round.domain = 1;
    round.arrival = 10.0;
    round.coordinator = 3;
    round.participants = {3, 4};
    round.payload_keys = 40;
    round.payload_ranges = 1;
    round.local_work_us = 4.0;
    rounds.push_back(round);
  }
  {
    FaultRound round;  // pure-local bookkeeping
    round.domain = 2;
    round.local_work_us = 2.0;
    rounds.push_back(round);
  }
  return rounds;
}

TEST(FaultExecutor, CleanRunSendsExactlyThePricedMessages) {
  const auto rounds = two_domain_rounds();
  const FaultPlan clean(1);
  const FaultExecOutcome out = execute_rounds(rounds, clean);

  EXPECT_EQ(out.rounds, 3u);
  EXPECT_EQ(out.completed_rounds, 3u);
  EXPECT_EQ(out.aborted_rounds, 0u);
  EXPECT_EQ(out.retries, 0u);
  EXPECT_EQ(out.messages_dropped, 0u);
  EXPECT_EQ(out.duplicates_delivered, 0u);
  // 2*3 + 2  +  2*2 + 1  +  0  == the handover_messages pricing.
  EXPECT_EQ(out.messages_sent, clean_message_count(rounds));
  EXPECT_EQ(out.messages_sent, 13u);
}

TEST(FaultExecutor, CleanRoundDurationMatchesThePricedModel) {
  std::vector<FaultRound> rounds;
  FaultRound round;
  round.domain = 0;
  round.coordinator = 0;
  round.participants = {0, 1, 2};
  round.payload_keys = 200;
  round.payload_ranges = 3;
  round.local_work_us = 3.0 * NetworkModel{}.record_update_us;
  rounds.push_back(round);

  const FaultPlan clean(1);
  const FaultExecOutcome out = execute_rounds(rounds, clean);
  const NetworkModel net;
  // sync (2 hops) + serialized payload + local work, exactly.
  EXPECT_NEAR(out.makespan_us,
              net.handover_duration(3, 200), 1e-9);
}

TEST(FaultExecutor, SameDomainRoundsQueueFifo) {
  std::vector<FaultRound> rounds;
  for (int i = 0; i < 2; ++i) {
    FaultRound round;
    round.domain = 5;
    round.coordinator = 0;
    round.participants = {0, 1};
    round.local_work_us = 10.0;
    rounds.push_back(round);
  }
  const FaultPlan clean(1);
  const FaultExecOutcome out = execute_rounds(rounds, clean);
  const NetworkModel net;
  // Two rounds of (2 hops + local 10) back to back in one domain.
  EXPECT_NEAR(out.makespan_us, 2.0 * (2.0 * net.one_hop_latency_us + 10.0),
              1e-9);
}

// --- executor: loss, aborts, re-plans --------------------------------

TEST(FaultExecutor, TotalLossAbortsReplansAndFinallyAbandons) {
  std::vector<FaultRound> rounds;
  FaultRound round;
  round.domain = 0;
  round.coordinator = 0;
  round.participants = {0, 1};
  round.payload_keys = 50;
  round.payload_ranges = 1;
  rounds.push_back(round);

  FaultPlan lossy(3);
  lossy.set_default_link({.drop = 1.0});
  FaultExecutorOptions options;
  options.max_replans = 2;
  const FaultExecOutcome out = execute_rounds(rounds, lossy, options);

  // Original + two re-plans all admitted, all aborted, none completed.
  EXPECT_EQ(out.rounds, 3u);
  EXPECT_EQ(out.completed_rounds, 0u);
  EXPECT_EQ(out.aborted_rounds, 3u);
  EXPECT_EQ(out.replanned_rounds, 2u);
  EXPECT_EQ(out.abandoned_rounds, 1u);
  EXPECT_EQ(out.payload_keys_replanned, 100u);
  EXPECT_EQ(out.payload_keys_abandoned, 50u);
  // Every transmission was lost; retries ran the backoff budget down.
  EXPECT_EQ(out.messages_sent, out.messages_dropped);
  EXPECT_GT(out.retries, 0u);
}

TEST(FaultExecutor, PureLocalRoundsCannotFail) {
  std::vector<FaultRound> rounds(4);
  for (auto& round : rounds) round.local_work_us = 1.0;
  FaultPlan lossy(3);
  lossy.set_default_link({.drop = 1.0});
  const FaultExecOutcome out = execute_rounds(rounds, lossy);
  EXPECT_EQ(out.completed_rounds, 4u);
  EXPECT_EQ(out.messages_sent, 0u);
  EXPECT_EQ(out.aborted_rounds, 0u);
}

TEST(FaultExecutor, ModerateLossInflatesMakespanMonotonically) {
  const auto rounds = two_domain_rounds();
  const FaultPlan clean(5);
  FaultPlan loss1(5);
  loss1.set_default_link({.drop = 0.01});
  FaultPlan loss10(5);
  loss10.set_default_link({.drop = 0.10});

  const FaultExecOutcome base = execute_rounds(rounds, clean);
  const FaultExecOutcome low = execute_rounds(rounds, loss1);
  const FaultExecOutcome high = execute_rounds(rounds, loss10);
  // Same seed, superset token losses: messages and makespan only grow.
  EXPECT_GE(low.messages_sent, base.messages_sent);
  EXPECT_GE(high.messages_sent, low.messages_sent);
  EXPECT_GE(low.makespan_us, base.makespan_us - 1e-9);
  EXPECT_GE(high.makespan_us, low.makespan_us - 1e-9);
}

TEST(FaultExecutor, CrashWindowDefersTheRoundToRecovery) {
  std::vector<FaultRound> rounds;
  FaultRound round;
  round.domain = 0;
  round.coordinator = 0;
  round.participants = {0, 1};
  rounds.push_back(round);

  FaultPlan plan(4);
  plan.add_crash_window(1, 0.0, 5000.0);  // down across the first tries
  FaultExecutorOptions options;
  options.backoff.jitter = 0.0;  // exact retry times: sends at 0, 600,
                                 // 1400, 2600, 4600 all hit the window
  options.max_replans = 4;
  options.replan_delay_us = 3000.0;
  const FaultExecOutcome out = execute_rounds(rounds, plan, options);

  // The first admission aborts against the dead peer; a re-plan after
  // recovery completes.
  EXPECT_EQ(out.completed_rounds, 1u);
  EXPECT_GE(out.aborted_rounds, 1u);
  EXPECT_EQ(out.abandoned_rounds, 0u);
  EXPECT_GT(out.makespan_us, 5000.0);
}

// --- determinism across the seven backends ---------------------------

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

/// Serializes every counter of a fault-injected churn run the way
/// abl11's CSV does, so equality means byte-identical output.
std::string fingerprint(const sim::FaultyProtocolChurnOutcome& out) {
  std::ostringstream row;
  row << out.completed_removals << ',' << out.refused_removals << ','
      << out.exec.rounds << ',' << out.exec.completed_rounds << ','
      << out.exec.aborted_rounds << ',' << out.exec.replanned_rounds << ','
      << out.exec.abandoned_rounds << ',' << out.exec.messages_sent << ','
      << out.exec.messages_dropped << ',' << out.exec.retries << ','
      << out.exec.duplicates_delivered << ',' << out.clean_messages << ','
      << out.exec.makespan_us << ',' << out.clean_schedule.makespan_us;
  return row.str();
}

/// Two identical fault-injected churn runs must agree bit for bit,
/// and the clean plan must reproduce the priced schedule exactly.
template <typename StoreT, typename MakeStore>
void expect_fault_determinism(MakeStore make) {
  FaultPlan lossy(99);
  lossy.set_default_link({.drop = 0.05, .duplicate = 0.01});
  FaultExecutorOptions options;
  options.backoff.jitter = 0.25;

  const auto keys = make_keys(600);
  auto run = [&](const FaultPlan& plan) {
    StoreT store = make();
    return sim::run_faulty_protocol_churn(store, 10, 8, keys, /*seed=*/321,
                                          plan, options,
                                          /*inter_event_gap_us=*/500.0);
  };

  const auto first = run(lossy);
  const auto second = run(lossy);
  EXPECT_TRUE(first.exec == second.exec);
  EXPECT_EQ(fingerprint(first), fingerprint(second));

  // Clean plan: the message-level execution reproduces the priced
  // schedule - same message count, same makespan, nothing retried.
  const FaultPlan clean(99);
  const auto base = run(clean);
  EXPECT_EQ(base.exec.retries, 0u);
  EXPECT_EQ(base.exec.aborted_rounds, 0u);
  EXPECT_EQ(base.exec.messages_sent, base.clean_messages);
  EXPECT_EQ(base.exec.messages_sent, base.clean_schedule.messages);
  EXPECT_NEAR(base.exec.makespan_us, base.clean_schedule.makespan_us, 1e-6);

  // The lossy run can only add traffic on top of the clean baseline.
  EXPECT_GE(first.exec.messages_sent, base.exec.messages_sent);
}

TEST(FaultDeterminism, LocalDht) {
  expect_fault_determinism<kv::KvStore>(
      [] { return kv::KvStore({dht_cfg(32, 8, 41), 1}, kTwoCopies); });
}

TEST(FaultDeterminism, GlobalDht) {
  expect_fault_determinism<kv::GlobalKvStore>(
      [] { return kv::GlobalKvStore({dht_cfg(32, 1, 42), 1}, kTwoCopies); });
}

TEST(FaultDeterminism, ConsistentHashing) {
  expect_fault_determinism<kv::ChKvStore>(
      [] { return kv::ChKvStore({43, 16}, kTwoCopies); });
}

TEST(FaultDeterminism, Rendezvous) {
  expect_fault_determinism<kv::HrwKvStore>(
      [] { return kv::HrwKvStore({44, 10}, kTwoCopies); });
}

TEST(FaultDeterminism, Jump) {
  expect_fault_determinism<kv::JumpKvStore>(
      [] { return kv::JumpKvStore({45, 10}, kTwoCopies); });
}

TEST(FaultDeterminism, Maglev) {
  expect_fault_determinism<kv::MaglevKvStore>(
      [] { return kv::MaglevKvStore({46, 10}, kTwoCopies); });
}

TEST(FaultDeterminism, BoundedCh) {
  expect_fault_determinism<kv::BoundedChKvStore>(
      [] { return kv::BoundedChKvStore({47, 16, 0.1, 10}, kTwoCopies); });
}

}  // namespace
}  // namespace cobalt::cluster
