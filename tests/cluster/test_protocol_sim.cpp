// Tests for the creation-protocol DES: trace recording and replay.

#include "cluster/protocol_sim.hpp"

#include <gtest/gtest.h>

#include <set>

namespace cobalt::cluster {
namespace {

dht::Config cfg(std::uint64_t pmin, std::uint64_t vmin, std::uint64_t seed) {
  dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = seed;
  return c;
}

TEST(ProtocolTrace, GlobalIsSingleDomainFullParticipation) {
  const auto trace = record_global_trace(cfg(8, 1, 1), 16, 40);
  EXPECT_EQ(trace.snodes, 16u);
  EXPECT_EQ(trace.domains, 1u);
  ASSERT_EQ(trace.creations.size(), 40u);
  for (const auto& creation : trace.creations) {
    EXPECT_EQ(creation.domain, 0u);
    EXPECT_EQ(creation.participants, 16u);
    EXPECT_TRUE(creation.spawned_domains.empty());
  }
}

TEST(ProtocolTrace, LocalRoundsAreGroupSized) {
  const auto trace = record_local_trace(cfg(8, 4, 2), 16, 128);
  ASSERT_EQ(trace.creations.size(), 128u);
  for (const auto& creation : trace.creations) {
    EXPECT_LE(creation.participants, 16u);
    EXPECT_GE(creation.participants, 1u);
    EXPECT_LT(creation.domain, trace.domains);
  }
  // Once groups form, rounds are bounded by Vmax = 8 members' hosts.
  double mean = 0.0;
  for (std::size_t i = 64; i < 128; ++i) {
    mean += static_cast<double>(trace.creations[i].participants);
  }
  mean /= 64.0;
  EXPECT_LE(mean, 8.0);
}

TEST(ProtocolTrace, SplitsSpawnDomainPairs) {
  const auto trace = record_local_trace(cfg(8, 4, 3), 8, 64);
  EXPECT_GT(trace.domains, 1u);
  std::size_t spawned = 0;
  for (const auto& creation : trace.creations) {
    EXPECT_TRUE(creation.spawned_domains.empty() ||
                creation.spawned_domains.size() == 2);
    spawned += creation.spawned_domains.size();
  }
  // Every domain except the root was spawned by exactly one split.
  EXPECT_EQ(spawned + 1, trace.domains);
}

TEST(ProtocolTrace, TransfersAreRecorded) {
  const auto trace = record_local_trace(cfg(8, 4, 3), 4, 32);
  std::uint64_t total = 0;
  for (const auto& c : trace.creations) total += c.transfers;
  // Every creation after the first at least receives partitions.
  EXPECT_GT(total, 31u);
}

TEST(ProtocolReplay, SingleDomainSerializes) {
  CreationTrace trace;
  trace.snodes = 4;
  trace.domains = 1;
  for (int i = 0; i < 10; ++i) {
    trace.creations.push_back(CreationRecord{0, 4, 2, {}});
  }
  NetworkModel net;
  const auto result = replay_trace(trace, net);
  const SimTime round = net.round_duration(4, 2);
  EXPECT_DOUBLE_EQ(result.makespan_us, 10.0 * round);
  EXPECT_NEAR(result.concurrency, 1.0, 1e-9);  // strictly serial
  EXPECT_EQ(result.messages, 10 * net.round_messages(4, 2));
}

TEST(ProtocolReplay, DisjointDomainsOverlapPerfectly) {
  CreationTrace trace;
  trace.snodes = 8;
  trace.domains = 4;
  for (std::uint32_t d = 0; d < 4; ++d) {
    trace.creations.push_back(CreationRecord{d, 2, 1, {}});
  }
  NetworkModel net;
  const auto result = replay_trace(trace, net);
  EXPECT_DOUBLE_EQ(result.makespan_us, net.round_duration(2, 1));
  EXPECT_NEAR(result.concurrency, 4.0, 1e-9);
}

TEST(ProtocolReplay, SpawnedDomainsInheritTheSplitClock) {
  CreationTrace trace;
  trace.snodes = 4;
  trace.domains = 3;
  // Round in domain 0 splits it into 1 and 2 ...
  trace.creations.push_back(CreationRecord{1, 2, 0, {1, 2}});
  // ... so a later round in domain 2 cannot start before it completes.
  trace.creations.push_back(CreationRecord{2, 2, 0, {}});
  NetworkModel net;
  const auto result = replay_trace(trace, net);
  EXPECT_DOUBLE_EQ(result.makespan_us, 2.0 * net.round_duration(2, 0));
}

TEST(ProtocolReplay, LocalBeatsGlobalOnMakespanAndMessages) {
  // The headline scalability property: for the same growth, the local
  // approach completes far sooner (concurrent groups) and exchanges
  // fewer messages (group-sized rounds).
  const std::size_t snodes = 32;
  const std::size_t vnodes = 256;
  const auto global_trace = record_global_trace(cfg(8, 1, 5), snodes, vnodes);
  const auto local_trace = record_local_trace(cfg(8, 4, 5), snodes, vnodes);
  NetworkModel net;
  const auto global_result = replay_trace(global_trace, net);
  const auto local_result = replay_trace(local_trace, net);
  EXPECT_LT(local_result.makespan_us, 0.5 * global_result.makespan_us);
  EXPECT_LT(local_result.messages, global_result.messages);
  // Mean round size: snodes per creation round, from the traces.
  const auto mean_round_size = [](const CreationTrace& trace) {
    double participants = 0.0;
    for (const auto& creation : trace.creations) {
      participants += static_cast<double>(creation.participants);
    }
    return participants / static_cast<double>(trace.creations.size());
  };
  EXPECT_LT(mean_round_size(local_trace), mean_round_size(global_trace));
  EXPECT_GT(local_result.concurrency, 1.5);
}

TEST(ProtocolReplay, RejectsCorruptTraces) {
  CreationTrace trace;
  trace.snodes = 2;
  trace.domains = 1;
  trace.creations.push_back(CreationRecord{7, 1, 0, {}});  // bad domain
  EXPECT_THROW((void)replay_trace(trace, NetworkModel{}), InvalidArgument);
}

TEST(ProtocolReplay, ReportsTheSerializedRoundDepth) {
  // 6 rounds in one domain, 2 in another: the longest chain is 6.
  CreationTrace trace;
  trace.snodes = 4;
  trace.domains = 2;
  for (int i = 0; i < 6; ++i) {
    trace.creations.push_back(CreationRecord{0, 2, 1, {}});
  }
  for (int i = 0; i < 2; ++i) {
    trace.creations.push_back(CreationRecord{1, 2, 1, {}});
  }
  const auto result = replay_trace(trace, NetworkModel{});
  EXPECT_EQ(result.serialized_round_depth, 6u);
}

TEST(ProtocolReplay, EmptyTraceIsZero) {
  CreationTrace trace;
  trace.snodes = 2;
  const ScheduleOutcome outcome = replay_trace(trace, NetworkModel{});
  EXPECT_DOUBLE_EQ(outcome.makespan_us, 0.0);
  EXPECT_DOUBLE_EQ(outcome.concurrency, 0.0);
  EXPECT_EQ(outcome.rounds, 0u);
}

TEST(ScheduleRounds, EmptyLogIsZero) {
  const ScheduleOutcome outcome = schedule_rounds({});
  EXPECT_DOUBLE_EQ(outcome.makespan_us, 0.0);
  EXPECT_EQ(outcome.rounds, 0u);
  EXPECT_EQ(outcome.messages, 0u);
  EXPECT_EQ(outcome.domains_used, 0u);
}

TEST(ScheduleRounds, ArrivalTimesGateAdmission) {
  // A round arriving at t=1000 cannot start earlier even though its
  // domain is free; an already-queued domain ignores a past arrival.
  std::vector<Round> rounds;
  rounds.push_back(Round{0, 0.0, 100.0, 1, {}});
  rounds.push_back(Round{0, 1000.0, 100.0, 1, {}});
  rounds.push_back(Round{1, 50.0, 25.0, 1, {}});
  const ScheduleOutcome outcome = schedule_rounds(rounds);
  EXPECT_DOUBLE_EQ(outcome.makespan_us, 1100.0);
  EXPECT_EQ(outcome.rounds, 3u);
  EXPECT_EQ(outcome.messages, 3u);
  EXPECT_EQ(outcome.serialized_round_depth, 2u);
  EXPECT_EQ(outcome.domains_used, 2u);
}

TEST(ScheduleRounds, SpawnedDomainsNeverRewindTheirClock) {
  // A spawn completing at t=100 must not pull a busier spawned domain
  // backward (max, not overwrite).
  std::vector<Round> rounds;
  rounds.push_back(Round{1, 0.0, 500.0, 1, {}});   // domain 1 busy to 500
  rounds.push_back(Round{0, 0.0, 100.0, 1, {1}});  // spawns 1 at t=100
  rounds.push_back(Round{1, 0.0, 10.0, 1, {}});    // queues behind 500
  const ScheduleOutcome outcome = schedule_rounds(rounds);
  EXPECT_DOUBLE_EQ(outcome.makespan_us, 510.0);
}

TEST(ScheduleRounds, RejectsNegativeTimes) {
  std::vector<Round> rounds;
  rounds.push_back(Round{0, -1.0, 10.0, 1, {}});
  EXPECT_THROW((void)schedule_rounds(rounds), InvalidArgument);
  rounds.clear();
  rounds.push_back(Round{0, 0.0, -5.0, 1, {}});
  EXPECT_THROW((void)schedule_rounds(rounds), InvalidArgument);
}

}  // namespace
}  // namespace cobalt::cluster
