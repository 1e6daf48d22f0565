#include "cluster/protocol_sim.hpp"

#include <algorithm>
#include <set>

#include "dht/global_dht.hpp"
#include "dht/local_dht.hpp"

namespace cobalt::cluster {

namespace {

/// Counts handovers and splits between trace points.
class TransferCounter final : public dht::MutationObserver {
 public:
  void on_transfer(const dht::Partition&, dht::VNodeId,
                   dht::VNodeId) override {
    ++count_;
  }
  void on_split(const dht::Partition&, dht::VNodeId) override { ++count_; }
  void on_merge(const dht::Partition&, dht::VNodeId) override { ++count_; }

  std::size_t take() {
    const std::size_t value = count_;
    count_ = 0;
    return value;
  }

 private:
  std::size_t count_ = 0;
};

}  // namespace

CreationTrace record_local_trace(dht::Config config, std::size_t snodes,
                                 std::size_t vnodes) {
  COBALT_REQUIRE(snodes >= 1 && vnodes >= 1,
                 "trace needs at least one snode and one vnode");
  dht::LocalDht dht(config);
  for (std::size_t s = 0; s < snodes; ++s) dht.add_snode();
  TransferCounter counter;
  dht.set_observer(&counter);

  CreationTrace trace;
  trace.snodes = snodes;
  trace.creations.reserve(vnodes);
  for (std::size_t i = 0; i < vnodes; ++i) {
    const std::size_t slots_before = dht.group_slot_count();
    const auto host = static_cast<dht::SNodeId>(i % snodes);
    const dht::VNodeId id = dht.create_vnode(host);

    CreationRecord record;
    record.domain = dht.group_of(id);
    record.transfers = counter.take();

    // Participants: the snodes hosting the victim group's members -
    // the holders of the LPDR copies that must synchronize (sect 3.6).
    const dht::Group& group = dht.group(record.domain);
    std::set<std::uint32_t> participants;
    for (const dht::VNodeId member : group.members) {
      participants.insert(dht.vnode(member).snode);
    }
    record.participants = participants.size();

    // A split allocates exactly two fresh slots; their LPDR timelines
    // fork from this round. (The bootstrap creation allocates slot 0
    // without a split - the root domain's clock starts at zero.)
    if (i > 0) {
      for (std::size_t slot = slots_before; slot < dht.group_slot_count();
           ++slot) {
        record.spawned_domains.push_back(static_cast<std::uint32_t>(slot));
      }
    }
    trace.creations.push_back(std::move(record));
  }
  trace.domains = dht.group_slot_count();
  dht.set_observer(nullptr);
  return trace;
}

CreationTrace record_global_trace(dht::Config config, std::size_t snodes,
                                  std::size_t vnodes) {
  COBALT_REQUIRE(snodes >= 1 && vnodes >= 1,
                 "trace needs at least one snode and one vnode");
  dht::GlobalDht dht(config);
  for (std::size_t s = 0; s < snodes; ++s) dht.add_snode();
  TransferCounter counter;
  dht.set_observer(&counter);

  CreationTrace trace;
  trace.snodes = snodes;
  trace.domains = 1;  // one DHT-wide GPDR
  trace.creations.reserve(vnodes);
  for (std::size_t i = 0; i < vnodes; ++i) {
    const auto host = static_cast<dht::SNodeId>(i % snodes);
    dht.create_vnode(host);
    // "A snode triggers the creation of a vnode by issuing a creation
    // request to the totality of the snodes of the DHT" (section 2.5).
    trace.creations.push_back(CreationRecord{0, snodes, counter.take(), {}});
  }
  dht.set_observer(nullptr);
  return trace;
}

ScheduleOutcome schedule_rounds(std::span<const Round> rounds) {
  ScheduleOutcome outcome;
  if (rounds.empty()) return outcome;

  // Domain clocks and per-domain round counts, sized to the densest
  // domain id actually used (domain ids are small: group slots or the
  // arc lattice).
  std::uint32_t max_domain = 0;
  for (const Round& round : rounds) {
    max_domain = std::max(max_domain, round.domain);
    for (const std::uint32_t spawned : round.spawned_domains) {
      max_domain = std::max(max_domain, spawned);
    }
  }
  std::vector<SimTime> domain_free_at(max_domain + 1, 0.0);
  std::vector<std::size_t> domain_rounds(max_domain + 1, 0);

  double busy_time = 0.0;
  SimTime makespan = 0.0;

  // FIFO admission per domain (list scheduling): a round starts when
  // its domain's record is quiescent and the round has arrived;
  // domains evolve independently - the paper's parallelism argument
  // in one line. The completion frontier is a running maximum, so no
  // event queue is needed: with every completion known at admission
  // time the "DES" collapses to this loop.
  for (const Round& round : rounds) {
    COBALT_REQUIRE(round.arrival >= 0.0 && round.duration >= 0.0,
                   "rounds cannot arrive or run in negative time");
    const SimTime start =
        std::max(round.arrival, domain_free_at[round.domain]);
    const SimTime end = start + round.duration;
    domain_free_at[round.domain] = end;
    ++domain_rounds[round.domain];
    for (const std::uint32_t spawned : round.spawned_domains) {
      domain_free_at[spawned] = std::max(domain_free_at[spawned], end);
    }

    makespan = std::max(makespan, end);
    outcome.messages += round.messages;
    busy_time += round.duration;
  }

  outcome.makespan_us = makespan;
  outcome.rounds = rounds.size();
  outcome.concurrency =
      outcome.makespan_us > 0.0 ? busy_time / outcome.makespan_us : 0.0;
  for (const std::size_t count : domain_rounds) {
    outcome.serialized_round_depth =
        std::max(outcome.serialized_round_depth, count);
    if (count > 0) ++outcome.domains_used;
  }
  return outcome;
}

ScheduleOutcome replay_trace(const CreationTrace& trace,
                             const NetworkModel& network) {
  COBALT_REQUIRE(trace.snodes >= 1, "trace has no snodes");
  COBALT_REQUIRE(trace.domains >= 1, "trace has no domains");

  // Price each creation through the network model, then hand the
  // generic scheduler the resulting round log (all arrivals at 0: the
  // trace-replay convention).
  std::vector<Round> rounds;
  rounds.reserve(trace.creations.size());
  for (const CreationRecord& creation : trace.creations) {
    COBALT_REQUIRE(creation.domain < trace.domains,
                   "trace references an unknown domain");
    for (const std::uint32_t spawned : creation.spawned_domains) {
      COBALT_REQUIRE(spawned < trace.domains,
                     "trace spawns an unknown domain");
    }
    Round round;
    round.domain = creation.domain;
    round.duration =
        network.round_duration(creation.participants, creation.transfers);
    round.messages = network.round_messages(creation.participants,
                                            creation.transfers);
    round.spawned_domains = creation.spawned_domains;
    rounds.push_back(std::move(round));
  }
  return schedule_rounds(rounds);
}

}  // namespace cobalt::cluster
