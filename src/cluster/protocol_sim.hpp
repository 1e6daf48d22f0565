// cobalt/cluster/protocol_sim.hpp
//
// Discrete-event simulation of the vnode-creation *protocol* for both
// approaches. This quantifies the paper's central scalability claim
// (section 3): under the global approach "every snode is, necessarily,
// involved in the creation of every vnode, [so] consecutive creations
// of vnodes are executed serially"; under the local approach only the
// victim group's LPDR must stay consistent, so creations in different
// groups proceed concurrently.
//
// The serialization unit is therefore the *distribution record*: the
// global approach has a single domain (the replicated GPDR), the local
// approach one domain per group (its LPDR). A creation is one
// synchronization round: it locks its domain for the round duration
// (request/ack latency + handover payloads + record updates across the
// participating snodes, per the NetworkModel). Rounds in different
// domains overlap; rounds in one domain queue FIFO. A group split
// spawns two fresh domains whose clocks start when the splitting round
// completes.
//
// Traces are recorded from real balancer runs, so participant sets,
// handover counts and split timing are exact, not modelled.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/event_queue.hpp"
#include "cluster/network.hpp"
#include "dht/config.hpp"

namespace cobalt::cluster {

/// One synchronization round for the generic scheduler: the common
/// currency of the creation-trace replay (abl3) and the
/// ProtocolDriver's membership rounds (abl9). The caller prices the
/// round (duration, messages) through the NetworkModel; the scheduler
/// only decides *when* it runs: rounds in one domain admit FIFO,
/// rounds in different domains overlap, and a round never starts
/// before its arrival time.
struct Round {
  /// Serialization domain (a distribution record, a group's LPDR, or
  /// an arc of the hash space - see placement::serialization_domain_of).
  std::uint32_t domain = 0;

  /// Earliest admissible start (the membership event's injection time;
  /// 0 everywhere reproduces the all-at-once trace replay).
  SimTime arrival = 0.0;

  /// Busy time the round locks its domain for.
  SimTime duration = 0.0;

  /// Protocol messages the round exchanges.
  std::uint64_t messages = 0;

  /// Domains created by a split inside this round; their clocks start
  /// at this round's completion.
  std::vector<std::uint32_t> spawned_domains;
};

/// Aggregate outcome of scheduling a round log through the DES.
struct ScheduleOutcome {
  SimTime makespan_us = 0.0;       ///< completion time of the last round
  std::uint64_t rounds = 0;        ///< rounds scheduled
  std::uint64_t messages = 0;      ///< total protocol messages
  double concurrency = 0.0;        ///< sum of round durations / makespan
  std::size_t serialized_round_depth = 0;  ///< longest one-domain chain
  std::size_t domains_used = 0;    ///< distinct domains that saw a round
};

/// Schedules `rounds` on the DES: per-domain FIFO admission in log
/// order, overlap across domains, arrival times respected. The
/// serialized-round depth is the length of the longest per-domain
/// queue - the protocol's critical path in rounds (equal to the total
/// round count exactly when everything serializes through one domain,
/// the global approach's GPDR).
ScheduleOutcome schedule_rounds(std::span<const Round> rounds);

/// One creation event of the recorded trace.
struct CreationRecord {
  /// Serialization domain: 0 for the global approach; the group slot
  /// whose LPDR synchronizes for the local approach.
  std::uint32_t domain = 0;

  /// Distinct snodes taking part in the synchronization round (hosts
  /// of the victim group's vnodes; every snode in the global approach).
  std::size_t participants = 0;

  /// Partitions handed over or split during this creation (protocol
  /// payload).
  std::size_t transfers = 0;

  /// Domains created by a group split inside this round; their clocks
  /// start at this round's completion.
  std::vector<std::uint32_t> spawned_domains;
};

/// A recorded growth trace.
struct CreationTrace {
  std::size_t snodes = 0;
  std::size_t domains = 1;  ///< total domains ever used (slots)
  std::vector<CreationRecord> creations;
};

/// Builds the trace of growing a *local-approach* DHT to `vnodes`
/// vnodes over `snodes` snodes (vnodes placed round-robin).
CreationTrace record_local_trace(dht::Config config, std::size_t snodes,
                                 std::size_t vnodes);

/// Builds the same trace for the *global* approach (single domain,
/// every snode participates in every creation).
CreationTrace record_global_trace(dht::Config config, std::size_t snodes,
                                  std::size_t vnodes);

/// Replays `trace` on the DES: all creations arrive at time 0, are
/// admitted FIFO per domain, and overlap across domains. A round here
/// is one vnode creation (its participants are in `trace.creations`);
/// ProtocolDriver rounds are per (event, domain) relocation batches -
/// docs/ARCHITECTURE.md explains why the two models stay separate.
ScheduleOutcome replay_trace(const CreationTrace& trace,
                             const NetworkModel& network);

}  // namespace cobalt::cluster
