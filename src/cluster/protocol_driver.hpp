// cobalt/cluster/protocol_driver.hpp
//
// The protocol DES driven from placement events: one accounting source
// for movement, repair traffic and protocol messages.
//
// cluster::ProtocolDriver<Backend> subscribes to the *same* counted
// event stream the store's two stats channels are built from
// (kv::StoreEventSink, fed by the batched flush_relocations() pass and
// the planned repair pass) and turns each membership event into
// synchronization rounds for the generic DES scheduler
// (cluster::schedule_rounds):
//
//   * domain locking follows the scheme's serialization unit
//     (placement::serialization_domain_of): the global approach's one
//     GPDR, the local approach's per-group LPDRs, and the arc-lattice
//     default for the ring/grid schemes - so a scheme's protocol
//     concurrency is exactly its record-sharing structure;
//   * handover payloads are the store's counted relocation batches
//     (keys moved, pre-mutation population) - the driver's summed
//     payloads equal MigrationStats bit for bit, asserted by ctest;
//   * k > 1 re-replication rounds carry the planned repair pass's
//     copies per plan range - the ReplicationStats mass, scheduled.
//
// One membership event contributes at most two rounds per domain it
// touched: a handover round (the relocation batches that landed in the
// domain, synchronized once - the per-creation round structure of
// protocol_sim, generalized to any membership change) and a repair
// round (the re-replication copies planned for the domain's ranges).
// Rounds of one domain queue FIFO across events; rounds in different
// domains overlap. Event arrival times are assigned at schedule time
// (run(gap)), so the same recorded log can answer "what if the next
// failure lands while repair is still queued" without re-running the
// store - the failure-during-repair scenario of sim/protocol_cost.hpp.

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "cluster/fault_injection.hpp"
#include "cluster/network.hpp"
#include "cluster/protocol_sim.hpp"
#include "kv/store.hpp"
#include "kv/store_events.hpp"
#include "placement/backend.hpp"

namespace cobalt::cluster {

/// Cumulative batch totals of the driver's event log. Each key counter
/// mirrors one store accounting counter (same events, same counts), so
/// equality with the store's channels is the "one accounting source"
/// invariant a consumer can assert at any quiescent point.
struct ProtocolTotals {
  std::uint64_t events = 0;           ///< membership events recorded
  std::uint64_t handover_rounds = 0;  ///< rounds carrying relocation batches
  std::uint64_t repair_rounds = 0;    ///< rounds carrying repair copies

  /// == MigrationStats::keys_moved_total (delta since attach/clear).
  std::uint64_t handover_keys_total = 0;

  /// == MigrationStats::keys_moved_across_nodes.
  std::uint64_t handover_keys_cross = 0;

  /// == MigrationStats::keys_rebucketed.
  std::uint64_t rebucket_keys = 0;

  /// == ReplicationStats::keys_rereplicated.
  std::uint64_t repair_copies = 0;

  /// == ReplicationStats::keys_lost.
  std::uint64_t keys_lost = 0;
};

/// Per-(scheme, store) protocol DES recorder and scheduler.
template <placement::PlacementBackend Backend>
class ProtocolDriver final : public kv::StoreEventSink {
 public:
  struct Options {
    /// Round cost model (latencies, payload rates).
    NetworkModel network{};

    /// When set, rounds are priced at the tier of the links they
    /// actually cross (NetworkModel::handover_duration_tiered). Null
    /// keeps the flat pricing - byte-identical to pre-topology runs.
    const Topology* topology = nullptr;

    /// With a topology: price repair fan-out as a multicast tree (one
    /// expensive leg per distinct remote rack, intra-rack relays)
    /// instead of coordinator unicast. Handover rounds stay unicast.
    bool multicast_repair = false;
  };

  /// One recorded round: a priced (event, domain) cell awaiting
  /// scheduling (tests and benches inspect the log through recorded()).
  /// The participant structure is kept alongside the priced totals so
  /// the same log can also run message-by-message (run_faulty).
  struct RecordedRound {
    std::uint32_t domain = 0;
    std::uint64_t event = 0;
    SimTime duration = 0.0;
    std::uint64_t messages = 0;
    /// Synchronized nodes (sorted distinct; empty for pure-local
    /// rounds). The first entry coordinates.
    std::vector<placement::NodeId> participants;
    std::uint64_t payload_keys = 0;   ///< keys shipped over the network
    std::size_t payload_ranges = 0;   ///< bulk messages (ranges shipped)
  };

  /// Subscribes to `store`'s event stream. Attach before the first
  /// membership change for totals that match the stats channels from
  /// zero. The driver must be destroyed (or the sink cleared) before
  /// the store.
  explicit ProtocolDriver(kv::Store<Backend>& store, Options options = {})
      : store_(store), options_(options) {
    store_.set_event_sink(this);
  }

  ~ProtocolDriver() override { store_.set_event_sink(nullptr); }

  ProtocolDriver(const ProtocolDriver&) = delete;
  ProtocolDriver& operator=(const ProtocolDriver&) = delete;

  // --- kv::StoreEventSink --------------------------------------------

  void on_relocation_batch(HashIndex first, HashIndex last,
                           placement::NodeId from, placement::NodeId to,
                           std::uint64_t keys, bool rebucket) override {
    (void)last;
    DomainWork& work = open_[domain_of(first)];
    if (rebucket) {
      totals_.rebucket_keys += keys;
      work.local_keys += keys;
      ++work.local_ranges;
      return;
    }
    totals_.handover_keys_total += keys;
    if (from == to) {
      // Intra-node movement: record bookkeeping, no network payload.
      work.local_keys += keys;
      ++work.local_ranges;
      return;
    }
    totals_.handover_keys_cross += keys;
    work.cross_keys += keys;
    ++work.cross_ranges;
    insert_participant(work.participants, from);
    insert_participant(work.participants, to);
  }

  void on_repair_batch(HashIndex first, HashIndex last, std::uint64_t copies,
                       std::uint64_t lost,
                       std::size_t replicas) override {  // raw-k-ok: sink payload
    (void)last;
    DomainWork& work = open_[domain_of(first)];
    totals_.repair_copies += copies;
    totals_.keys_lost += lost;
    work.repair_copies += copies;
    ++work.repair_ranges;
    if (replicas > work.repair_replicas) {
      // Resolve the repair targets while the post-event backend is
      // live: the widest batch's replica set stands in for the round's
      // participants (the priced model charges repair_replicas legs).
      work.repair_replicas = replicas;
      work.repair_participants.clear();
      store_.backend().replica_set_into(
          first, store_.replication_spec().with_k(replicas),
          work.repair_participants);
      std::sort(work.repair_participants.begin(),
                work.repair_participants.end());
    }
  }

  void on_membership_end() override { finalize_event(); }

  // --- recorded log --------------------------------------------------

  /// Batch totals so far (always current, even mid-event).
  [[nodiscard]] const ProtocolTotals& totals() const { return totals_; }

  /// The recorded rounds in admission order.
  [[nodiscard]] const std::vector<RecordedRound>& recorded() const {
    return log_;
  }

  /// Forgets everything recorded so far (scenario drivers clear after
  /// the preload phase so the schedule covers only the protocol under
  /// study).
  void clear() {
    log_.clear();
    totals_ = {};
  }

  // --- scheduling ----------------------------------------------------

  /// Schedules the recorded log through the DES. Event e's rounds
  /// arrive at e * inter_event_gap_us: gap 0 injects everything at
  /// once (maximal queueing - the trace-replay convention), a positive
  /// gap spaces the membership events out so later events land while
  /// earlier repair rounds may still be queued.
  [[nodiscard]] ScheduleOutcome run(SimTime inter_event_gap_us = 0.0) const {
    std::vector<Round> rounds;
    rounds.reserve(log_.size());
    for (const RecordedRound& recorded : log_) {
      Round round;
      round.domain = recorded.domain;
      round.arrival =
          static_cast<SimTime>(recorded.event) * inter_event_gap_us;
      round.duration = recorded.duration;
      round.messages = recorded.messages;
      rounds.push_back(round);
    }
    return schedule_rounds(rounds);
  }

  /// The fully serialized reference: every membership event's rounds
  /// run to quiescence before the next event's are admitted (as if
  /// each change waited for repair to drain). Sum of the per-event
  /// makespans; message totals are unchanged by scheduling.
  [[nodiscard]] ScheduleOutcome run_serialized() const {
    ScheduleOutcome total;
    std::vector<Round> event_rounds;
    std::size_t i = 0;
    while (i < log_.size()) {
      const std::uint64_t event = log_[i].event;
      event_rounds.clear();
      for (; i < log_.size() && log_[i].event == event; ++i) {
        Round round;
        round.domain = log_[i].domain;
        round.duration = log_[i].duration;
        round.messages = log_[i].messages;
        event_rounds.push_back(round);
      }
      const ScheduleOutcome outcome = schedule_rounds(event_rounds);
      total.makespan_us += outcome.makespan_us;
      total.messages += outcome.messages;
      total.rounds += outcome.rounds;
    }
    // Depth and domain coverage are properties of the whole log, not
    // of any one event's schedule: a domain's serialized chain is its
    // round count across every event (rounds of one domain still
    // queue FIFO across the event boundaries).
    std::map<std::uint32_t, std::size_t> domain_rounds;
    SimTime busy = 0.0;
    for (const RecordedRound& round : log_) {
      total.serialized_round_depth = std::max(
          total.serialized_round_depth, ++domain_rounds[round.domain]);
      busy += round.duration;
    }
    total.domains_used = domain_rounds.size();
    total.concurrency =
        total.makespan_us > 0.0 ? busy / total.makespan_us : 0.0;
    return total;
  }

  /// The recorded log expanded for message-level execution: one
  /// FaultRound per recorded round, arrivals spaced as in run(gap).
  /// The round's local work is derived so a fault-free execution
  /// completes each round in exactly its priced duration (and sends
  /// exactly its priced message count) - execute_rounds on a clean
  /// FaultPlan reproduces run(gap)'s makespan.
  [[nodiscard]] std::vector<FaultRound> fault_rounds(
      SimTime inter_event_gap_us = 0.0) const {
    const NetworkModel& net = options_.network;
    std::vector<FaultRound> rounds;
    rounds.reserve(log_.size());
    for (const RecordedRound& recorded : log_) {
      FaultRound round;
      round.domain = recorded.domain;
      round.arrival =
          static_cast<SimTime>(recorded.event) * inter_event_gap_us;
      round.participants = recorded.participants;
      round.coordinator = recorded.participants.empty()
                              ? placement::kInvalidNode
                              : recorded.participants.front();
      round.payload_keys = recorded.payload_keys;
      round.payload_ranges = recorded.payload_ranges;
      if (recorded.participants.empty()) {
        round.local_work_us = recorded.duration;
      } else {
        const SimTime network_part =
            2.0 * net.one_hop_latency_us +
            static_cast<SimTime>(recorded.payload_keys) *
                net.per_key_transfer_us;
        round.local_work_us = std::max(0.0, recorded.duration - network_part);
      }
      rounds.push_back(std::move(round));
    }
    return rounds;
  }

  /// Executes the recorded log message by message through `plan`. The
  /// executor runs on the driver's pricing network model (so clean
  /// executions match run(gap) exactly); the remaining exec_options
  /// knobs - backoff, timeouts, re-plan budget - pass through.
  [[nodiscard]] FaultExecOutcome run_faulty(
      const FaultPlan& plan, FaultExecutorOptions exec_options = {},
      SimTime inter_event_gap_us = 0.0) const {
    exec_options.network = options_.network;
    const std::vector<FaultRound> rounds = fault_rounds(inter_event_gap_us);
    return execute_rounds(rounds, plan, exec_options);
  }

 private:
  /// Accumulated work of one (event, domain) cell.
  struct DomainWork {
    std::vector<placement::NodeId> participants;  // sorted distinct
    std::uint64_t cross_keys = 0;
    std::size_t cross_ranges = 0;
    std::uint64_t local_keys = 0;
    std::size_t local_ranges = 0;
    std::uint64_t repair_copies = 0;
    std::size_t repair_ranges = 0;
    std::size_t repair_replicas = 0;
    std::vector<placement::NodeId> repair_participants;  // sorted distinct
  };

  static void insert_participant(std::vector<placement::NodeId>& set,
                                 placement::NodeId node) {
    const auto it = std::lower_bound(set.begin(), set.end(), node);
    if (it == set.end() || *it != node) set.insert(it, node);
  }

  [[nodiscard]] std::uint32_t domain_of(HashIndex index) const {
    return placement::serialization_domain_of(store_.backend(), index);
  }

  /// Closes the open event: one handover round and one repair round
  /// per touched domain, priced through the network model. The
  /// running totals_.events doubles as the event id of the rounds
  /// being closed (events are numbered in finalization order).
  void finalize_event() {
    const NetworkModel& net = options_.network;
    for (const auto& [domain, work] : open_) {
      if (work.cross_ranges + work.local_ranges > 0) {
        RecordedRound round;
        round.domain = domain;
        round.event = totals_.events;
        // Remote handover synchronization plus local record updates
        // (rebuckets and intra-node moves cost bookkeeping only).
        const SimTime sync =
            options_.topology != nullptr
                ? net.handover_duration_tiered(*options_.topology,
                                               work.participants,
                                               work.cross_keys)
                : net.handover_duration(work.participants.size(),
                                        work.cross_keys);
        round.duration =
            sync +
            static_cast<SimTime>(work.local_ranges) * net.record_update_us;
        round.messages = net.handover_messages(work.participants.size(),
                                               work.cross_ranges);
        round.participants = work.participants;
        round.payload_keys = work.cross_keys;
        round.payload_ranges = work.cross_ranges;
        log_.push_back(std::move(round));
        ++totals_.handover_rounds;
      }
      if (work.repair_copies > 0) {
        RecordedRound round;
        round.domain = domain;
        round.event = totals_.events;
        if (options_.topology == nullptr) {
          round.duration =
              net.handover_duration(work.repair_replicas, work.repair_copies);
        } else if (options_.multicast_repair) {
          round.duration = net.multicast_handover_duration(
              *options_.topology, work.repair_participants, work.repair_copies);
        } else {
          round.duration = net.handover_duration_tiered(
              *options_.topology, work.repair_participants, work.repair_copies);
        }
        round.messages = net.handover_messages(work.repair_replicas,
                                               work.repair_ranges);
        round.participants = work.repair_participants;
        round.payload_keys = work.repair_copies;
        round.payload_ranges = work.repair_ranges;
        log_.push_back(std::move(round));
        ++totals_.repair_rounds;
      }
    }
    open_.clear();
    ++totals_.events;
  }

  kv::Store<Backend>& store_;
  Options options_;
  /// Open (in-flight) event's per-domain accumulation; ordered map so
  /// round emission order is deterministic.
  std::map<std::uint32_t, DomainWork> open_;
  std::vector<RecordedRound> log_;
  ProtocolTotals totals_;
};

}  // namespace cobalt::cluster
