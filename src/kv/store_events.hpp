// cobalt/kv/store_events.hpp
//
// The store's outward event surface: the batched, *counted* view of
// what a membership event did to the resident keys. Where the
// placement layer's RelocationObserver reports raw ranges (and only
// relocation), this sink reports the same event stream after the
// store's deferred accounting pass has priced it - every relocation
// batch carries the number of resident keys it moved (exactly the
// keys flush_relocations() adds to MigrationStats), and every repair
// batch carries the copies the planned re-replication pass created
// inside one plan range (exactly what lands in ReplicationStats).
//
// This is what makes the protocol DES (cluster::ProtocolDriver) a
// third view of the *same* event log the two stats channels already
// are: movement accounting, re-replication traffic and protocol
// message/latency costs all derive from these callbacks, so their
// totals agree bit for bit by construction (and a ctest asserts it).
//
// Callbacks arrive in event order, every batch inside one
// on_membership_begin / on_membership_end bracket: the backend changes
// only through the store's membership bracket, which opens the sink
// bracket after its mutation returned and flushes the event's batches
// before closing it.

#pragma once

#include <cstdint>

#include "placement/types.hpp"

namespace cobalt::kv {

/// What kind of membership change a bracketed event stream describes.
enum class MembershipEventKind {
  kJoin,   ///< add_node, or a mutate() that enrolls (e.g. add_vnode)
  kDrain,  ///< remove_node (graceful; may have been refused), or a
           ///< mutate() that withdraws (e.g. remove_vnode)
  kCrash,  ///< fail_nodes (correlated batch; repair may count losses)
};

/// Receives the store's counted event batches. All default
/// implementations are no-ops so consumers override only what they
/// consume.
class StoreEventSink {
 public:
  virtual ~StoreEventSink() = default;

  /// A membership change driven through the store began (its mutation
  /// has returned; its batches follow).
  virtual void on_membership_begin(MembershipEventKind kind) {
    (void)kind;
  }

  /// One relocation event, counted: `keys` resident keys hashed into
  /// [first, last] moved from node `from` to node `to` (from == to for
  /// intra-node movement; `rebucket` for in-place re-indexing, where
  /// from/to are kInvalidNode). The count is taken pre-mutation,
  /// exactly as flush_relocations() adds it to MigrationStats.
  virtual void on_relocation_batch(HashIndex first, HashIndex last,
                                   placement::NodeId from,
                                   placement::NodeId to, std::uint64_t keys,
                                   bool rebucket) {
    (void)first;
    (void)last;
    (void)from;
    (void)to;
    (void)keys;
    (void)rebucket;
  }

  /// One plan range of a re-replication pass: repairing [first, last]
  /// created `copies` key copies (ReplicationStats::keys_rereplicated
  /// mass) and found `lost` keys with no live materialized replica
  /// (crash passes only); `replicas` is the clamped replication target
  /// the pass repaired toward. Ranges with neither copies nor losses
  /// are not reported.
  virtual void on_repair_batch(HashIndex first, HashIndex last,
                               std::uint64_t copies, std::uint64_t lost,
                               std::size_t replicas) {  // raw-k-ok: observed clamp, not config
    (void)first;
    (void)last;
    (void)copies;
    (void)lost;
    (void)replicas;
  }

  /// The bracketed membership change completed (its repair pass ran).
  virtual void on_membership_end() {}
};

}  // namespace cobalt::kv
