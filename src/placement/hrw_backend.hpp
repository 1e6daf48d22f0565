// cobalt/placement/hrw_backend.hpp
//
// PlacementBackend adapter for weighted rendezvous (highest-random-
// weight, HRW) hashing (Thaler & Ravishankar '96).
//
// Every (cell, node) pair gets an independent pseudo-random draw and
// the cell belongs to the node with the highest score; weighting uses
// the logarithm method (score = -w / ln(u), u uniform in (0,1)), which
// makes a node's expected quota exactly proportional to its weight.
// capacity is the weight, so heterogeneity needs no extra machinery.
//
// Ownership is defined on a RangeGrid owned by the GridScheme base (see
// range_grid.hpp): routing, quotas and relocation accounting all read
// the same sampled-range table, and membership events are diffed into
// coalesced on_relocate ranges. HRW is the one grid scheme that is not
// walk-replicated: it replaces the base's successor walk and dirty
// report with the score order and the exact-cell tracker below. A
// join is incremental (the new node's score is compared against each
// cell's stored winning score, O(cells)); a leave recomputes only the
// cells the departed node owned, one score scan over the live nodes
// each (O(cells owned x live nodes), i.e. O(cells) in expectation) -
// or, while the tracker is armed, takes each such cell's new owner
// from its updated tracked set, whose rank 0 is the cell's top live
// node.
//
// Dirty ranges at k > 1 are exact cells. Every rank is an independent
// rendezvous, so no range structure bounds where a deeper rank moved;
// instead the backend keeps, per cell, the replica set of one tracked
// spec (k node ids plus their scores, in rank order: ranks and domains
// are fixed, so membership decides the spread order) and reports
// exactly the cells whose set an event changed:
//   - arming: the first spec-keyed dirty query, or one with a
//     different spec, walks every cell and answers the full range for
//     that event; set_topology drops the tracked sets;
//   - join of n: a cell can change only when n outranks the lowest
//     member of its set, or n opens a failure domain with no live node
//     while the live nodes span fewer than k domains; the new set is
//     the spread order of the old set plus n, truncated to k - O(k),
//     and exact, since every node outside the set is either not the
//     first of its domain or ranks below the fill;
//   - leave of n: only the cells whose set holds n change. While every
//     set is full and the survivors span >= k domains, each member
//     leads its own domain, so n's successor is the best live node
//     outside the other members' domains: one score scan, no walk.
//     Otherwise those cells re-walk.
// SpreadPolicy::kNone (or no topology) is the same tracker with every
// node its own domain. Domains are looked up once per event into a
// per-slot array. While armed, the tracker also answers the spec-keyed
// walk for its spec: the cell's set, reordered to spread order, in
// O(k) instead of one score per live node.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "placement/range_grid.hpp"
#include "placement/replication_spec.hpp"
#include "placement/types.hpp"

namespace cobalt::placement {

/// Parameters of a rendezvous-hashing backend.
struct HrwBackendOptions {
  /// Seed of the per-node draw tags.
  std::uint64_t seed = 0x48725721ull;

  /// Grid resolution: ownership is piecewise constant on 2^grid_bits
  /// equal cells of R_h.
  unsigned grid_bits = 14;
};

/// Adapter making weighted rendezvous hashing model PlacementBackend.
class HrwBackend final : public GridScheme<HrwBackend> {
 public:
  using Options = HrwBackendOptions;
  using ReplicationSurface::replica_set_into;

  explicit HrwBackend(Options options);

  /// Joins a node of relative `capacity` (its rendezvous weight).
  NodeId add_node(double capacity = 1.0);

  /// Leaves; HRW can always express a removal (never refuses).
  /// Requires another live node.
  bool remove_node(NodeId node);

  /// Ranked distinct owners of the k copies of a key at `index`: the
  /// live nodes in descending rendezvous-score order for the cell
  /// containing `index` - HRW's native replication rule (every rank is
  /// an independent rendezvous, so replica placement inherits the
  /// weighting). Rank 0 is the grid's stored winner; the other ranks
  /// are heap pops, so a walk `stop` ends early never sorts the rest.
  /// The set is written into `out` (cleared first); the score ranking
  /// reuses a thread-local scratch buffer, so concurrent const calls
  /// are safe. Returns the last index of the cell holding `index`: the
  /// ranking is per cell.
  HashIndex replica_set_into(HashIndex index, std::size_t k,
                             std::vector<NodeId>& out,
                             WalkStop stop = {}) const;

  /// The spread replica set of ReplicationSurface, answered from the
  /// tracker in O(k) when it is armed for exactly `spec` (same k, same
  /// effective policy, every set filled): the cell's tracked set, put
  /// in spread order (domain leaders first, then the top-up). Any
  /// other spec scores every live node through the surface. Returns
  /// the last index of the cell holding `index`.
  HashIndex replica_set_into(HashIndex index, const ReplicationSpec& spec,
                             std::vector<NodeId>& out) const;

  /// The raw walk's dirty report: the grid's changed cells at k == 1,
  /// the tracked cells of ReplicationSpec{k, kNone} above.
  [[nodiscard]] std::vector<HashRange> replica_dirty_ranges(
      std::size_t k) const;

  /// The spec-keyed dirty report, replacing the base's depth cover:
  /// exactly the cells whose replica set under `spec` the most recent
  /// membership event changed (see the header note). A query for a
  /// spec other than the tracked one re-arms the tracker and answers
  /// the full range. Arming writes the tracker, so the query must not
  /// race membership calls or other dirty queries - the store is
  /// single-threaded and makes it inside its membership bracket.
  [[nodiscard]] std::vector<HashRange> replica_dirty_ranges(
      const ReplicationSpec& spec) const;

  /// Attaches the failure-domain map (see ReplicationSurface) and
  /// drops the tracked replica sets, which were spread over the old
  /// map.
  void set_topology(const cluster::Topology* topology) {
    ReplicationSurface::set_topology(topology);
    spread_.armed = false;
  }

  static std::string_view scheme_name() { return "hrw"; }

  // --- backend-specific surface (not part of the concept) -----------

  /// The rendezvous weight `node` joined with (0 when departed).
  [[nodiscard]] double weight_of(NodeId node) const;

  /// The weighted rendezvous score of (cell, node): the key of the
  /// replica ranking (score descending, ties by ascending id).
  [[nodiscard]] double score(std::size_t cell, NodeId node) const;

 private:
  /// The replica sets of one tracked spec, one per grid cell, and the
  /// cells the most recent event changed (see the header note).
  struct SpreadCells {
    bool armed = false;
    std::size_t k = 0;
    SpreadPolicy policy = SpreadPolicy::kNone;  ///< kNone: node = domain
    std::size_t filled = 0;       ///< set size: min(k, live nodes)
    std::size_t cells = 0;
    // Rank-major: rank r of every cell is one contiguous run, so a
    // join's scan compares against one dense array of lowest scores.
    std::vector<NodeId> nodes;    ///< k per cell, in rank order
    std::vector<double> scores;   ///< the matching rendezvous scores
    bool full = true;             ///< the last report is the full range
    std::vector<std::pair<std::size_t, std::size_t>> changed;  ///< runs
    std::vector<std::uint32_t> domain;  ///< per node slot, this event
    // Scratch of one event: a join's (cell, score) candidates; of one
    // walk or merge: the ranking heap, the ranked (score, node) prefix
    // and its first-of-domain marks.
    std::vector<std::pair<std::size_t, double>> entrants;
    std::vector<std::pair<double, NodeId>> heap;
    std::vector<std::pair<double, NodeId>> walked;
    std::vector<char> first;
    // Distinct domains of one count or the members' domains of one
    // leader replacement.
    std::vector<std::uint32_t> domains;

    NodeId& node_at(std::size_t cell, std::size_t rank) {
      return nodes[rank * cells + cell];
    }
    NodeId node_at(std::size_t cell, std::size_t rank) const {
      return nodes[rank * cells + cell];
    }
    double& score_at(std::size_t cell, std::size_t rank) {
      return scores[rank * cells + cell];
    }
  };

  /// The uniform draw of (cell, node) that score() weights.
  [[nodiscard]] double draw(std::size_t cell, NodeId node) const;
  /// The top-ranked live node of `cell` (with its score) whose domain,
  /// in the event's domain array, is not in `excluded`.
  [[nodiscard]] std::pair<double, NodeId> top_live(
      std::size_t cell, const std::vector<std::uint32_t>& excluded) const;
  /// Walks every cell into the tracker for (k, policy).
  void arm_spread(std::size_t k, SpreadPolicy policy) const;
  /// Refills the per-slot domain array from the topology.
  void load_domains() const;
  /// Ranks `cell`'s live nodes into `walked` until k domains appear.
  void walk_spread(std::size_t cell) const;
  /// Writes the spread set of the ranked `walked` into `cell`'s set;
  /// true when the set changed.
  bool store_spread(std::size_t cell) const;
  /// The distinct domains of the live nodes other than `skip`, from the
  /// event's domain array (a scratch buffer, valid until the next
  /// call).
  const std::vector<std::uint32_t>& live_domains(NodeId skip) const;
  /// Removes rank `rank` from `cell`'s full set of domain leaders and
  /// admits the best live node outside the remaining members' domains.
  void replace_leader(std::size_t cell, std::size_t rank) const;
  /// Writes `entry` into `cell`'s set at the free rank `at`, moved up
  /// past every member it outranks (sets are rank-ordered).
  void settle(std::size_t cell, std::size_t at,
              std::pair<double, NodeId> entry) const;
  /// Updates `cell`'s set for the join of `node` scoring `s`.
  bool join_spread(std::size_t cell, NodeId node, double s,
                   bool opens_domain, bool few_domains) const;
  /// Begins one event's tracker update; false when none is armed.
  bool begin_spread_event() const;
  /// Records `cell` as changed by the current event.
  void mark_spread(std::size_t cell) const;

  Options options_;
  std::vector<double> winning_score_;  // per cell, matches grid_ owners
  std::vector<double> node_weight_;    // per node slot; 0 when departed
  std::vector<std::uint64_t> node_draw_;  // per-node random score tag
  Xoshiro256 rng_;
  // Written by the const dirty query (arming) as well as by membership
  // calls; the caller must not run either concurrently with any other
  // call (the store is single-threaded by contract).
  mutable SpreadCells spread_;
};

}  // namespace cobalt::placement
