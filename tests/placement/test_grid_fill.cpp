// Oracle for the grid schemes' incremental owner tables. Jump keeps a
// per-cell next jump candidate and re-hashes only the cells an event
// moves, bounded-load CH fills its cells with one forward cursor along
// the ring, and HRW's leave takes the new owner from its replica-set
// tracker. Each table must equal what the published rule computes from
// scratch, after every event of a seeded churn script (joins, tail and
// non-tail drains, whole-rack crashes through repeated remove_node and
// the re-joins that refill the racks):
//
//   * jump: the owner of every cell is the node of the Lamping-Veach
//     bucket of its key over the current bucket count (bucket_of);
//   * bounded-ch: the owners are the ascending per-cell fill that
//     starts at ring().points().lower_bound and overflows past nodes
//     at cap_of;
//   * hrw, with the tracker armed: the owner of every cell is the
//     argmax of score(cell, .) over the live nodes, ties to the lower
//     id, and the tracked spec-keyed set equals the scored walk.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "placement/bounded_ch_backend.hpp"
#include "placement/hrw_backend.hpp"
#include "placement/jump_backend.hpp"

namespace cobalt::placement {
namespace {

constexpr std::size_t kRacks = 5;
constexpr std::size_t kPerRack = 4;
constexpr int kEvents = 320;
constexpr unsigned kGridBits = 10;

/// The live nodes, ascending.
template <typename B>
std::vector<NodeId> live_nodes(const B& backend) {
  std::vector<NodeId> nodes;
  for (NodeId node = 0; node < backend.node_slot_count(); ++node) {
    if (backend.is_live(node)) nodes.push_back(node);
  }
  return nodes;
}

/// Runs the churn script drawn from `seed` on `backend` (its first
/// kRacks x kPerRack nodes already joined and placed in `topo`),
/// calling `check(label)` after every add_node and remove_node.
template <typename B, typename Check>
void run_churn(B& backend, cluster::Topology& topo, std::uint64_t seed,
               Check&& check) {
  Xoshiro256 rng(seed);
  int events = 0;
  const auto join = [&] {
    const auto rack =
        static_cast<cluster::Topology::RackId>(rng.next_below(kRacks));
    topo.assign(static_cast<NodeId>(backend.node_slot_count()), rack,
                topo.zone_of_rack(rack));
    backend.add_node();
    check("event " + std::to_string(events++) + " join");
  };
  const auto drain = [&](NodeId node, const char* what) {
    ASSERT_TRUE(backend.remove_node(node));
    check("event " + std::to_string(events++) + " " + what + " of node " +
          std::to_string(node));
  };
  while (events < kEvents && !::testing::Test::HasFatalFailure()) {
    const std::vector<NodeId> live = live_nodes(backend);
    const std::uint64_t draw = rng.next_below(10);
    if (live.size() <= 6 || (draw < 4 && live.size() < 40)) {
      join();
    } else if (draw < 6) {
      drain(live[rng.next_below(live.size())], "drain");
    } else if (draw < 8) {
      // The tail: jump's last bucket, the newest node elsewhere.
      NodeId tail = live.back();
      if constexpr (std::is_same_v<B, JumpBackend>) {
        for (const NodeId node : live) {
          if (backend.bucket_of(node) == live.size() - 1) tail = node;
        }
      }
      drain(tail, "tail drain");
    } else {
      // A whole-rack crash, one remove_node per live node of the rack.
      const auto rack =
          topo.rack_of(live[rng.next_below(live.size())]);
      for (const NodeId node : live) {
        if (topo.rack_of(node) != rack || backend.node_count() < 3) continue;
        drain(node, "crash");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

/// The Lamping-Veach jump consistent hash, from the published
/// algorithm.
std::size_t reference_jump(std::uint64_t key, std::size_t buckets) {
  std::int64_t bucket = -1;
  std::int64_t next = 0;
  while (next < static_cast<std::int64_t>(buckets)) {
    bucket = next;
    key = key * 2862933555777941757ull + 1;
    next = static_cast<std::int64_t>(
        static_cast<double>(bucket + 1) *
        (static_cast<double>(std::int64_t{1} << 31) /
         static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<std::size_t>(bucket);
}

TEST(GridFill, JumpOwnersMatchTheReferenceHash) {
  constexpr std::uint64_t kSeed = 0x5eed01;
  JumpBackend backend({kSeed, kGridBits});
  cluster::Topology topo = cluster::Topology::uniform(kRacks, kPerRack);
  for (std::size_t n = 0; n < kRacks * kPerRack; ++n) backend.add_node();
  run_churn(backend, topo, 11, [&](const std::string& label) {
    const std::vector<NodeId> live = live_nodes(backend);
    std::vector<NodeId> slot(live.size(), kInvalidNode);
    for (const NodeId node : live) {
      ASSERT_LT(backend.bucket_of(node), live.size()) << label;
      slot[backend.bucket_of(node)] = node;
    }
    const RangeGrid& grid = backend.grid();
    for (std::size_t cell = 0; cell < grid.size(); ++cell) {
      const std::uint64_t key =
          mix64(static_cast<std::uint64_t>(cell) ^ kSeed);
      ASSERT_EQ(grid.owner(cell), slot[reference_jump(key, live.size())])
          << label << ": cell " << cell;
    }
  });
}

TEST(GridFill, BoundedChOwnersMatchThePerCellFill) {
  BoundedChBackend backend({0x5eed02, 8, 0.1, kGridBits});
  cluster::Topology topo = cluster::Topology::uniform(kRacks, kPerRack);
  for (std::size_t n = 0; n < kRacks * kPerRack; ++n) backend.add_node();
  run_churn(backend, topo, 12, [&](const std::string& label) {
    const auto& points = backend.ring().points();
    std::vector<std::size_t> load(backend.node_slot_count(), 0);
    const RangeGrid& grid = backend.grid();
    for (std::size_t cell = 0; cell < grid.size(); ++cell) {
      auto it = points.lower_bound(grid.cell_first(cell));
      for (;; ++it) {
        if (it == points.end()) it = points.begin();
        if (load[it->second] < backend.cap_of(it->second)) break;
      }
      ++load[it->second];
      ASSERT_EQ(grid.owner(cell), it->second) << label << ": cell " << cell;
    }
  });
}

/// HRW's owners against the argmax of score over the live nodes, with
/// the tracker armed for `spec` (queried after every event, as the
/// store does), and the tracked spec-keyed sets against the scored
/// walk.
void expect_hrw_owners(const ReplicationSpec& spec, std::uint64_t seed) {
  HrwBackend backend({seed, kGridBits});
  cluster::Topology topo = cluster::Topology::uniform(kRacks, kPerRack);
  for (std::size_t n = 0; n < kRacks * kPerRack; ++n) backend.add_node();
  backend.set_topology(&topo);
  (void)backend.replica_dirty_ranges(spec);
  std::vector<NodeId> tracked;
  std::vector<NodeId> scored;
  run_churn(backend, topo, seed + 1, [&](const std::string& label) {
    (void)backend.replica_dirty_ranges(spec);
    const std::vector<NodeId> live = live_nodes(backend);
    const RangeGrid& grid = backend.grid();
    for (std::size_t cell = 0; cell < grid.size(); ++cell) {
      NodeId best = kInvalidNode;
      for (const NodeId node : live) {
        if (best == kInvalidNode ||
            backend.score(cell, node) > backend.score(cell, best)) {
          best = node;
        }
      }
      ASSERT_EQ(grid.owner(cell), best) << label << ": cell " << cell;
      const HashIndex point = grid.cell_first(cell);
      (void)backend.replica_set_into(point, spec, tracked);
      (void)backend.ReplicationSurface<HrwBackend>::replica_set_into(
          point, spec, scored);
      ASSERT_EQ(tracked, scored) << label << ": cell " << cell;
    }
  });
  backend.set_topology(nullptr);
}

TEST(GridFill, HrwOwnersMatchTheArgmaxWithTheRackTrackerArmed) {
  // Crashes can empty two of the five racks at once, so leaves take
  // both the one-scan replacement (>= 3 live racks) and the walk.
  expect_hrw_owners(ReplicationSpec{3, SpreadPolicy::kRack}, 0x5eed03);
}

TEST(GridFill, HrwOwnersMatchTheArgmaxWithoutSpread) {
  expect_hrw_owners(ReplicationSpec{2, SpreadPolicy::kNone}, 0x5eed05);
}

}  // namespace
}  // namespace cobalt::placement
