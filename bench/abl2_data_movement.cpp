// Ablation A2: data-movement cost of elasticity.
//
// The balancement quality of figures 4-9 is only half the story for a
// real deployment: every rebalance moves stored keys. This harness
// loads a kv::Store with synthetic keys, grows the cluster node by
// node, and reports the keys moved per join for every placement scheme
// behind the PlacementBackend concept: the local approach, the global
// approach, Consistent Hashing (whose minimal-disruption property is
// the classic reference point), weighted rendezvous (HRW), jump
// consistent hash, maglev lookup tables, and CH with bounded loads.
//
// All schemes run through the same backend-generic movement loop
// (sim::run_movement_growth over kv::Store<Backend>); they differ only
// in the store's backend type, and every number comes from the same
// unified MigrationStats surface.
//
// Expected shape: most schemes move O(K / N) keys per join (a fair
// share); CH and jump move slightly less than the fair share on
// average (they only steal what the new node ends up owning), the
// model's split waves add rebucketing work but no extra cross-node
// movement, maglev's table-wide repopulation and bounded CH's cap
// reshuffling add overhead above the fair share.

#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "kv/store.hpp"
#include "sim/scenario.hpp"
#include "support/figure.hpp"
#include "support/schemes.hpp"

int main(int argc, char** argv) {
  using cobalt::bench::FigureHarness;
  using cobalt::bench::Series;

  FigureHarness fig(argc, argv, "abl2",
                    "Ablation A2: keys moved per join (all seven "
                    "placement schemes)",
                    /*default_runs=*/1, /*default_steps=*/256);
  fig.print_banner();

  const std::uint64_t key_count = fig.args().get_uint("keys", 200000);
  // --schemes=local,ch,... restricts the comparison to a subset (the
  // CI smoke uses --schemes=local at 8192 joins to exercise the local
  // approach's group-split pressure through the store hot path
  // without paying for the table-driven schemes at that scale).
  // The DHT schemes run Pmin = Vmin = 32; both ring schemes place
  // --ch-partitions points per node.
  const cobalt::bench::SchemeParams params{
      .pmin = 32,
      .vmin = 32,
      .ch_points = fig.args().get_uint("ch-partitions", 32),
      .grid_bits = cobalt::bench::grid_bits_flag(fig.args(), 14),
      .epsilon = fig.args().get_double("epsilon", 0.1),
      .selection = &fig.options()};

  // Key population: synthetic URLs (exercises the real hash path).
  std::vector<std::string> keys;
  keys.reserve(key_count);
  for (std::uint64_t i = 0; i < key_count; ++i) {
    keys.push_back("http://host" + std::to_string(i % 977) + "/object/" +
                   std::to_string(i));
  }

  // The same scenario loop, seven backends.
  struct Movement {
    std::string name;
    std::string label;           ///< series / check label
    std::vector<double> moved;   ///< keys moved per join
    bool rebucketed = false;     ///< any key re-bucketed on its node
    bool all_cross_node = false; ///< every move crossed nodes
    bool intact = false;         ///< no key lost
  };
  std::vector<Movement> results;
  cobalt::bench::for_each_scheme(params, [&](const auto& scheme) {
    auto store = scheme.store(fig.seed());
    Movement& row = results.emplace_back();
    row.name = scheme.name;
    row.label = scheme.name == "ch"           ? "CH"
                : scheme.name == "hrw"        ? "HRW"
                : scheme.name == "bounded-ch" ? "bounded CH"
                                              : scheme.name;
    row.moved = cobalt::sim::run_movement_growth(store, keys, fig.steps());
    const auto relocation = store.stats().relocation;
    row.rebucketed = relocation.keys_rebucketed != 0;
    row.all_cross_node =
        relocation.keys_moved_across_nodes == relocation.keys_moved_total;
    row.intact = store.size() == key_count;
  });

  std::vector<double> fair_share;
  std::vector<double> xs;
  for (std::size_t n = 2; n <= fig.steps(); ++n) {
    xs.push_back(static_cast<double>(n));
    fair_share.push_back(static_cast<double>(key_count) /
                         static_cast<double>(n));
  }

  std::vector<Series> series;
  for (const Movement& row : results) {
    series.push_back(Series{row.label, row.moved});
  }
  series.push_back(Series{"fair share K/N", fair_share});
  fig.print_table(xs, series, xs.size() / 16, /*percent=*/false, "nodes");
  fig.print_chart(xs, series, "nodes joined", "keys moved on join");
  fig.write_csv(xs, series, "nodes");

  // --- checks -------------------------------------------------------
  const auto tail_ratio = [&](const std::vector<double>& moved) {
    double m = 0.0;
    double f = 0.0;
    for (std::size_t i = moved.size() - moved.size() / 4; i < moved.size();
         ++i) {
      m += moved[i];
      f += fair_share[i];
    }
    return m / f;
  };
  // Maglev repopulates its whole table per join and bounded CH
  // reshuffles overflow cells as the caps shrink: both may exceed the
  // fair share, but must stay within a small multiple of it.
  for (const Movement& row : results) {
    const bool dht = row.name == "local" || row.name == "global";
    const bool reshuffles = row.name == "maglev" || row.name == "bounded-ch";
    const double ratio = tail_ratio(row.moved);
    fig.check(ratio > 0.3 && ratio < (reshuffles ? 8.0 : 3.0),
              (dht ? row.name + " approach" : row.label) +
                  " moves a fair share per join (ratio " +
                  cobalt::format_fixed(ratio, 2) + "x of K/N)");
  }
  using cobalt::bench::find_scheme;
  // Minimal disruption: a jump join only steals what the new tail
  // bucket ends up owning, so it sits at (or below) the fair share.
  if (const Movement* jump = find_scheme(results, "jump")) {
    fig.check(tail_ratio(jump->moved) < 1.5,
              "jump stays near the minimal-disruption bound");
  }
  // One vnode per node: every DHT handover crosses nodes, so the two
  // movement counters must agree; CH never re-buckets.
  if (const Movement* local = find_scheme(results, "local")) {
    fig.check(local->all_cross_node,
              "local: all movement crosses nodes at one vnode/node");
  }
  if (const Movement* ch = find_scheme(results, "ch")) {
    fig.check(!ch->rebucketed, "CH never re-buckets keys");
  }
  // The grid-backed schemes report plain relocations only.
  const Movement* hrw = find_scheme(results, "hrw");
  const Movement* jump = find_scheme(results, "jump");
  const Movement* maglev = find_scheme(results, "maglev");
  const Movement* bounded = find_scheme(results, "bounded-ch");
  if (hrw && jump && maglev && bounded) {
    fig.check(!hrw->rebucketed && !jump->rebucketed && !maglev->rebucketed &&
                  !bounded->rebucketed,
              "HRW, jump, maglev and bounded CH never re-bucket keys");
  }
  // Integrity: no keys lost by any enabled store.
  bool none_lost = true;
  for (const Movement& row : results) none_lost = none_lost && row.intact;
  fig.check(none_lost, "no keys lost through " +
                           std::to_string(fig.steps()) + " joins");

  return fig.exit_code();
}
