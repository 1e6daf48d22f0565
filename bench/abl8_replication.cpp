// Ablation A8: replication - correlated failures and rolling upgrades
// over every placement scheme.
//
// The paper's relocation accounting models the data movement of
// membership change; replication is what makes that movement matter in
// a deployment: a failure is only survivable while some replica lives,
// and repairing the replica sets is real network traffic on top of
// primary relocation. This harness compares all seven schemes at
// replication factors k in {1, 2, 3} under two scenarios:
//
//   * correlated failure (sim::run_correlated_failure): a random rack
//     of nodes crashes at once; measured: keys lost (the window k
//     exists to close) and the re-replication mass of the repair;
//   * rolling upgrade (sim::run_rolling_upgrade): every node is
//     gracefully drained and replaced in sequence; measured: the
//     re-replication mass of the sweep (lost keys are zero by
//     construction - drains are graceful).
//
// Every scheme runs the same store-level loops over kv::Store<Backend>;
// the schemes and their construction come from the shared table
// (support/schemes.hpp).

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "kv/store.hpp"
#include "sim/scenario.hpp"
#include "support/figure.hpp"
#include "support/schemes.hpp"

namespace {

using cobalt::placement::ReplicationSpec;
using cobalt::placement::SpreadPolicy;

using cobalt::bench::FigureHarness;
using cobalt::bench::Series;

constexpr std::size_t kMaxReplication = 3;

/// Averaged outcome of one (scheme, k) cell of the comparison matrix.
struct CellOutcome {
  double lost_fraction = 0.0;      ///< keys lost / keys, rack failure
  double failure_rereplication = 0.0;  ///< repair copies / key
  double upgrade_rereplication = 0.0;  ///< sweep copies / key
  double refused_fraction = 0.0;   ///< refused removals / attempts
};

/// The shared scenario pair of this ablation: fig.runs() correlated
/// failures and rolling upgrades of whatever store `make(seed, k)`
/// builds.
template <typename MakeStore>
CellOutcome run_cell(FigureHarness& fig, std::uint64_t tag,
                     std::size_t population, std::size_t rack,
                     const std::vector<std::string>& keys, std::size_t k,
                     MakeStore make) {
  CellOutcome out;
  const auto key_count = static_cast<double>(keys.size());
  for (std::size_t run = 0; run < fig.runs(); ++run) {
    const std::uint64_t seed =
        cobalt::derive_seed(fig.seed(), tag * 8 + k, run);

    auto failure_store = make(seed, k);
    const auto failure = cobalt::sim::run_correlated_failure(
        failure_store, population, rack, keys, seed);
    out.lost_fraction += static_cast<double>(failure.keys_lost) / key_count;
    out.failure_rereplication +=
        static_cast<double>(failure.keys_rereplicated) / key_count;

    auto upgrade_store = make(seed, k);
    const auto upgrade =
        cobalt::sim::run_rolling_upgrade(upgrade_store, population, keys);
    out.upgrade_rereplication +=
        static_cast<double>(upgrade.keys_rereplicated) / key_count;
    out.refused_fraction +=
        static_cast<double>(failure.refused + upgrade.refused) /
        static_cast<double>(rack + population);
  }
  const double n = static_cast<double>(fig.runs());
  out.lost_fraction /= n;
  out.failure_rereplication /= n;
  out.upgrade_rereplication /= n;
  out.refused_fraction /= n;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FigureHarness fig(argc, argv, "abl8",
                    "Ablation A8: correlated failures and rolling upgrades "
                    "under replication (all seven placement schemes, "
                    "k = 1..3)",
                    /*default_runs=*/3, /*default_steps=*/48);
  fig.print_banner();

  const std::size_t population = fig.steps();
  const std::size_t rack = fig.args().get_uint("rack", 3);
  const std::size_t key_count = fig.args().get_uint("keys", 4000);
  const auto params = cobalt::bench::SchemeParams::from_flags(fig, 8);

  std::vector<std::string> keys;
  keys.reserve(key_count);
  for (std::size_t i = 0; i < key_count; ++i) {
    keys.push_back("key-" + std::to_string(i));
  }

  cobalt::TextTable table(
      {"scheme", "k", "keys lost (%)", "failure re-repl (/key)",
       "upgrade re-repl (/key)", "refused (%)"});

  // The full matrix, one row per (scheme, k); the CSV gets one series
  // per (scheme, metric) over the k axis.
  std::vector<Series> csv_series;
  std::vector<double> ks;
  for (std::size_t k = 1; k <= kMaxReplication; ++k) {
    ks.push_back(static_cast<double>(k));
  }

  struct SchemeCells {
    std::string name;
    std::vector<CellOutcome> cells;  ///< index i is k = i + 1
  };
  std::vector<SchemeCells> results;
  cobalt::bench::for_each_scheme(params, [&](const auto& scheme) {
    const auto make = [&](std::uint64_t seed, std::size_t k) {
      return scheme.store(seed, ReplicationSpec{k, SpreadPolicy::kNone});
    };
    const std::string& name = scheme.name;
    Series lost{name + " lost (%)", {}};
    Series failure{name + " failure re-repl (/key)", {}};
    Series upgrade{name + " upgrade re-repl (/key)", {}};
    SchemeCells& row = results.emplace_back(SchemeCells{name, {}});
    for (std::size_t k = 1; k <= kMaxReplication; ++k) {
      const CellOutcome cell = run_cell(fig, 80 + scheme.index, population,
                                        rack, keys, k, make);
      table.add_row({name + " k=" + std::to_string(k), std::to_string(k),
                     cobalt::format_fixed(cell.lost_fraction * 100, 2),
                     cobalt::format_fixed(cell.failure_rereplication, 3),
                     cobalt::format_fixed(cell.upgrade_rereplication, 3),
                     cobalt::format_fixed(cell.refused_fraction * 100, 1)});
      lost.y.push_back(cell.lost_fraction * 100);
      failure.y.push_back(cell.failure_rereplication);
      upgrade.y.push_back(cell.upgrade_rereplication);
      row.cells.push_back(cell);
    }
    csv_series.push_back(std::move(lost));
    csv_series.push_back(std::move(failure));
    csv_series.push_back(std::move(upgrade));
  });

  std::cout << table.render();
  fig.write_csv(ks, csv_series, "replicas");

  // The claims of the ablation, per scheme.
  for (const auto& [name, cells] : results) {
    // k = 1 means no redundancy: a rack failure must lose keys. (The
    // local approach may refuse enough of the rack to dodge losses at
    // tiny scale; its check still holds at defaults.)
    fig.check(cells[0].lost_fraction > 0.0,
              name + ": an unreplicated rack failure loses keys (" +
                  cobalt::format_fixed(cells[0].lost_fraction * 100, 2) +
                  "%)");
    // Replication closes the window: each extra copy shrinks losses by
    // roughly the rack-fraction factor; require at least a halving.
    fig.check(cells[1].lost_fraction <
                  0.5 * cells[0].lost_fraction + 1e-9,
              name + ": k=2 at least halves correlated-failure loss (" +
                  cobalt::format_fixed(cells[1].lost_fraction * 100, 2) +
                  "% vs " +
                  cobalt::format_fixed(cells[0].lost_fraction * 100, 2) +
                  "%)");
    fig.check(cells[2].lost_fraction <=
                  cells[1].lost_fraction + 1e-9,
              name + ": loss keeps shrinking at k=3");
    // Redundancy is not free: repairing a richer replica set costs
    // more copies, in both scenarios.
    fig.check(cells[2].upgrade_rereplication >
                  cells[0].upgrade_rereplication,
              name + ": upgrade repair mass grows with k (" +
                  cobalt::format_fixed(cells[2].upgrade_rereplication, 2) +
                  " vs " +
                  cobalt::format_fixed(cells[0].upgrade_rereplication, 2) +
                  " copies/key)");
    fig.check(cells[2].failure_rereplication >
                  cells[0].failure_rereplication,
              name + ": failure repair mass grows with k");
  }

  FigureHarness::note(
      "rolling upgrades lose zero keys at every k by construction: "
      "drains are graceful, so the departing node is always a copy "
      "source; only correlated crashes open a data-loss window");
  FigureHarness::note(
      "the minimal-disruption schemes (ch, local, global) repair only "
      "the failed mass; the table-reshuffling schemes (maglev, jump at "
      "non-tail removals) also re-replicate survivor keys whose replica "
      "sets the reshuffle touched");

  return fig.exit_code();
}
