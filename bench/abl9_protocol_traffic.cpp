// Ablation A9: protocol traffic from placement events - one accounting
// source for all seven schemes.
//
// Where A3 replays creation traces recorded from the centralized
// balancer and A6 executes the local approach's message protocol, this
// harness drives the generic protocol DES (cluster::ProtocolDriver)
// from the *store's* counted event stream: every membership event of a
// store-level churn run becomes synchronization rounds whose domains
// follow the scheme's serialization unit (one GPDR for global,
// per-group LPDRs for local, per-arc domains for the ring/grid
// schemes), whose handover payloads are the store's batched relocation
// ranges, and whose k > 1 repair rounds carry the planned
// re-replication copies. Movement accounting, repair traffic and
// protocol messages are three views of one event log - the harness
// asserts the totals agree bit for bit for every (scheme, k) cell.
//
// Expected shape: the single-domain global approach serializes every
// round (depth == rounds), the local approach's groups and the
// arc-partitioned schemes overlap theirs, so their makespans sit well
// below global's at equal event counts; repair traffic grows with k;
// and letting a second rack crash while the first crash's repair
// rounds are still queued (sim::run_failure_during_repair) never beats
// the quiescent-repair reference on makespan.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "kv/store.hpp"
#include "sim/protocol_cost.hpp"
#include "support/figure.hpp"
#include "support/schemes.hpp"

namespace {

using cobalt::placement::ReplicationSpec;
using cobalt::placement::SpreadPolicy;

using cobalt::bench::FigureHarness;
using cobalt::bench::Series;

constexpr std::size_t kMaxReplication = 3;

/// Averaged outcome of one (scheme, k) cell.
struct CellOutcome {
  double rounds = 0.0;
  double messages = 0.0;
  double depth = 0.0;          ///< serialized-round depth (longest chain)
  double makespan_ms = 0.0;
  double concurrency = 0.0;
  double handover_keys = 0.0;  ///< cross-node keys (== relocation channel)
  double repair_copies = 0.0;  ///< re-replication mass (== repair channel)
  double repair_overlap = 0.0; ///< failure-during-repair serial/overlap
  bool accounting_exact = true;
};

/// One churn run plus one failure-during-repair run of whatever store
/// `make(seed, k)` builds, protocol-instrumented.
template <typename MakeStore>
CellOutcome run_cell(FigureHarness& fig, std::uint64_t tag,
                     std::size_t population, std::size_t cycles,
                     std::size_t rack, const std::vector<std::string>& keys,
                     std::size_t k, MakeStore make) {
  CellOutcome out;
  for (std::size_t run = 0; run < fig.runs(); ++run) {
    const std::uint64_t seed =
        cobalt::derive_seed(fig.seed(), tag * 8 + k, run);

    auto churn_store = make(seed, k);
    const auto churn = cobalt::sim::run_protocol_churn(
        churn_store, population, cycles, keys, seed);
    // The one-accounting-source invariant: the DES's summed payloads
    // must equal the store's two stats channels bit for bit.
    const auto reloc = churn_store.stats().relocation;
    const auto repl = churn_store.stats().replication;
    out.accounting_exact =
        out.accounting_exact &&
        churn.totals.handover_keys_total == reloc.keys_moved_total &&
        churn.totals.handover_keys_cross == reloc.keys_moved_across_nodes &&
        churn.totals.rebucket_keys == reloc.keys_rebucketed &&
        churn.totals.repair_copies == repl.keys_rereplicated &&
        churn.totals.keys_lost == repl.keys_lost;

    out.rounds += static_cast<double>(churn.schedule.rounds);
    out.messages += static_cast<double>(churn.schedule.messages);
    out.depth += static_cast<double>(churn.schedule.serialized_round_depth);
    out.makespan_ms += churn.schedule.makespan_us / 1000.0;
    out.concurrency += churn.schedule.concurrency;
    out.handover_keys +=
        static_cast<double>(churn.totals.handover_keys_cross);
    out.repair_copies += static_cast<double>(churn.totals.repair_copies);

    auto failure_store = make(seed, k);
    const auto failure = cobalt::sim::run_failure_during_repair(
        failure_store, population, rack, keys, seed);
    out.repair_overlap +=
        failure.overlapped.makespan_us > 0.0
            ? failure.serialized.makespan_us / failure.overlapped.makespan_us
            : 1.0;
  }
  const double n = static_cast<double>(fig.runs());
  out.rounds /= n;
  out.messages /= n;
  out.depth /= n;
  out.makespan_ms /= n;
  out.concurrency /= n;
  out.handover_keys /= n;
  out.repair_copies /= n;
  out.repair_overlap /= n;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FigureHarness fig(argc, argv, "abl9",
                    "Ablation A9: protocol traffic driven from placement "
                    "events (all seven schemes, k = 1..3)",
                    /*default_runs=*/1, /*default_steps=*/32);
  fig.print_banner();

  const std::size_t population = fig.steps();
  const std::size_t cycles = fig.args().get_uint("cycles", 48);
  const std::size_t rack = fig.args().get_uint("rack", 3);
  const std::size_t key_count = fig.args().get_uint("keys", 4000);
  const auto params = cobalt::bench::SchemeParams::from_flags(fig, 4);

  std::vector<std::string> keys;
  keys.reserve(key_count);
  for (std::size_t i = 0; i < key_count; ++i) {
    keys.push_back("key-" + std::to_string(i));
  }

  cobalt::TextTable table({"scheme", "k", "rounds", "messages", "depth",
                           "makespan (ms)", "concurrency", "handover keys",
                           "repair copies", "repair overlap (x)"});

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
    Series messages{name + " messages", {}};
    Series makespan{name + " makespan (ms)", {}};
    Series depth{name + " depth", {}};
    SchemeCells& row = results.emplace_back(SchemeCells{name, {}});
    for (std::size_t k = 1; k <= kMaxReplication; ++k) {
      const CellOutcome cell = run_cell(fig, 90 + scheme.index, population,
                                        cycles, rack, keys, k, make);
      table.add_row({name + " k=" + std::to_string(k), std::to_string(k),
                     cobalt::format_fixed(cell.rounds, 0),
                     cobalt::format_fixed(cell.messages, 0),
                     cobalt::format_fixed(cell.depth, 0),
                     cobalt::format_fixed(cell.makespan_ms, 2),
                     cobalt::format_fixed(cell.concurrency, 2),
                     cobalt::format_fixed(cell.handover_keys, 0),
                     cobalt::format_fixed(cell.repair_copies, 0),
                     cobalt::format_fixed(cell.repair_overlap, 2)});
      messages.y.push_back(cell.messages);
      makespan.y.push_back(cell.makespan_ms);
      depth.y.push_back(cell.depth);
      row.cells.push_back(cell);
    }
    csv_series.push_back(std::move(messages));
    csv_series.push_back(std::move(makespan));
    csv_series.push_back(std::move(depth));
  });

  std::cout << table.render();
  fig.write_csv(ks, csv_series, "replicas");

  for (const auto& [name, cells] : results) {
    for (std::size_t k = 0; k < kMaxReplication; ++k) {
      fig.check(cells[k].accounting_exact,
                name + " k=" + std::to_string(k + 1) +
                    ": DES payload totals equal the store's relocation and "
                    "replication channels bit for bit");
    }
    // Admitting the second crash while repair is queued can only help:
    // the serialized (quiescent-repair) reference is never faster.
    fig.check(cells[kMaxReplication - 1].repair_overlap >= 1.0 - 1e-9,
              name + ": failure-during-repair overlap never beats the "
              "serialized reference (x" +
                  cobalt::format_fixed(
                      cells[kMaxReplication - 1].repair_overlap, 2) +
                  ")");
  }

  // The paper's serialization claim, on membership events instead of
  // recorded creation traces (cross-scheme comparisons need both sides
  // enabled): the global approach's one GPDR admits every round
  // through one queue...
  using cobalt::bench::find_scheme;
  const SchemeCells* local = find_scheme(results, "local");
  const SchemeCells* global = find_scheme(results, "global");
  const SchemeCells* ch = find_scheme(results, "ch");
  if (global != nullptr) {
    fig.check(global->cells[0].depth >= global->cells[0].rounds - 0.5,
              "global: every round serializes through the one GPDR "
              "(depth == rounds)");
  }
  // ... while per-group LPDRs (and per-arc domains) overlap rounds, so
  // at equal churn the local approach completes sooner.
  if (local != nullptr && global != nullptr) {
    fig.check(local->cells[0].makespan_ms < global->cells[0].makespan_ms,
              "local: per-group domains beat the global GPDR on makespan (" +
                  cobalt::format_fixed(local->cells[0].makespan_ms, 1) +
                  "ms < " +
                  cobalt::format_fixed(global->cells[0].makespan_ms, 1) +
                  "ms)");
  }
  if (ch != nullptr && global != nullptr) {
    fig.check(ch->cells[0].depth < global->cells[0].depth,
              "ch: per-arc domains cut the serialized-round depth below "
              "global's single queue");
  }

  FigureHarness::note(
      "rounds/messages/makespan, the handover-key mass and the repair-copy "
      "mass all derive from one event log (the store's counted batches); "
      "the accounting checks above are exact equalities, not tolerances");

  return fig.exit_code();
}
