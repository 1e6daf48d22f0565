// Ablation A6: the creation protocol executed message by message.
//
// Where A3 replays round *costs* recorded from the centralized
// balancer (through the generic round scheduler) and A9 drives the
// protocol DES from the store's placement events, this harness runs
// the actual distributed protocol (per-snode LPDR replicas,
// Prepare/Transfer/Ack/Commit on the DES) to convergence, audits the
// converged state against the model invariants and replica
// consistency, and reports makespan / messages / concurrency across
// cluster sizes and Vmin - the paper's parallelism claims measured on
// a real protocol execution rather than a model.
//
// Shares the harness conventions: --runs/--vnodes/--seed, --csv=DIR
// (writes abl6.csv: makespan and messages per Vmin over the snodes
// axis), --chart=off, --checks=off.
//
// The closing section widens message-level coverage from the DHT
// pair to all seven schemes: each scheme's recorded churn log is
// executed message by message through a clean cluster::FaultPlan and
// must reproduce its own priced schedule exactly (messages and
// makespan) - the same executor abl11 then runs under faults.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/distributed.hpp"
#include "common/table.hpp"
#include "kv/store.hpp"
#include "sim/protocol_cost.hpp"
#include "support/figure.hpp"
#include "support/schemes.hpp"

using cobalt::placement::ReplicationSpec;
using cobalt::placement::SpreadPolicy;

int main(int argc, char** argv) {
  using cobalt::bench::FigureHarness;
  using cobalt::bench::Series;
  using cobalt::cluster::DistributedDht;
  using cobalt::cluster::RunStats;

  FigureHarness fig(argc, argv, "abl6",
                    "Ablation A6: distributed protocol execution "
                    "(message-level DES)",
                    /*default_runs=*/1, /*default_steps=*/512);
  fig.print_banner();

  const std::vector<std::uint64_t> cluster_sizes =
      fig.args().get_uint_list("snodes", {8, 32});
  const std::vector<std::uint64_t> vmins =
      fig.args().get_uint_list("vmin", {8, 32, 128});
  const std::uint64_t pmin = fig.args().get_uint("pmin", 32);

  cobalt::TextTable table({"snodes", "Vmin", "makespan (ms)", "messages",
                           "msgs/creation", "peak concurrency",
                           "groups", "sigma(Qv) %"});

  double makespan_small_vmin = 0.0;
  double makespan_large_vmin = 0.0;

  // CSV/chart series: one makespan and one message curve per Vmin over
  // the snodes axis (the same flag conventions as every other harness;
  // previously abl6 accepted --csv/--chart but silently ignored them).
  std::vector<double> xs;
  std::vector<Series> makespan_series;
  std::vector<Series> message_series;
  for (const std::uint64_t vmin : vmins) {
    makespan_series.push_back(
        Series{"Vmin=" + std::to_string(vmin) + " makespan (ms)", {}});
    message_series.push_back(
        Series{"Vmin=" + std::to_string(vmin) + " messages", {}});
  }

  for (const std::uint64_t snodes : cluster_sizes) {
    xs.push_back(static_cast<double>(snodes));
    for (std::size_t v = 0; v < vmins.size(); ++v) {
      const std::uint64_t vmin = vmins[v];
      cobalt::dht::Config config;
      config.pmin = pmin;
      config.vmin = vmin;
      config.seed = fig.seed();
      DistributedDht dht(config, snodes);
      for (std::size_t c = 0; c < fig.steps(); ++c) {
        dht.submit_create(static_cast<cobalt::dht::SNodeId>(c % snodes));
      }
      const RunStats stats = dht.run();
      dht.audit();  // throws on any inconsistency

      table.add_row(
          {std::to_string(snodes), std::to_string(vmin),
           cobalt::format_fixed(stats.makespan_us / 1000.0, 2),
           std::to_string(stats.messages),
           cobalt::format_fixed(static_cast<double>(stats.messages) /
                                    static_cast<double>(fig.steps()),
                                1),
           cobalt::format_fixed(stats.max_group_concurrency, 1),
           std::to_string(dht.group_count()),
           cobalt::format_fixed(dht.sigma_qv() * 100.0, 2)});
      makespan_series[v].y.push_back(stats.makespan_us / 1000.0);
      message_series[v].y.push_back(static_cast<double>(stats.messages));

      if (snodes == cluster_sizes.back()) {
        if (vmin == vmins.front()) makespan_small_vmin = stats.makespan_us;
        if (vmin == vmins.back()) makespan_large_vmin = stats.makespan_us;
      }
    }
  }

  std::cout << table.render();
  fig.print_chart(xs, makespan_series, "cluster snodes", "makespan (ms)");
  {
    std::vector<Series> csv_series = makespan_series;
    csv_series.insert(csv_series.end(), message_series.begin(),
                      message_series.end());
    fig.write_csv(xs, csv_series, "snodes");
  }
  FigureHarness::note(
      "every converged state passed the audit: partitions tile R_h, all "
      "LPDR replicas agree, and L1-L2 / G1'-G4' hold");

  fig.check(makespan_small_vmin < makespan_large_vmin,
            "smaller groups finish sooner (more concurrent rounds): " +
                cobalt::format_fixed(makespan_small_vmin / 1000.0, 1) +
                "ms < " +
                cobalt::format_fixed(makespan_large_vmin / 1000.0, 1) + "ms");

  // --- message-level execution across all seven schemes --------------
  // The sections above execute the creation protocol of the DHT pair;
  // here every scheme's store-level churn log goes through the
  // message-level executor on a clean fault plan, which must
  // reproduce the priced DES schedule bit for bit (messages) and to
  // float tolerance (makespan).
  {
    const std::size_t population = 16;
    const std::size_t cycles = 8;
    std::vector<std::string> churn_keys;
    churn_keys.reserve(1500);
    for (std::size_t i = 0; i < 1500; ++i) {
      churn_keys.push_back("key-" + std::to_string(i));
    }
    cobalt::TextTable exec_table({"scheme", "rounds", "messages",
                                  "makespan (ms)", "exact"});
    const cobalt::cluster::FaultPlan clean_plan(fig.seed());

    // The comparison schemes at this bench's Pmin and smallest Vmin.
    const cobalt::bench::SchemeParams params{
        .pmin = pmin,
        .vmin = vmins.front(),
        .ch_points = static_cast<std::size_t>(pmin),
        .grid_bits = 14,
        .epsilon = 0.1,
        .selection = &fig.options()};
    cobalt::bench::for_each_scheme(params, [&](const auto& scheme) {
      const std::string& name = scheme.name;
      const std::uint64_t tag = 60 + scheme.index;
      auto store = scheme.store(cobalt::derive_seed(fig.seed(), tag, 0),
                                ReplicationSpec{2, SpreadPolicy::kNone});
      const auto out = cobalt::sim::run_faulty_protocol_churn(
          store, population, cycles, churn_keys,
          cobalt::derive_seed(fig.seed(), tag, 0), clean_plan);
      const bool exact =
          out.exec.retries == 0 && out.exec.aborted_rounds == 0 &&
          out.exec.messages_sent == out.clean_messages &&
          out.exec.messages_sent == out.clean_schedule.messages &&
          std::fabs(out.exec.makespan_us - out.clean_schedule.makespan_us) <=
              1e-6 * std::max(1.0, out.clean_schedule.makespan_us);
      exec_table.add_row(
          {name, std::to_string(out.exec.rounds),
           std::to_string(out.exec.messages_sent),
           cobalt::format_fixed(out.exec.makespan_us / 1000.0, 2),
           exact ? "yes" : "NO"});
      fig.check(exact, name +
                           ": message-level execution reproduces the "
                           "priced schedule exactly (" +
                           std::to_string(out.exec.messages_sent) +
                           " messages)");
    });
    std::cout << exec_table.render();
  }

  return fig.exit_code();
}
