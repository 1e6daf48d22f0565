// Ablation A3: protocol parallelism and scalability.
//
// The paper's motivation for the local approach (section 3): under the
// global approach every snode takes part in every creation, so
// consecutive creations serialize; under the local approach only the
// victim group's hosts synchronize, so creations in disjoint groups
// overlap. This harness records creation traces from real balancer
// runs and replays them through the cluster DES, reporting makespan,
// message counts and achieved concurrency.
//
// Expected shape: the local approach's makespan is a small fraction of
// the global approach's, the advantage widening with cluster size;
// smaller Vmin means smaller rounds and more overlap (the
// quality/parallelism trade-off of the paper's conclusion).

#include <iostream>
#include <string>
#include <vector>

#include "cluster/protocol_sim.hpp"
#include "common/table.hpp"
#include "support/figure.hpp"

int main(int argc, char** argv) {
  using cobalt::bench::FigureHarness;
  using cobalt::cluster::NetworkModel;
  using cobalt::cluster::CreationTrace;
  using cobalt::cluster::ScheduleOutcome;

  FigureHarness fig(argc, argv, "abl3",
                    "Ablation A3: creation-protocol makespan, global vs "
                    "local (DES)",
                    /*default_runs=*/1, /*default_steps=*/512);
  fig.print_banner();

  const std::vector<std::uint64_t> cluster_sizes =
      fig.args().get_uint_list("snodes", {8, 16, 32, 64});
  const std::vector<std::uint64_t> vmins =
      fig.args().get_uint_list("vmin", {8, 32, 128});
  const std::uint64_t pmin = fig.args().get_uint("pmin", 32);
  const std::size_t vnodes = fig.steps();

  NetworkModel network;
  // A round of the trace model is one vnode creation; its size is the
  // number of snodes holding a copy of the victim group's LPDR.
  const auto mean_round_size = [](const CreationTrace& trace) {
    double participants = 0.0;
    for (const auto& creation : trace.creations) {
      participants += static_cast<double>(creation.participants);
    }
    return participants / static_cast<double>(trace.creations.size());
  };
  cobalt::TextTable table({"snodes", "scheme", "makespan (ms)", "messages",
                           "mean round size", "concurrency", "depth"});

  std::vector<double> xs;
  std::vector<double> speedups;
  bool widening = true;
  double previous_speedup = 0.0;

  for (const std::uint64_t snodes : cluster_sizes) {
    cobalt::dht::Config config;
    config.pmin = pmin;
    config.vmin = 1;  // unused by the global trace
    config.seed = fig.seed();
    const auto global_trace = cobalt::cluster::record_global_trace(
        config, snodes, vnodes);
    const ScheduleOutcome global_result =
        cobalt::cluster::replay_trace(global_trace, network);
    table.add_row({std::to_string(snodes), "global",
                   cobalt::format_fixed(global_result.makespan_us / 1000.0, 2),
                   std::to_string(global_result.messages),
                   cobalt::format_fixed(mean_round_size(global_trace), 1),
                   cobalt::format_fixed(global_result.concurrency, 2),
                   std::to_string(global_result.serialized_round_depth)});

    ScheduleOutcome local_at_32{};
    for (const std::uint64_t vmin : vmins) {
      cobalt::dht::Config local_config;
      local_config.pmin = pmin;
      local_config.vmin = vmin;
      local_config.seed = fig.seed();
      const auto local_trace = cobalt::cluster::record_local_trace(
          local_config, snodes, vnodes);
      const ScheduleOutcome local_result =
          cobalt::cluster::replay_trace(local_trace, network);
      if (vmin == 32) local_at_32 = local_result;
      table.add_row(
          {std::to_string(snodes), "local Vmin=" + std::to_string(vmin),
           cobalt::format_fixed(local_result.makespan_us / 1000.0, 2),
           std::to_string(local_result.messages),
           cobalt::format_fixed(mean_round_size(local_trace), 1),
           cobalt::format_fixed(local_result.concurrency, 2),
           std::to_string(local_result.serialized_round_depth)});

      if (vmin == vmins.front()) {
        fig.check(local_result.makespan_us < global_result.makespan_us,
                  "local (Vmin=" + std::to_string(vmin) +
                      ") beats global makespan at " + std::to_string(snodes) +
                      " snodes");
      }
    }

    const double speedup =
        global_result.makespan_us / local_at_32.makespan_us;
    xs.push_back(static_cast<double>(snodes));
    speedups.push_back(speedup);
    if (speedup < previous_speedup) widening = false;
    previous_speedup = speedup;
  }

  std::cout << table.render();
  fig.print_chart(xs, {cobalt::bench::Series{"speedup (global/local@32)",
                                             speedups}},
                  "cluster snodes", "makespan speedup");
  fig.write_csv(xs, {cobalt::bench::Series{"speedup", speedups}}, "snodes");

  fig.check(widening,
            "the local approach's speedup widens with cluster size");
  fig.check(speedups.back() > 2.0,
            "speedup exceeds 2x at the largest cluster; measured " +
                cobalt::format_fixed(speedups.back(), 1) + "x");

  return fig.exit_code();
}
