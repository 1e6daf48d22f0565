// Ablation A10: request-level serving latency - the scheme-vs-scheme
// tail-latency matrix.
//
// The paper scores placement schemes by movement and protocol cost
// under uniform access; this harness asks the production question the
// ROADMAP's north star implies: under a hotspot request stream with
// per-node queueing, which scheme holds the p99? Every (scheme, k,
// read-policy) cell preloads one store, drives the same Poisson
// hotspot stream through per-node FIFO queues (sim::ServingSim) and
// reports p50/p99/p999 plus per-node load.
//
// Expected shape at full scale: per-node utilization is share-
// proportional, so the loosest-balanced scheme (plain CH) saturates
// its largest ring share first and its p99 explodes, while bounded
// CH's (1+eps) cap keeps every node below the knee - the load cap
// finally earns its keep as a tail-latency win, not a quota table.
// Replica read-balancing (round_robin / least_loaded) flattens k > 1
// tails; and in the gray-failure scenario (one slow node that still
// answers) the queue-depth-probing least_loaded policy routes around
// the backlog that primary reads are stuck behind.
//
// Scenarios beyond the steady matrix: a flash-crowd join (nodes join
// mid-stream, relocation/repair batches priced into the same queues
// via sim::RepairTrafficSink) and a hotspot-shift storm (the hot set
// rotates onto different keys mid-stream).

#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "kv/store.hpp"
#include "sim/serving.hpp"
#include "support/figure.hpp"

namespace {

using cobalt::placement::ReplicationSpec;
using cobalt::placement::SpreadPolicy;

using cobalt::bench::FigureHarness;
using cobalt::bench::Series;

constexpr std::size_t kMaxReplication = 3;

struct PolicyChoice {
  cobalt::kv::ReadPolicy policy;
  const char* name;
};

constexpr PolicyChoice kPolicies[] = {
    {cobalt::kv::ReadPolicy::kPrimary, "primary"},
    {cobalt::kv::ReadPolicy::kRoundRobin, "round_robin"},
    {cobalt::kv::ReadPolicy::kLeastLoaded, "least_loaded"},
};

/// Averaged outcome of one cell (last run's per-node stats kept for
/// the node CSV).
struct CellOutcome {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double mean = 0.0;
  double completed = 0.0;
  double failed = 0.0;
  double max_queue = 0.0;
  double p99_before = 0.0;  ///< scenario cells: pre/post phase mark
  double p99_after = 0.0;
  double repair_work_us = 0.0;  ///< flash crowd only
  bool conserved = true;        ///< completed + failed == issued, every run
  std::vector<cobalt::sim::NodeServingStats> nodes;
};

void accumulate(CellOutcome& cell, const cobalt::sim::ServingOutcome& out,
                std::uint64_t expected_requests) {
  cell.p50 += out.p50();
  cell.p99 += out.p99();
  cell.p999 += out.p999();
  cell.mean += out.latency.mean();
  cell.completed += static_cast<double>(out.completed);
  cell.failed += static_cast<double>(out.failed);
  std::size_t max_queue = 0;
  for (const auto& node : out.nodes) {
    max_queue = std::max(max_queue, node.max_queue_depth);
  }
  cell.max_queue += static_cast<double>(max_queue);
  cell.conserved = cell.conserved && out.issued == expected_requests &&
                   out.completed + out.failed == out.issued;
  if (out.latency_before.count() > 0) {
    cell.p99_before += out.latency_before.percentile(0.99);
  }
  if (out.latency_after.count() > 0) {
    cell.p99_after += out.latency_after.percentile(0.99);
  }
  cell.nodes = out.nodes;
}

void average(CellOutcome& cell, std::size_t runs) {
  const double n = static_cast<double>(runs);
  cell.p50 /= n;
  cell.p99 /= n;
  cell.p999 /= n;
  cell.mean /= n;
  cell.completed /= n;
  cell.failed /= n;
  cell.max_queue /= n;
  cell.p99_before /= n;
  cell.p99_after /= n;
  cell.repair_work_us /= n;
}

}  // namespace

int main(int argc, char** argv) {
  FigureHarness fig(argc, argv, "abl10",
                    "Ablation A10: request-level serving latency under a "
                    "hotspot stream (all seven schemes, k = 1..3, three "
                    "read policies)",
                    /*default_runs=*/1, /*default_steps=*/24);
  fig.print_banner();

  const std::size_t population = fig.steps();
  const std::size_t key_count = fig.args().get_uint("keys", 4000);
  const std::size_t requests = fig.args().get_uint("requests", 30000);
  const double service_us = fig.args().get_double("service", 50.0);
  const double util = fig.args().get_double("util", 0.7);
  const double slowdown = fig.args().get_double("slow", 8.0);
  const std::size_t joins = fig.args().get_uint("joins", 4);
  const std::uint64_t pmin = fig.args().get_uint("pmin", 32);
  const std::uint64_t vmin = fig.args().get_uint("vmin", 4);
  const auto grid_bits =
      static_cast<unsigned>(fig.args().get_uint("grid-bits", 14));
  const double epsilon = fig.args().get_double("epsilon", 0.1);
  const std::string csv_dir =
      fig.options().csv_enabled() ? fig.options().csv_dir() : "off";

  // Mean utilization rho = rate x service / (nodes x 1): the matrix
  // runs hot (default 0.7) so a node whose share is ~1.4x the mean
  // crosses 1.0 and its queue departs from equilibrium - exactly the
  // regime where balance quality becomes a tail-latency cliff.
  const auto rate_for = [&](double rho) {
    return rho * static_cast<double>(population) * 1e6 / service_us;
  };

  const auto make_spec = [&](double rho) {
    cobalt::sim::ServingSpec spec;
    spec.workload.distribution = cobalt::sim::KeyDistribution::kHotspot;
    spec.workload.key_count = key_count;
    spec.workload.hot_key_fraction = 0.10;
    spec.workload.hot_access_fraction = 0.90;
    spec.requests = requests;
    spec.arrivals = cobalt::sim::ArrivalProcess::kOpenPoisson;
    spec.arrival_rate_rps = rate_for(rho);
    spec.service_time_us = service_us;
    spec.histogram_max_us = 50000.0;
    spec.histogram_buckets = 5000;
    return spec;
  };

  const auto local_factory = [&](std::uint64_t seed, std::size_t k) {
    cobalt::dht::Config config;
    config.pmin = pmin;
    config.vmin = vmin;
    config.seed = seed;
    return cobalt::kv::KvStore({config, 1},
                               ReplicationSpec{k, SpreadPolicy::kNone});
  };
  const auto global_factory = [&](std::uint64_t seed, std::size_t k) {
    cobalt::dht::Config config;
    config.pmin = pmin;
    config.vmin = 1;
    config.seed = seed;
    return cobalt::kv::GlobalKvStore({config, 1},
                                     ReplicationSpec{k, SpreadPolicy::kNone});
  };
  const auto ch_factory = [&](std::uint64_t seed, std::size_t k) {
    return cobalt::kv::ChKvStore({seed, static_cast<std::size_t>(pmin)},
                                 ReplicationSpec{k, SpreadPolicy::kNone});
  };
  const auto hrw_factory = [&](std::uint64_t seed, std::size_t k) {
    return cobalt::kv::HrwKvStore({seed, grid_bits},
                                  ReplicationSpec{k, SpreadPolicy::kNone});
  };
  const auto jump_factory = [&](std::uint64_t seed, std::size_t k) {
    return cobalt::kv::JumpKvStore({seed, grid_bits},
                                   ReplicationSpec{k, SpreadPolicy::kNone});
  };
  const auto maglev_factory = [&](std::uint64_t seed, std::size_t k) {
    return cobalt::kv::MaglevKvStore({seed, grid_bits},
                                     ReplicationSpec{k, SpreadPolicy::kNone});
  };
  const auto bounded_factory = [&](std::uint64_t seed, std::size_t k) {
    return cobalt::kv::BoundedChKvStore(
        {seed, static_cast<std::size_t>(pmin), epsilon, grid_bits},
        ReplicationSpec{k, SpreadPolicy::kNone});
  };

  std::optional<cobalt::CsvWriter> latency_csv;
  std::optional<cobalt::CsvWriter> nodes_csv;
  if (csv_dir != "off") {
    // Hyphenated so the artifact names cannot be mistaken for bench
    // names (scripts/check_docs.sh treats abl<N>_<suffix> as one).
    latency_csv.emplace(csv_dir + "/abl10-cells.csv");
    nodes_csv.emplace(csv_dir + "/abl10-nodes.csv");
    latency_csv->write_row({"scenario", "scheme", "k", "policy", "p50_us",
                            "p99_us", "p999_us", "mean_us", "completed",
                            "failed", "max_queue_depth"});
    nodes_csv->write_row({"scenario", "scheme", "k", "policy", "node",
                          "requests", "repair_jobs", "busy_us",
                          "max_queue_depth"});
  }

  const auto emit_cell = [&](const std::string& scenario,
                             const std::string& scheme, std::size_t k,
                             const std::string& policy,
                             const CellOutcome& cell) {
    if (latency_csv.has_value()) {
      latency_csv->write_row(
          {scenario, scheme, std::to_string(k), policy,
           cobalt::format_fixed(cell.p50, 2), cobalt::format_fixed(cell.p99, 2),
           cobalt::format_fixed(cell.p999, 2),
           cobalt::format_fixed(cell.mean, 2),
           cobalt::format_fixed(cell.completed, 0),
           cobalt::format_fixed(cell.failed, 0),
           cobalt::format_fixed(cell.max_queue, 0)});
    }
    if (nodes_csv.has_value() && scenario == "steady") {
      for (std::size_t n = 0; n < cell.nodes.size(); ++n) {
        const auto& stats = cell.nodes[n];
        nodes_csv->write_row({scenario, scheme, std::to_string(k), policy,
                              std::to_string(n),
                              std::to_string(stats.requests),
                              std::to_string(stats.repair_jobs),
                              cobalt::format_fixed(stats.busy_us, 1),
                              std::to_string(stats.max_queue_depth)});
      }
    }
  };

  bool all_conserved = true;

  // --- the steady matrix: scheme x k x policy ------------------------
  cobalt::TextTable matrix({"cell", "p50 (us)", "p99 (us)", "p999 (us)",
                            "mean (us)", "completed", "failed", "max queue"});
  // p99 per (scheme, policy) over k, for the chart/CSV and the checks.
  std::vector<Series> p99_series;
  // p99 of cell [scheme][policy][k-1].
  std::vector<std::vector<std::vector<double>>> matrix_p99;

  struct SchemeEntry {
    std::string name;
    std::uint64_t tag;
    std::function<CellOutcome(std::size_t k, std::size_t policy_index,
                              std::uint64_t variant, double rho,
                              const cobalt::sim::ServingSpec& spec)>
        run_cell;
  };

  // One generic cell runner per scheme: builds a fresh store, grows it
  // to the population, runs the requested scenario variant.
  //   variant 0 = steady, 1 = slow node, 2 = flash crowd, 3 = shift
  const auto scheme_runner = [&](auto factory, std::uint64_t tag) {
    return [&, factory, tag](std::size_t k, std::size_t policy_index,
                             std::uint64_t variant, double /*rho*/,
                             const cobalt::sim::ServingSpec& spec) {
      CellOutcome cell;
      for (std::size_t run = 0; run < fig.runs(); ++run) {
        const std::uint64_t seed = cobalt::derive_seed(
            fig.seed(), tag * 1000 + variant * 100 + k * 10 + policy_index,
            run);
        auto store = factory(seed, k);
        for (std::size_t n = 0; n < population; ++n) store.add_node(1.0);
        const auto policy = kPolicies[policy_index].policy;
        if (variant == 1) {
          accumulate(cell,
                     cobalt::sim::run_slow_node(store, spec, policy, seed,
                                                slowdown)
                         .serving,
                     spec.requests);
        } else if (variant == 2) {
          auto flash =
              cobalt::sim::run_flash_crowd(store, spec, policy, seed, joins);
          cell.repair_work_us += flash.repair_work_us;
          accumulate(cell, flash.serving, spec.requests);
        } else if (variant == 3) {
          accumulate(cell,
                     cobalt::sim::run_hotspot_shift(store, spec, policy, seed),
                     spec.requests);
        } else {
          accumulate(cell,
                     cobalt::sim::run_steady_serving(store, spec, policy,
                                                     seed),
                     spec.requests);
        }
      }
      average(cell, fig.runs());
      return cell;
    };
  };

  const std::vector<SchemeEntry> schemes = {
      {"local", 100, scheme_runner(local_factory, 100)},
      {"global", 101, scheme_runner(global_factory, 101)},
      {"ch", 102, scheme_runner(ch_factory, 102)},
      {"hrw", 103, scheme_runner(hrw_factory, 103)},
      {"jump", 104, scheme_runner(jump_factory, 104)},
      {"maglev", 105, scheme_runner(maglev_factory, 105)},
      {"bounded-ch", 106, scheme_runner(bounded_factory, 106)},
  };

  const cobalt::sim::ServingSpec steady_spec = make_spec(util);
  for (const SchemeEntry& scheme : schemes) {
    matrix_p99.emplace_back();
    for (std::size_t p = 0; p < 3; ++p) {
      matrix_p99.back().emplace_back();
      Series series{scheme.name + "/" + kPolicies[p].name + " p99 (us)", {}};
      bool p99_ordered = true;
      for (std::size_t k = 1; k <= kMaxReplication; ++k) {
        const CellOutcome cell =
            scheme.run_cell(k, p, /*variant=*/0, util, steady_spec);
        matrix.add_row({scheme.name + " k=" + std::to_string(k) + " " +
                            kPolicies[p].name,
                        cobalt::format_fixed(cell.p50, 1),
                        cobalt::format_fixed(cell.p99, 1),
                        cobalt::format_fixed(cell.p999, 1),
                        cobalt::format_fixed(cell.mean, 1),
                        cobalt::format_fixed(cell.completed, 0),
                        cobalt::format_fixed(cell.failed, 0),
                        cobalt::format_fixed(cell.max_queue, 0)});
        emit_cell("steady", scheme.name, k, kPolicies[p].name, cell);
        matrix_p99.back().back().push_back(cell.p99);
        series.y.push_back(cell.p99);
        all_conserved = all_conserved && cell.conserved;
        p99_ordered = p99_ordered && cell.p99 >= cell.p50;
      }
      p99_series.push_back(std::move(series));
      // Exact at any scale: percentile() is monotone in p on one
      // histogram, so the smoke run greps these as hard assertions.
      fig.check(p99_ordered, scheme.name + " " + kPolicies[p].name +
                                 ": p99 >= p50 at every k");
    }
  }
  std::cout << matrix.render();

  // --- gray failure: one slow node, primary vs least_loaded ----------
  const cobalt::sim::ServingSpec slow_spec = make_spec(0.5);
  cobalt::TextTable slow_table(
      {"scheme (k=3, slow node)", "policy", "p50 (us)", "p99 (us)",
       "max queue"});
  std::vector<double> slow_primary_p99;
  std::vector<double> slow_balanced_p99;
  for (const SchemeEntry& scheme : schemes) {
    for (const std::size_t p : {std::size_t{0}, std::size_t{2}}) {
      const CellOutcome cell =
          scheme.run_cell(kMaxReplication, p, /*variant=*/1, 0.5, slow_spec);
      slow_table.add_row({scheme.name + " slow", kPolicies[p].name,
                          cobalt::format_fixed(cell.p50, 1),
                          cobalt::format_fixed(cell.p99, 1),
                          cobalt::format_fixed(cell.max_queue, 0)});
      emit_cell("slow_node", scheme.name, kMaxReplication, kPolicies[p].name,
                cell);
      all_conserved = all_conserved && cell.conserved;
      (p == 0 ? slow_primary_p99 : slow_balanced_p99).push_back(cell.p99);
    }
  }
  std::cout << slow_table.render();

  // --- flash crowd: joins mid-stream, repair in the queues -----------
  const cobalt::sim::ServingSpec flash_spec = [&] {
    auto spec = make_spec(0.5);
    spec.write_fraction = 0.1;
    return spec;
  }();
  cobalt::TextTable flash_table({"scheme (k=3, +" + std::to_string(joins) +
                                     " nodes mid-run)",
                                 "p99 before (us)", "p99 after (us)",
                                 "repair work (us)"});
  std::vector<double> flash_repair_work;
  for (const SchemeEntry& scheme : schemes) {
    const CellOutcome cell =
        scheme.run_cell(kMaxReplication, /*policy=*/2, /*variant=*/2, 0.5,
                        flash_spec);
    flash_table.add_row({scheme.name + " flash",
                         cobalt::format_fixed(cell.p99_before, 1),
                         cobalt::format_fixed(cell.p99_after, 1),
                         cobalt::format_fixed(cell.repair_work_us, 0)});
    emit_cell("flash_crowd", scheme.name, kMaxReplication, "least_loaded",
              cell);
    all_conserved = all_conserved && cell.conserved;
    flash_repair_work.push_back(cell.repair_work_us);
  }
  std::cout << flash_table.render();

  // --- hotspot shift: the hot set rotates mid-stream -----------------
  const cobalt::sim::ServingSpec shift_spec = make_spec(0.6);
  cobalt::TextTable shift_table({"scheme (k=1, hot set rotates)",
                                 "p99 before (us)", "p99 after (us)"});
  for (const SchemeEntry& scheme : schemes) {
    const CellOutcome cell =
        scheme.run_cell(/*k=*/1, /*policy=*/0, /*variant=*/3, 0.6, shift_spec);
    shift_table.add_row({scheme.name + " shift",
                         cobalt::format_fixed(cell.p99_before, 1),
                         cobalt::format_fixed(cell.p99_after, 1)});
    emit_cell("hotspot_shift", scheme.name, 1, "primary", cell);
    all_conserved = all_conserved && cell.conserved;
  }
  std::cout << shift_table.render();

  std::vector<double> ks;
  for (std::size_t k = 1; k <= kMaxReplication; ++k) {
    ks.push_back(static_cast<double>(k));
  }
  fig.write_csv(ks, p99_series, "replicas");
  if (latency_csv.has_value()) {
    std::cout << "cell CSV: " << latency_csv->path()
              << "\nper-node CSV: " << nodes_csv->path() << "\n";
  }

  // Exact at any scale: open-loop arrivals issue exactly `requests`
  // and every request either completes or fails.
  fig.check(all_conserved,
            "all cells conserve the request stream "
            "(completed + failed == issued)");

  // The headline: under the hotspot stream at k=1, plain CH's largest
  // ring share crosses saturation while bounded CH's (1+eps) cap keeps
  // every node under the knee.
  const double ch_p99 = matrix_p99[2][0][0];
  const double bounded_p99 = matrix_p99[6][0][0];
  fig.check(bounded_p99 < ch_p99,
            "bounded-ch: the (1+eps) load cap cuts hotspot p99 below plain "
            "CH (" +
                cobalt::format_fixed(bounded_p99, 0) + "us < " +
                cobalt::format_fixed(ch_p99, 0) + "us)");

  // Gray failure: queue-depth-probing reads route around the slow
  // node; primary reads are stuck behind its backlog.
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    fig.check(slow_balanced_p99[s] < slow_primary_p99[s],
              schemes[s].name +
                  ": least_loaded routes around the slow node (p99 " +
                  cobalt::format_fixed(slow_balanced_p99[s], 0) + "us < " +
                  cobalt::format_fixed(slow_primary_p99[s], 0) + "us)");
  }

  // Every scheme relocates data on a join, so the flash crowd always
  // prices repair work into the serving queues.
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    fig.check(flash_repair_work[s] > 0.0,
              schemes[s].name +
                  ": the flash-crowd join put repair traffic in the "
                  "serving queues (" +
                  cobalt::format_fixed(flash_repair_work[s], 0) + "us)");
  }

  FigureHarness::note(
      "latency is queueing + service only (no propagation term): the cells "
      "differ purely by how evenly each scheme spreads the hot mass and how "
      "each read policy uses the replica set");

  return fig.exit_code();
}
