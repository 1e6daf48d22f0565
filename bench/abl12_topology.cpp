// Ablation A12: topology-aware placement - rack/zone-spread replicas
// against real correlated-rack faults, priced on the tiered network.
//
// A8 crashes an adversarial "rack" of uniformly sampled nodes; this
// harness crashes an *actual* rack of a cluster::Topology (6 racks x 4
// nodes striped over 3 zones by default) and asks the question the
// SpreadPolicy API exists to answer: does spreading replicas across
// failure domains close the correlated-loss window, and what does the
// wider placement cost in cross-rack repair traffic and degraded-mode
// tail latency?
//
// Grid: all seven schemes x k in {2, 3} x spread in {none, rack,
// zone}. Each cell reports three views:
//
//   * loss       - run_correlated_failure (topology overload): keys
//                  whose whole replica set sat inside the crashed
//                  rack, the repair mass, and how much of that repair
//                  crossed rack/zone boundaries (x --key-bytes for
//                  bytes);
//   * protocol   - the crash's repair rounds priced on the tiered
//                  NetworkModel (cross-rack hops cost more), once with
//                  coordinator unicast and once with the
//                  multicast-tree fan-out, plus the cross-rack
//                  request/ack leg count;
//   * serving    - the request-level DES with the same rack partitioned
//                  away mid-stream, reads failing over in proximity
//                  order (attach_topology_failover_routers); the
//                  latency histogram splits at the partition start.
//
// Expected shape: with racks >= k, rack spread (and zone spread, since
// distinct zones imply distinct racks here) loses *zero* keys in every
// scheme, while spread=none pays a correlated-loss window at k=2; the
// price of spreading is repair traffic that must cross racks.
// The whole matrix is recomputed from the same seed and compared byte
// for byte - the determinism CHECK.

#include <cstdint>
#include <iostream>
#include <type_traits>
#include <utility>
#include <string>
#include <vector>

#include "cluster/fault_injection.hpp"
#include "cluster/network.hpp"
#include "cluster/protocol_driver.hpp"
#include "cluster/topology.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "kv/store.hpp"
#include "placement/replication_spec.hpp"
#include "sim/scenario.hpp"
#include "sim/serving.hpp"
#include "support/figure.hpp"
#include "support/schemes.hpp"

namespace {

using cobalt::bench::FigureHarness;
using cobalt::cluster::Topology;
using cobalt::placement::ReplicationSpec;
using cobalt::placement::SpreadPolicy;

constexpr SpreadPolicy kSpreads[] = {SpreadPolicy::kNone, SpreadPolicy::kRack,
                                     SpreadPolicy::kZone};
constexpr std::size_t kSpreadCount = sizeof(kSpreads) / sizeof(kSpreads[0]);
constexpr std::size_t kKs[] = {2, 3};
constexpr std::size_t kKCount = sizeof(kKs) / sizeof(kKs[0]);

/// Summed-over-runs outcome of one (scheme, k, spread) cell.
struct Cell {
  // Loss view (run_correlated_failure, topology overload).
  std::uint64_t keys_lost = 0;
  std::uint64_t keys_rereplicated = 0;
  std::uint64_t cross_rack_keys = 0;
  std::uint64_t cross_zone_keys = 0;
  double sigma_after = 0.0;

  // Protocol view: the crash's repair rounds on the tiered network.
  double unicast_makespan_us = 0.0;
  double multicast_makespan_us = 0.0;
  std::uint64_t cross_rack_msgs = 0;       ///< unicast request/ack legs
  std::uint64_t cross_rack_msgs_mcast = 0; ///< multicast-tree legs

  // Serving view: rack partitioned away mid-stream.
  std::uint64_t issued_before = 0;
  std::uint64_t failed_before = 0;
  std::uint64_t issued_after = 0;
  std::uint64_t failed_after = 0;
  double p99_before_us = 0.0;
  double p99_after_us = 0.0;

  [[nodiscard]] double availability_before() const {
    return issued_before == 0
               ? 1.0
               : 1.0 - static_cast<double>(failed_before) /
                           static_cast<double>(issued_before);
  }
  [[nodiscard]] double availability_after() const {
    return issued_after == 0
               ? 1.0
               : 1.0 - static_cast<double>(failed_after) /
                           static_cast<double>(issued_after);
  }
};

std::string join_csv(const std::vector<std::string>& fields) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += ',';
    line += fields[i];
  }
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  FigureHarness fig(argc, argv, "abl12",
                    "Ablation A12: topology-aware placement (all seven "
                    "schemes x k in {2,3} x spread in {none,rack,zone}, "
                    "rack crash + rack partition)",
                    /*default_runs=*/1, /*default_steps=*/24);
  fig.print_banner();

  const std::size_t racks = fig.args().get_uint("racks", 6);
  const std::size_t rack_nodes = fig.args().get_uint("rack-nodes", 4);
  const std::size_t zones = fig.args().get_uint("zones", 3);
  const std::size_t population = racks * rack_nodes;
  const std::size_t key_count = fig.args().get_uint("keys", 3000);
  const std::uint64_t key_bytes = fig.args().get_uint("key-bytes", 4096);
  const std::size_t requests = fig.args().get_uint("requests", 6000);
  const double service_us = fig.args().get_double("service", 50.0);
  const double util = fig.args().get_double("util", 0.6);
  const auto params = cobalt::bench::SchemeParams::from_flags(fig, 8);
  const std::string csv_dir =
      fig.options().csv_enabled() ? fig.options().csv_dir() : "off";

  const Topology topo = Topology::uniform(racks, rack_nodes, zones);
  // The crashed / partitioned rack, derived from the seed alone so the
  // rack-spread zero-loss claim is not overfit to one rack position.
  const auto victim_rack = static_cast<Topology::RackId>(
      cobalt::derive_seed(fig.seed(), 0x12u, 0) % racks);

  // Tiered pricing: a cross-rack hop costs 4x an intra-rack hop, a
  // cross-zone hop 10x; per-key transfer scales the same way.
  cobalt::cluster::NetworkModel net;
  net.cross_rack_latency_us = 4.0 * net.one_hop_latency_us;
  net.cross_zone_latency_us = 10.0 * net.one_hop_latency_us;
  net.cross_rack_per_key_us = 4.0 * net.per_key_transfer_us;
  net.cross_zone_per_key_us = 10.0 * net.per_key_transfer_us;

  // Serving: open Poisson at `util`, the rack partitioned away at
  // 35-65% of the expected stream.
  const double rate_rps =
      util * static_cast<double>(population) * 1e6 / service_us;
  const double stream_us = static_cast<double>(requests) / rate_rps * 1e6;
  const double fault_start = 0.35 * stream_us;
  const double fault_end = 0.65 * stream_us;

  std::vector<std::string> keys;
  keys.reserve(key_count);
  for (std::size_t i = 0; i < key_count; ++i) {
    keys.push_back("key-" + std::to_string(i));
  }

  cobalt::sim::ServingSpec spec;
  spec.workload.key_count = key_count;
  spec.requests = requests;
  spec.arrivals = cobalt::sim::ArrivalProcess::kOpenPoisson;
  spec.arrival_rate_rps = rate_rps;
  spec.service_time_us = service_us;
  spec.write_fraction = 0.2;
  spec.write_deadline_us = 1000.0;

  /// The crash's repair rounds recorded through a ProtocolDriver and
  /// priced on the tiered model; returns {makespan_us, cross-rack
  /// request/ack legs} for one fan-out discipline.
  const auto priced_repair = [&](const auto& scheme, std::uint64_t seed,
                                 const ReplicationSpec& rspec,
                                 bool multicast) {
    auto store = scheme.store(seed, rspec);
    for (std::size_t n = 0; n < population; ++n) store.add_node();
    store.set_topology(&topo);
    for (const std::string& key : keys) store.put(key, "v");

    using Driver = cobalt::cluster::ProtocolDriver<
        typename std::decay_t<decltype(scheme)>::BackendType>;
    typename Driver::Options opts;
    opts.network = net;
    opts.topology = &topo;
    opts.multicast_repair = multicast;
    Driver driver(store, opts);

    std::vector<cobalt::placement::NodeId> victims;
    for (const auto node : topo.nodes_in_rack(victim_rack)) {
      if (store.backend().is_live(node)) victims.push_back(node);
    }
    (void)store.fail_nodes(victims);

    std::uint64_t cross_legs = 0;
    for (const auto& round : driver.recorded()) {
      cross_legs += static_cast<std::uint64_t>(
          net.cross_rack_messages(topo, round.participants, multicast));
    }
    return std::pair<double, std::uint64_t>(driver.run().makespan_us,
                                            cross_legs);
  };

  // One (scheme, k, spread) cell, summed over --runs.
  const auto run_cell = [&](const auto& scheme, std::uint64_t tag,
                            std::size_t k, SpreadPolicy spread) {
    const ReplicationSpec rspec{k, spread};
    Cell cell;
    for (std::size_t run = 0; run < fig.runs(); ++run) {
      const std::uint64_t seed = cobalt::derive_seed(fig.seed(), tag, run);

      // Loss view.
      auto crash_store = scheme.store(seed, rspec);
      const auto outcome = cobalt::sim::run_correlated_failure(
          crash_store, population, topo, victim_rack, keys);
      cell.keys_lost += outcome.keys_lost;
      cell.keys_rereplicated += outcome.keys_rereplicated;
      cell.cross_rack_keys += outcome.keys_rereplicated_cross_rack;
      cell.cross_zone_keys += outcome.keys_rereplicated_cross_zone;
      cell.sigma_after += outcome.sigma_after;

      // Protocol view: same placement (same seed), both fan-outs.
      const auto unicast = priced_repair(scheme, seed, rspec, false);
      const auto mcast = priced_repair(scheme, seed, rspec, true);
      cell.unicast_makespan_us += unicast.first;
      cell.multicast_makespan_us += mcast.first;
      cell.cross_rack_msgs += unicast.second;
      cell.cross_rack_msgs_mcast += mcast.second;

      // Serving view: the same rack partitioned away mid-stream,
      // reads failing over in proximity order.
      auto serve_store =
          scheme.store(cobalt::derive_seed(seed, 0x5Eu, 0), rspec);
      for (std::size_t n = 0; n < population; ++n) serve_store.add_node();
      serve_store.set_topology(&topo);
      cobalt::cluster::FaultPlan plan(seed);
      plan.partition_rack(topo, victim_rack, fault_start, fault_end);
      const auto serving = cobalt::sim::run_faulty_serving(
          serve_store, spec, topo, plan, fault_start,
          cobalt::derive_seed(seed, 0x5Eu, 1));
      cell.issued_before += serving.issued_before;
      cell.failed_before += serving.failed_before;
      cell.issued_after += serving.issued_after;
      cell.failed_after += serving.failed_after;
      if (serving.latency_before.count() > 0) {
        cell.p99_before_us += serving.latency_before.percentile(0.99);
      }
      if (serving.latency_after.count() > 0) {
        cell.p99_after_us += serving.latency_after.percentile(0.99);
      }
    }
    const double n = static_cast<double>(fig.runs());
    cell.sigma_after /= n;
    cell.p99_before_us /= n;
    cell.p99_after_us /= n;
    return cell;
  };

  const auto csv_fields = [&](const std::string& scheme, std::size_t k,
                              SpreadPolicy spread, const Cell& c) {
    return std::vector<std::string>{
        scheme,
        std::to_string(k),
        cobalt::placement::spread_policy_name(spread),
        std::to_string(c.keys_lost),
        std::to_string(c.keys_rereplicated),
        std::to_string(c.cross_rack_keys),
        std::to_string(c.cross_rack_keys * key_bytes),
        std::to_string(c.cross_zone_keys),
        cobalt::format_fixed(c.sigma_after, 4),
        cobalt::format_fixed(c.unicast_makespan_us / 1000.0, 3),
        cobalt::format_fixed(c.multicast_makespan_us / 1000.0, 3),
        std::to_string(c.cross_rack_msgs),
        std::to_string(c.cross_rack_msgs_mcast),
        cobalt::format_fixed(c.availability_before(), 6),
        cobalt::format_fixed(c.availability_after(), 6),
        cobalt::format_fixed(c.p99_before_us, 2),
        cobalt::format_fixed(c.p99_after_us, 2),
    };
  };

  struct SchemeCells {
    std::string name;
    // Indexed [k][spread] over kKs x kSpreads.
    std::vector<std::vector<Cell>> cells;
  };

  // The whole matrix as a pure function of the seed: computed once for
  // the report, then recomputed for the byte-stability check.
  const auto run_matrix = [&] {
    std::vector<SchemeCells> matrix;
    cobalt::bench::for_each_scheme(params, [&](const auto& scheme) {
      const std::uint64_t tag = 120 + scheme.index;
      SchemeCells& row = matrix.emplace_back(SchemeCells{scheme.name, {}});
      for (std::size_t ki = 0; ki < kKCount; ++ki) {
        row.cells.emplace_back();
        for (std::size_t s = 0; s < kSpreadCount; ++s) {
          row.cells.back().push_back(run_cell(scheme,
                                              tag * 8 + ki * kSpreadCount + s,
                                              kKs[ki], kSpreads[s]));
        }
      }
    });
    return matrix;
  };

  const std::vector<SchemeCells> matrix = run_matrix();

  const std::vector<std::string> header = {
      "scheme",           "k",
      "spread",           "keys_lost",
      "keys_rereplicated", "cross_rack_keys",
      "cross_rack_bytes", "cross_zone_keys",
      "sigma_after",      "unicast_makespan_ms",
      "multicast_makespan_ms", "cross_rack_msgs",
      "cross_rack_msgs_mcast", "avail_before",
      "avail_after",      "p99_before_us",
      "p99_after_us"};

  std::vector<std::string> lines;
  cobalt::TextTable table({"cell", "keys lost", "re-repl", "cross-rack keys",
                           "cross-rack MB", "repair (ms)", "mcast (ms)",
                           "avail after", "p99 after (us)"});
  for (const auto& scheme : matrix) {
    for (std::size_t ki = 0; ki < kKCount; ++ki) {
      for (std::size_t s = 0; s < kSpreadCount; ++s) {
        const Cell& cell = scheme.cells[ki][s];
        lines.push_back(
            join_csv(csv_fields(scheme.name, kKs[ki], kSpreads[s], cell)));
        table.add_row(
            {scheme.name + " k=" + std::to_string(kKs[ki]) + " " +
                 cobalt::placement::spread_policy_name(kSpreads[s]),
             std::to_string(cell.keys_lost),
             std::to_string(cell.keys_rereplicated),
             std::to_string(cell.cross_rack_keys),
             cobalt::format_fixed(
                 static_cast<double>(cell.cross_rack_keys * key_bytes) / 1e6,
                 2),
             cobalt::format_fixed(cell.unicast_makespan_us / 1000.0, 2),
             cobalt::format_fixed(cell.multicast_makespan_us / 1000.0, 2),
             cobalt::format_fixed(cell.availability_after(), 4),
             cobalt::format_fixed(cell.p99_after_us, 2)});
      }
    }
  }
  std::cout << table.render();

  if (csv_dir != "off") {
    cobalt::CsvWriter csv(csv_dir + "/abl12.csv");
    csv.write_row(header);
    for (const auto& scheme : matrix) {
      for (std::size_t ki = 0; ki < kKCount; ++ki) {
        for (std::size_t s = 0; s < kSpreadCount; ++s) {
          csv.write_row(csv_fields(scheme.name, kKs[ki], kSpreads[s],
                                   scheme.cells[ki][s]));
        }
      }
    }
    csv.close();
    std::cout << "csv: " << csv.path() << "\n";
  }

  // --- checks --------------------------------------------------------
  for (const auto& scheme : matrix) {
    for (std::size_t ki = 0; ki < kKCount; ++ki) {
      const Cell& none = scheme.cells[ki][0];
      const Cell& rack = scheme.cells[ki][1];
      const Cell& zone = scheme.cells[ki][2];
      const std::string label =
          scheme.name + " k=" + std::to_string(kKs[ki]);

      // The tentpole claim: with racks >= k, rack spread leaves no key
      // with its whole replica set inside one rack - the crash loses
      // nothing. Zone spread implies rack spread here (distinct zones
      // are distinct racks), so it closes the window too.
      fig.check(rack.keys_lost == 0,
                label + " rack-spread: rack crash loses zero keys");
      fig.check(zone.keys_lost == 0,
                label + " zone-spread: rack crash loses zero keys");
      // Spreading is not free: the repair after the crash must pull
      // copies across rack boundaries.
      fig.check(rack.keys_rereplicated > 0 && rack.cross_rack_keys > 0,
                label + " rack-spread: repair crosses racks (" +
                    std::to_string(rack.cross_rack_keys) + " keys, " +
                    std::to_string(rack.cross_rack_keys * key_bytes) +
                    " bytes)");
      // The multicast tree never pays more cross-rack request/ack legs
      // than unicast (one leg per distinct remote rack vs one per
      // remote participant).
      fig.check(none.cross_rack_msgs_mcast <= none.cross_rack_msgs &&
                    rack.cross_rack_msgs_mcast <= rack.cross_rack_msgs &&
                    zone.cross_rack_msgs_mcast <= zone.cross_rack_msgs,
                label + ": multicast fan-out needs no more cross-rack legs "
                        "than unicast");
      // Both phases of every serving run saw traffic and the partition
      // phase recorded a populated tail.
      fig.check(none.issued_after > 0 && rack.issued_after > 0 &&
                    zone.issued_after > 0 && rack.p99_after_us > 0.0,
                label + ": rack-partition p99 column is populated");
      fig.check(none.failed_before == 0 && rack.failed_before == 0 &&
                    zone.failed_before == 0,
                label + ": availability is exactly 1 before the partition");
    }
    // Without spreading, the crash finds co-located replica sets at
    // k=2 (the A8 loss window, now on a real rack).
    fig.check(scheme.cells[0][0].keys_lost > 0,
              scheme.name +
                  " k=2 none: rack crash loses keys without spread (" +
                  std::to_string(scheme.cells[0][0].keys_lost) + ")");
  }

  // Byte-stability: the whole matrix recomputed from the same seed
  // must reproduce every CSV row byte for byte.
  const std::vector<SchemeCells> replay = run_matrix();
  bool identical = replay.size() == matrix.size();
  std::size_t line_index = 0;
  for (const auto& scheme : replay) {
    for (std::size_t ki = 0; ki < kKCount && identical; ++ki) {
      for (std::size_t s = 0; s < kSpreadCount && identical; ++s) {
        identical = line_index < lines.size() &&
                    join_csv(csv_fields(scheme.name, kKs[ki], kSpreads[s],
                                        scheme.cells[ki][s])) ==
                        lines[line_index];
        ++line_index;
      }
    }
  }
  fig.check(identical && line_index == lines.size(),
            "same seed reproduces every CSV row byte for byte");

  FigureHarness::note(
      "spread=none and an attached topology still report cross-rack "
      "repair traffic: the columns price what the flat walk already "
      "pays, the spread rows what the guarantee adds on top");

  return fig.exit_code();
}
