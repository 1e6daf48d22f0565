// Ablation A11: fault tolerance - the recorded protocol executed
// message by message through lossy links, partitions and crashes.
//
// A9 prices the store's recorded rounds on the DES; this harness
// *executes* the same rounds as individual request/ack/payload
// messages through a seeded cluster::FaultPlan (per-link drop and
// duplication, crash windows, partition episodes). Lost messages
// retry under capped exponential backoff; a round that exhausts its
// attempts aborts and is re-planned as fresh repair work. The priced
// schedule of the identical round log is kept as the clean reference,
// so every cell reports repair-completion inflation and message
// inflation against an exact baseline - on a clean plan the executor
// reproduces the priced makespan and message count bit for bit.
//
// The serving view runs the same fault windows through the
// request-level DES (sim::run_faulty_serving): crashed or partitioned
// replicas reject admission, reads fail over through the key's full
// replica set, writes queue against a deadline, and the latency
// histogram splits at the fault-window start so availability and p99
// are reported per phase. Link loss gates protocol messages, not
// request admission, so the loss profiles' serving columns equal
// clean's by construction.
//
// Grid: all seven schemes x five fault profiles (clean / 1% loss /
// 10% loss / minority partition / crash during the churn window) at
// k = 2. The whole matrix is recomputed from the same seed and every
// CSV row compared byte for byte - the determinism CHECK.

#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/fault_injection.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "kv/store.hpp"
#include "sim/protocol_cost.hpp"
#include "sim/serving.hpp"
#include "support/figure.hpp"
#include "support/schemes.hpp"

namespace {

using cobalt::placement::ReplicationSpec;
using cobalt::placement::SpreadPolicy;

using cobalt::bench::FigureHarness;

/// One fault profile of the grid. Drop/duplicate apply to every link;
/// the partition and crash windows are placed inside the churn phase
/// (protocol view) and at 35-65% of the expected stream (serving
/// view).
struct Profile {
  const char* name;
  double drop;
  double duplicate;
  bool partition;
  bool crash;
};

constexpr Profile kProfiles[] = {
    {"clean", 0.0, 0.0, false, false},
    {"loss1", 0.01, 0.005, false, false},
    {"loss10", 0.10, 0.005, false, false},
    {"partition", 0.0, 0.0, true, false},
    {"crash", 0.0, 0.0, false, true},
};
constexpr std::size_t kProfileCount = sizeof(kProfiles) / sizeof(kProfiles[0]);

/// Summed-over-runs outcome of one (scheme, profile) cell. Counters
/// are summed (never averaged) so the clean-profile equalities stay
/// exact for any --runs.
struct Cell {
  // Protocol view: message-level execution vs the priced schedule.
  std::uint64_t rounds = 0;
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t replanned = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t retries = 0;
  std::uint64_t clean_messages = 0;
  std::uint64_t sched_messages = 0;  ///< priced schedule's message count
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t keys_replanned = 0;
  std::uint64_t keys_abandoned = 0;
  double clean_makespan_us = 0.0;
  double makespan_us = 0.0;

  // Serving view: availability and tail latency per phase.
  std::uint64_t issued = 0;
  std::uint64_t failed = 0;
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
  [[nodiscard]] double inflation() const {
    return clean_makespan_us > 0.0 ? makespan_us / clean_makespan_us : 1.0;
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
  FigureHarness fig(argc, argv, "abl11",
                    "Ablation A11: message-level fault injection (all seven "
                    "schemes x five fault profiles, k = 2)",
                    /*default_runs=*/1, /*default_steps=*/24);
  fig.print_banner();

  const std::size_t population = fig.steps();
  const std::size_t cycles = fig.args().get_uint("cycles", 12);
  const std::size_t key_count = fig.args().get_uint("keys", 3000);
  const std::size_t k = fig.args().get_uint("k", 2);
  const std::size_t requests = fig.args().get_uint("requests", 6000);
  const double service_us = fig.args().get_double("service", 50.0);
  const double util = fig.args().get_double("util", 0.6);
  const auto params = cobalt::bench::SchemeParams::from_flags(fig, 4);
  const std::string csv_dir =
      fig.options().csv_enabled() ? fig.options().csv_dir() : "off";

  // Protocol view: event e's rounds arrive at e * gap. drive_churn
  // records ~population growth events then 2 * cycles churn events, so
  // the churn phase spans roughly [population, population + 2*cycles)
  // * gap - the partition/crash windows below sit inside it.
  const double gap_us = fig.args().get_double("gap", 500.0);
  const double churn_start_us = static_cast<double>(population) * gap_us;
  const double proto_fault_start = churn_start_us;
  const double proto_fault_end =
      churn_start_us + static_cast<double>(cycles) * gap_us;

  // Serving view: open Poisson at `util`, fault window at 35-65% of
  // the expected stream duration.
  const double rate_rps =
      util * static_cast<double>(population) * 1e6 / service_us;
  const double stream_us = static_cast<double>(requests) / rate_rps * 1e6;
  const double serve_fault_start = 0.35 * stream_us;
  const double serve_fault_end = 0.65 * stream_us;

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
  // Writes may wait 1ms for a replica to come back; both fault
  // windows are much longer, so a write landing on a faulted replica
  // mid-window fails instead of queueing to recovery.
  spec.write_deadline_us = 1000.0;

  const auto protocol_plan = [&](const Profile& profile,
                                 std::uint64_t plan_seed) {
    cobalt::cluster::FaultPlan plan(plan_seed);
    if (profile.drop > 0.0 || profile.duplicate > 0.0) {
      cobalt::cluster::LinkFaults faults;
      faults.drop = profile.drop;
      faults.duplicate = profile.duplicate;
      plan.set_default_link(faults);
    }
    if (profile.partition) {
      plan.add_partition("minority", proto_fault_start, proto_fault_end,
                         {0, 1, 2, 3});
    }
    if (profile.crash) {
      plan.add_crash_window(2, proto_fault_start + 2.0 * gap_us,
                            proto_fault_end);
    }
    return plan;
  };

  const auto serving_plan = [&](const Profile& profile,
                                std::uint64_t plan_seed) {
    cobalt::cluster::FaultPlan plan(plan_seed);
    // Link loss gates protocol messages, not request admission: the
    // serving plan carries only the availability script.
    if (profile.partition) {
      plan.add_partition("minority", serve_fault_start, serve_fault_end,
                         {0, 1, 2});
    }
    if (profile.crash) {
      plan.add_crash_window(1, serve_fault_start, serve_fault_end);
    }
    return plan;
  };

  // One (scheme, profile) cell: the recorded churn executed message by
  // message, plus one faulted serving run, summed over --runs.
  const auto run_cell = [&](const auto& scheme, std::size_t profile_index) {
    const auto make = [&](std::uint64_t seed) {
      return scheme.store(seed, ReplicationSpec{k, SpreadPolicy::kNone});
    };
    const std::uint64_t tag = 110 + scheme.index;
    const Profile& profile = kProfiles[profile_index];
    Cell cell;
    for (std::size_t run = 0; run < fig.runs(); ++run) {
      // One churn seed and one plan seed per (scheme, run), shared by
      // every profile: all five profiles execute the *same* recorded
      // log, and the token-stable draws make loss10's dropped set a
      // superset of loss1's - the monotonicity checks compare like
      // with like.
      const std::uint64_t seed = cobalt::derive_seed(fig.seed(), tag, run);
      const std::uint64_t plan_seed =
          cobalt::derive_seed(fig.seed(), 0xFAu, run);

      auto churn_store = make(seed);
      const auto plan = protocol_plan(profile, plan_seed);
      const auto churn = cobalt::sim::run_faulty_protocol_churn(
          churn_store, population, cycles, keys, seed, plan, {}, gap_us);
      cell.rounds += static_cast<std::uint64_t>(churn.exec.rounds);
      cell.completed +=
          static_cast<std::uint64_t>(churn.exec.completed_rounds);
      cell.aborted += static_cast<std::uint64_t>(churn.exec.aborted_rounds);
      cell.replanned +=
          static_cast<std::uint64_t>(churn.exec.replanned_rounds);
      cell.abandoned +=
          static_cast<std::uint64_t>(churn.exec.abandoned_rounds);
      cell.retries += churn.exec.retries;
      cell.clean_messages += churn.clean_messages;
      cell.sched_messages +=
          static_cast<std::uint64_t>(churn.clean_schedule.messages);
      cell.messages_sent += churn.exec.messages_sent;
      cell.messages_dropped += churn.exec.messages_dropped;
      cell.duplicates += churn.exec.duplicates_delivered;
      cell.keys_replanned += churn.exec.payload_keys_replanned;
      cell.keys_abandoned += churn.exec.payload_keys_abandoned;
      cell.clean_makespan_us += churn.clean_schedule.makespan_us;
      cell.makespan_us += churn.exec.makespan_us;

      auto serve_store = make(cobalt::derive_seed(seed, 0x5Eu, 0));
      for (std::size_t n = 0; n < population; ++n) serve_store.add_node();
      const auto splan = serving_plan(profile, plan_seed);
      const auto serving = cobalt::sim::run_faulty_serving(
          serve_store, spec, splan, serve_fault_start,
          cobalt::derive_seed(seed, 0x5Eu, 1));
      cell.issued += serving.issued;
      cell.failed += serving.failed;
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
    cell.p99_before_us /= n;
    cell.p99_after_us /= n;
    return cell;
  };

  const auto csv_fields = [](const std::string& scheme, const Profile& p,
                             const Cell& c) {
    return std::vector<std::string>{
        scheme,
        p.name,
        std::to_string(c.rounds),
        std::to_string(c.completed),
        std::to_string(c.aborted),
        std::to_string(c.replanned),
        std::to_string(c.abandoned),
        std::to_string(c.retries),
        std::to_string(c.clean_messages),
        std::to_string(c.messages_sent),
        std::to_string(c.messages_dropped),
        std::to_string(c.duplicates),
        std::to_string(c.keys_replanned),
        std::to_string(c.keys_abandoned),
        cobalt::format_fixed(c.clean_makespan_us, 3),
        cobalt::format_fixed(c.makespan_us, 3),
        cobalt::format_fixed(c.inflation(), 4),
        std::to_string(c.issued),
        std::to_string(c.failed),
        cobalt::format_fixed(c.availability_before(), 6),
        cobalt::format_fixed(c.availability_after(), 6),
        cobalt::format_fixed(c.p99_before_us, 2),
        cobalt::format_fixed(c.p99_after_us, 2),
    };
  };

  struct SchemeCells {
    std::string name;
    std::vector<Cell> by_profile;
  };

  // The whole matrix as a pure function of the seed: computed once for
  // the report, then recomputed for the byte-stability check.
  const auto run_matrix = [&] {
    std::vector<SchemeCells> matrix;
    cobalt::bench::for_each_scheme(params, [&](const auto& scheme) {
      SchemeCells cells{scheme.name, {}};
      for (std::size_t p = 0; p < kProfileCount; ++p) {
        cells.by_profile.push_back(run_cell(scheme, p));
      }
      matrix.push_back(std::move(cells));
    });
    return matrix;
  };

  const std::vector<SchemeCells> matrix = run_matrix();

  const std::vector<std::string> header = {
      "scheme",          "profile",          "rounds",
      "completed",       "aborted",          "replanned",
      "abandoned",       "retries",          "clean_messages",
      "messages_sent",   "messages_dropped", "duplicates",
      "keys_replanned",  "keys_abandoned",   "clean_makespan_us",
      "makespan_us",     "inflation",        "issued",
      "failed",          "avail_before",     "avail_after",
      "p99_before_us",   "p99_after_us"};

  std::vector<std::string> lines;
  cobalt::TextTable table({"cell", "rounds", "retries", "aborted",
                           "abandoned", "msgs clean", "msgs sent",
                           "makespan (ms)", "inflation", "avail before",
                           "avail after"});
  for (const auto& scheme : matrix) {
    for (std::size_t p = 0; p < kProfileCount; ++p) {
      const Cell& cell = scheme.by_profile[p];
      lines.push_back(
          join_csv(csv_fields(scheme.name, kProfiles[p], cell)));
      table.add_row({scheme.name + " / " + kProfiles[p].name,
                     std::to_string(cell.rounds),
                     std::to_string(cell.retries),
                     std::to_string(cell.aborted),
                     std::to_string(cell.abandoned),
                     std::to_string(cell.clean_messages),
                     std::to_string(cell.messages_sent),
                     cobalt::format_fixed(cell.makespan_us / 1000.0, 2),
                     cobalt::format_fixed(cell.inflation(), 2),
                     cobalt::format_fixed(cell.availability_before(), 4),
                     cobalt::format_fixed(cell.availability_after(), 4)});
    }
  }
  std::cout << table.render();

  if (csv_dir != "off") {
    cobalt::CsvWriter csv(csv_dir + "/abl11.csv");
    csv.write_row(header);
    for (const auto& scheme : matrix) {
      for (std::size_t p = 0; p < kProfileCount; ++p) {
        csv.write_row(csv_fields(scheme.name, kProfiles[p],
                                 scheme.by_profile[p]));
      }
    }
    csv.close();
    std::cout << "csv: " << csv.path() << "\n";
  }

  // --- checks --------------------------------------------------------
  double sum_clean = 0.0;
  double sum_loss1 = 0.0;
  double sum_loss10 = 0.0;
  bool avail_in_range = true;
  for (const auto& scheme : matrix) {
    const Cell& clean = scheme.by_profile[0];
    const Cell& loss1 = scheme.by_profile[1];
    const Cell& loss10 = scheme.by_profile[2];
    const Cell& part = scheme.by_profile[3];
    const Cell& crash = scheme.by_profile[4];
    sum_clean += clean.makespan_us;
    sum_loss1 += loss1.makespan_us;
    sum_loss10 += loss10.makespan_us;

    fig.check(clean.retries == 0 && clean.aborted == 0 &&
                  clean.messages_dropped == 0,
              scheme.name +
                  ": clean profile executes without retries, drops or "
                  "aborts");
    fig.check(clean.messages_sent == clean.clean_messages &&
                  clean.messages_sent == clean.sched_messages,
              scheme.name +
                  ": clean execution sends exactly the priced message "
                  "count (" +
                  std::to_string(clean.messages_sent) + ")");
    fig.check(std::fabs(clean.makespan_us - clean.clean_makespan_us) <=
                  1e-6 * std::max(1.0, clean.clean_makespan_us),
              scheme.name +
                  ": clean execution reproduces the priced makespan");
    fig.check(loss1.messages_sent >= clean.messages_sent &&
                  loss10.messages_sent >= loss1.messages_sent,
              scheme.name +
                  ": message inflation is monotone in the loss rate (" +
                  std::to_string(clean.messages_sent) + " <= " +
                  std::to_string(loss1.messages_sent) + " <= " +
                  std::to_string(loss10.messages_sent) + ")");
    fig.check(loss1.makespan_us >= clean.makespan_us - 1e-9 &&
                  loss10.makespan_us >= clean.makespan_us - 1e-9 &&
                  part.makespan_us >= clean.makespan_us - 1e-9 &&
                  crash.makespan_us >= clean.makespan_us - 1e-9,
              scheme.name + ": no faulted profile beats the clean makespan");
    fig.check(part.failed_before == 0 && crash.failed_before == 0 &&
                  part.availability_before() == 1.0 &&
                  crash.availability_before() == 1.0,
              scheme.name +
                  ": serving availability is exactly 1 before the fault "
                  "window");
    fig.check(part.availability_after() < 1.0 &&
                  crash.availability_after() < 1.0,
              scheme.name +
                  ": partition and crash windows dent availability (" +
                  cobalt::format_fixed(part.availability_after(), 4) +
                  ", " +
                  cobalt::format_fixed(crash.availability_after(), 4) + ")");
    for (const Cell& cell : scheme.by_profile) {
      avail_in_range =
          avail_in_range && cell.availability_before() >= 0.0 &&
          cell.availability_before() <= 1.0 &&
          cell.availability_after() >= 0.0 &&
          cell.availability_after() <= 1.0 &&
          cell.rounds == cell.completed + cell.aborted &&
          cell.aborted == cell.replanned + cell.abandoned;
    }
  }
  fig.check(avail_in_range,
            "every availability lies in [0, 1] and round accounting "
            "conserves (rounds == completed + aborted, aborted == "
            "replanned + abandoned)");
  fig.check(sum_clean <= sum_loss1 + 1e-9 && sum_loss1 <= sum_loss10 + 1e-9,
            "summed makespan inflates monotonically with the loss rate (" +
                cobalt::format_fixed(sum_clean / 1000.0, 1) + "ms <= " +
                cobalt::format_fixed(sum_loss1 / 1000.0, 1) + "ms <= " +
                cobalt::format_fixed(sum_loss10 / 1000.0, 1) + "ms)");

  // Byte-stability: the whole matrix recomputed from the same seed
  // must reproduce every CSV row byte for byte.
  const std::vector<SchemeCells> replay = run_matrix();
  bool identical = replay.size() == matrix.size();
  std::size_t line_index = 0;
  for (const auto& scheme : replay) {
    for (std::size_t p = 0; p < kProfileCount && identical; ++p) {
      identical = line_index < lines.size() &&
                  join_csv(csv_fields(scheme.name, kProfiles[p],
                                      scheme.by_profile[p])) ==
                      lines[line_index];
      ++line_index;
    }
  }
  fig.check(identical && line_index == lines.size(),
            "same seed reproduces every CSV row byte for byte");

  FigureHarness::note(
      "loss profiles leave serving untouched by construction (link loss "
      "gates protocol messages, not request admission), so their "
      "availability columns equal clean's");

  return fig.exit_code();
}
