// Ablation A7: balance under sustained churn, and the applicability of
// the deletion extension.
//
// The paper's feature list includes nodes leaving the DHT but its
// evaluation only grows. This harness holds the population constant
// while nodes leave and join, reporting: the balance level under churn
// vs the pure-growth plateau, and the fraction of removals the local
// approach must refuse because the model defines no cross-group merge
// for that topology (DESIGN notes, deletion support) - as a function
// of Vmin. The global approach and Consistent Hashing are the
// references: neither ever refuses.
//
// Every scheme runs through the same backend-generic churn loop
// (sim::run_churn over the PlacementBackend concept) and the same
// growth loop for its plateau; a scheme is one backend factory.

#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "placement/bounded_ch_backend.hpp"
#include "placement/ch_backend.hpp"
#include "placement/dht_backend.hpp"
#include "placement/hrw_backend.hpp"
#include "placement/jump_backend.hpp"
#include "placement/maglev_backend.hpp"
#include "sim/scenario.hpp"
#include "support/figure.hpp"
#include "support/schemes.hpp"

namespace {

using cobalt::bench::FigureHarness;

double mean_tail(const std::vector<double>& series) {
  const std::size_t from = series.size() - series.size() / 4;
  double sum = 0.0;
  for (std::size_t i = from; i < series.size(); ++i) sum += series[i];
  return sum / static_cast<double>(series.size() - from);
}

/// Averaged outcome of one scheme under the shared churn + growth
/// protocol.
struct SchemeOutcome {
  double churn_level = 0.0;     ///< mean-tail sigma under churn
  double growth_plateau = 0.0;  ///< mean-tail sigma under pure growth
  double refused = 0.0;         ///< refused removals / cycles
};

/// The one shared scenario loop of this ablation: run fig.runs()
/// churn and growth runs of whatever backend `make(seed)` builds.
template <typename MakeBackend>
SchemeOutcome run_scheme(FigureHarness& fig, std::uint64_t tag,
                         std::size_t population, std::size_t cycles,
                         MakeBackend make) {
  SchemeOutcome out;
  for (std::size_t run = 0; run < fig.runs(); ++run) {
    const std::uint64_t seed = cobalt::derive_seed(fig.seed(), tag, run);
    auto churn_backend = make(seed);
    const auto churn =
        cobalt::sim::run_churn(churn_backend, population, cycles, seed);
    out.churn_level += mean_tail(churn.sigma_series);
    out.refused += static_cast<double>(churn.refused_removals) /
                   static_cast<double>(cycles);
    auto growth_backend = make(seed);
    out.growth_plateau +=
        mean_tail(cobalt::sim::run_growth(growth_backend, population));
  }
  const double n = static_cast<double>(fig.runs());
  out.churn_level /= n;
  out.growth_plateau /= n;
  out.refused /= n;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FigureHarness fig(argc, argv, "abl7",
                    "Ablation A7: balance and removal refusals under "
                    "sustained churn (all seven placement schemes)",
                    /*default_runs=*/10, /*default_steps=*/256);
  fig.print_banner();

  const std::size_t population = fig.steps();
  const std::size_t cycles = fig.args().get_uint("cycles", 400);
  const std::uint64_t pmin = fig.args().get_uint("pmin", 32);
  const std::vector<std::uint64_t> vmins =
      fig.args().get_uint_list("vmin", {8, 32, 128});

  cobalt::TextTable table({"scheme", "growth plateau (%)",
                           "churn level (%)", "refused removals (%)"});
  const auto add_row = [&](const std::string& label,
                           const SchemeOutcome& out) {
    table.add_row({label, cobalt::format_fixed(out.growth_plateau * 100, 2),
                   cobalt::format_fixed(out.churn_level * 100, 2),
                   cobalt::format_fixed(out.refused * 100, 1)});
  };

  // --schemes gates each row by its scheme name.
  const auto enabled = [&](std::string_view scheme) {
    return fig.options().scheme_enabled(scheme);
  };

  // Global reference: always expressible removals, tight balance.
  if (enabled("global")) {
    const auto global = run_scheme(
        fig, 70, population, cycles, [&](std::uint64_t seed) {
          cobalt::dht::Config config;
          config.pmin = pmin;
          config.vmin = 1;
          config.seed = seed;
          return cobalt::placement::GlobalDhtBackend({config, 1});
        });
    add_row("global", global);
    fig.check(global.refused == 0.0, "global approach never refuses");
    fig.check(global.churn_level < 0.05,
              "global approach stays tightly balanced under churn (" +
                  cobalt::format_fixed(global.churn_level * 100, 2) + "%)");
  }

  // CH reference: removals always succeed; churn sits at the (flat)
  // growth level.
  if (enabled("ch")) {
    const auto ch = run_scheme(
        fig, 71, population, cycles, [&](std::uint64_t seed) {
          return cobalt::placement::ChBackend(
              {seed, static_cast<std::size_t>(pmin)});
        });
    add_row("CH, " + std::to_string(pmin) + " partitions/node", ch);
    fig.check(ch.refused == 0.0, "CH never refuses");
    fig.check(ch.churn_level < 2.0 * ch.growth_plateau + 0.02,
              "CH churn level stays near its growth level (" +
                  cobalt::format_fixed(ch.churn_level * 100, 1) + "% vs " +
                  cobalt::format_fixed(ch.growth_plateau * 100, 1) + "%)");
  }

  // The table-driven alternatives: none of them can refuse a removal,
  // and their churn level should hold at their growth level (the grid
  // resamples identically regardless of membership history).
  const unsigned grid_bits = cobalt::bench::grid_bits_flag(fig.args(), 14);
  const double epsilon = fig.args().get_double("epsilon", 0.1);

  if (enabled("hrw")) {
    const auto hrw = run_scheme(
        fig, 72, population, cycles, [&](std::uint64_t seed) {
          return cobalt::placement::HrwBackend({seed, grid_bits});
        });
    add_row("HRW (rendezvous)", hrw);
    fig.check(hrw.refused == 0.0, "HRW never refuses");
  }

  if (enabled("jump")) {
    const auto jump = run_scheme(
        fig, 73, population, cycles, [&](std::uint64_t seed) {
          return cobalt::placement::JumpBackend({seed, grid_bits});
        });
    add_row("jump", jump);
    fig.check(jump.refused == 0.0,
              "jump never refuses (the bucket remap layer absorbs "
              "non-tail removals)");
  }

  if (enabled("maglev")) {
    const auto maglev = run_scheme(
        fig, 74, population, cycles, [&](std::uint64_t seed) {
          return cobalt::placement::MaglevBackend({seed, grid_bits});
        });
    add_row("maglev", maglev);
    fig.check(maglev.refused == 0.0, "maglev never refuses");
  }

  if (enabled("bounded-ch")) {
    const auto bounded = run_scheme(
        fig, 75, population, cycles, [&](std::uint64_t seed) {
          return cobalt::placement::BoundedChBackend(
              {seed, static_cast<std::size_t>(pmin), epsilon, grid_bits});
        });
    add_row("bounded CH (eps=" + cobalt::format_fixed(epsilon, 2) + ")",
            bounded);
    fig.check(bounded.refused == 0.0, "bounded CH never refuses");
    fig.check(bounded.churn_level < 2.0 * bounded.growth_plateau + 0.02,
              "bounded CH churn level stays near its growth level (" +
                  cobalt::format_fixed(bounded.churn_level * 100, 1) +
                  "% vs " +
                  cobalt::format_fixed(bounded.growth_plateau * 100, 1) +
                  "%)");
  }

  // The local approach across group sizes.
  double refusal_small_vmin = 0.0;
  double refusal_large_vmin = 0.0;
  for (const std::uint64_t vmin : vmins) {
    if (!enabled("local")) break;
    const auto local = run_scheme(
        fig, vmin, population, cycles, [&](std::uint64_t seed) {
          cobalt::dht::Config config;
          config.pmin = pmin;
          config.vmin = vmin;
          config.seed = seed;
          return cobalt::placement::LocalDhtBackend({config, 1});
        });
    add_row("local Vmin=" + std::to_string(vmin), local);

    fig.check(local.churn_level < 2.5 * local.growth_plateau + 0.02,
              "churn keeps Vmin=" + std::to_string(vmin) +
                  " near its growth plateau (" +
                  cobalt::format_fixed(local.churn_level * 100, 1) + "% vs " +
                  cobalt::format_fixed(local.growth_plateau * 100, 1) + "%)");

    if (vmin == vmins.front()) refusal_small_vmin = local.refused;
    if (vmin == vmins.back()) refusal_large_vmin = local.refused;
  }

  std::cout << table.render();

  // Many small groups mean more Vmin-sized groups whose siblings have
  // split away: refusals should not decrease as groups shrink.
  if (enabled("local")) {
    fig.check(refusal_small_vmin >= refusal_large_vmin,
              "refusal rate does not improve with smaller groups (" +
                  cobalt::format_fixed(refusal_small_vmin * 100, 1) +
                  "% vs " +
                  cobalt::format_fixed(refusal_large_vmin * 100, 1) + "%)");
  }
  FigureHarness::note(
      "refusals are the honest boundary of the deletion extension: the "
      "model defines no cross-group partition merge (only the local "
      "approach ever refuses)");

  return fig.exit_code();
}
