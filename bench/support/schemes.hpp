// bench/support/schemes.hpp
//
// The seven placement schemes of the comparison benches, in one table.
// Each row of for_each_scheme names a scheme, fixes its backend type
// and builds that backend's Options from a seed plus the shared
// SchemeParams (Pmin, Vmin, CH points, grid bits, epsilon). A bench
// iterates the table instead of spelling out per-scheme factories:
//
//   for_each_scheme(params, [&](const auto& scheme) {
//     auto store = scheme.store(derive_seed(fig.seed(), 80 + scheme.index,
//                                           run));
//     ...
//   });
//
// The row order is the canonical presentation order, so a bench's
// per-scheme seed tags stay `base + scheme.index`; rows that --schemes
// left out are skipped, and Options::all_schemes() (the --schemes
// vocabulary) reads its names from these rows. Adding a scheme is one
// row here (docs/ARCHITECTURE.md, "Adding a scheme").

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "kv/store.hpp"
#include "placement/replication_spec.hpp"
#include "support/figure.hpp"

namespace cobalt::bench {

/// Reads --grid-bits (the ownership-grid resolution of the grid-backed
/// schemes). Values outside [1, 30] throw InvalidArgument before the
/// flag is narrowed to `unsigned`, so 2^32 + 14 cannot run as 14.
unsigned grid_bits_flag(const CliParser& args, unsigned fallback);

/// What every row of the table is built from.
struct SchemeParams {
  std::uint64_t pmin = 32;     ///< local + global: Pmin
  std::uint64_t vmin = 8;      ///< local: Vmin (global runs Vmin = 1)
  std::size_t ch_points = 32;  ///< ch + bounded-ch: ring points per node
  unsigned grid_bits = 14;     ///< hrw, jump, maglev, bounded-ch
  double epsilon = 0.1;        ///< bounded-ch: load-bound slack

  /// The --schemes selection to honour; nullptr visits every scheme.
  const Options* selection = nullptr;

  /// The shared comparison flags: --pmin (32), --vmin (`default_vmin`),
  /// --grid-bits (14), --epsilon (0.1); CH rings place Pmin points per
  /// node, and the selection is the harness's --schemes.
  static SchemeParams from_flags(const FigureHarness& fig,
                                 std::uint64_t default_vmin);
};

/// One row of the table, as the visitor of for_each_scheme sees it.
template <typename Backend, typename MakeOptions>
struct Scheme {
  using BackendType = Backend;

  std::string name;         ///< canonical name, e.g. "bounded-ch"
  std::size_t index;        ///< canonical position, 0..6
  MakeOptions options_for;  ///< seed -> Backend::Options

  /// A store over this scheme's backend, seeded with `seed`.
  [[nodiscard]] kv::Store<Backend> store(
      std::uint64_t seed, placement::ReplicationSpec spec = {}) const {
    return kv::Store<Backend>(options_for(seed), spec);
  }
};

/// Calls `visit(scheme)` for every scheme `params.selection` enables,
/// in canonical order; `scheme` is a Scheme<Backend, ...>.
template <typename Visit>
void for_each_scheme(const SchemeParams& params, Visit&& visit) {
  std::size_t index = 0;
  const auto row = [&]<typename Backend>(std::string_view name,
                                         std::type_identity<Backend>,
                                         auto options_for) {
    if (params.selection == nullptr ||
        params.selection->scheme_enabled(name)) {
      visit(Scheme<Backend, decltype(options_for)>{std::string(name), index,
                                                   options_for});
    }
    ++index;
  };
  const auto dht_options = [](std::uint64_t pmin, std::uint64_t vmin,
                              std::uint64_t seed) {
    dht::Config config;
    config.pmin = pmin;
    config.vmin = vmin;
    config.seed = seed;
    return placement::DhtBackendOptions{config, 1};
  };
  // Rows copy the parameters: a visitor may keep its Scheme past this
  // call (micro_ops registers benchmarks that run later).
  const SchemeParams p = params;

  row("local", std::type_identity<placement::LocalDhtBackend>{},
      [p, dht_options](std::uint64_t seed) {
        return dht_options(p.pmin, p.vmin, seed);
      });
  row("global", std::type_identity<placement::GlobalDhtBackend>{},
      [p, dht_options](std::uint64_t seed) {
        return dht_options(p.pmin, 1, seed);
      });
  row("ch", std::type_identity<placement::ChBackend>{},
      [p](std::uint64_t seed) {
        return placement::ChBackendOptions{seed, p.ch_points};
      });
  row("hrw", std::type_identity<placement::HrwBackend>{},
      [p](std::uint64_t seed) {
        return placement::HrwBackendOptions{seed, p.grid_bits};
      });
  row("jump", std::type_identity<placement::JumpBackend>{},
      [p](std::uint64_t seed) {
        return placement::JumpBackendOptions{seed, p.grid_bits};
      });
  row("maglev", std::type_identity<placement::MaglevBackend>{},
      [p](std::uint64_t seed) {
        return placement::MaglevBackendOptions{seed, p.grid_bits};
      });
  row("bounded-ch", std::type_identity<placement::BoundedChBackend>{},
      [p](std::uint64_t seed) {
        return placement::BoundedChBackendOptions{seed, p.ch_points,
                                                  p.epsilon, p.grid_bits};
      });
}

/// The row of `results` whose `name` is `scheme`, or nullptr when
/// --schemes left that scheme out.
template <typename Row>
const Row* find_scheme(const std::vector<Row>& results,
                       std::string_view scheme) {
  for (const Row& row : results) {
    if (row.name == scheme) return &row;
  }
  return nullptr;
}

}  // namespace cobalt::bench
