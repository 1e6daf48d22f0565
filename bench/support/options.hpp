// bench/support/options.hpp
//
// The output/selection flags every bench driver shares, parsed once:
//
//   --csv=<dir>|off       where the CSV lands ("." default)
//   --chart=on|off        ASCII charts
//   --checks=on|off       whether CHECK[FAIL] affects the exit code
//   --schemes=a,b,...|all restricts a scheme-comparison driver to a
//                         subset (the CI smoke runs single schemes)
//
// FigureHarness owns an instance and exposes it through options(), so
// drivers stop re-parsing "csv"/"chart"/"checks" ad hoc and the
// --schemes grammar (validated against all_schemes(), typos fail
// loudly) is written once instead of per bench.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"

namespace cobalt::bench {

class Options {
 public:
  /// The seven placement schemes of the comparison benches, in the
  /// canonical presentation order (the rows of for_each_scheme,
  /// support/schemes.hpp).
  static const std::vector<std::string>& all_schemes();

  /// Parses the shared flags out of `args`. A --schemes token outside
  /// all_schemes() throws InvalidArgument - silently matching nothing
  /// would turn a CI smoke into a vacuous green.
  explicit Options(const CliParser& args);

  /// CSV output directory; meaningless when csv_enabled() is false
  /// (--csv=off).
  [[nodiscard]] const std::string& csv_dir() const { return csv_dir_; }
  [[nodiscard]] bool csv_enabled() const { return csv_dir_ != "off"; }

  [[nodiscard]] bool chart_enabled() const { return chart_; }

  /// False under --checks=off: smoke runs at reduced scale, where the
  /// paper's full-scale shapes need not hold, still print CHECK lines
  /// but do not fail the process.
  [[nodiscard]] bool checks_enforced() const { return checks_enforced_; }

  /// True when `scheme` participates in this run (--schemes=all, or
  /// the name appears in the comma-separated list).
  [[nodiscard]] bool scheme_enabled(std::string_view scheme) const;

 private:
  std::string csv_dir_;
  bool chart_;
  bool checks_enforced_;
  std::vector<std::string> selected_;  ///< empty means "all"
};

}  // namespace cobalt::bench
