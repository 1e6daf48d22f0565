// bench/support/figure.hpp
//
// Shared scaffolding for the figure-reproduction harnesses: common CLI
// options (--runs, --vnodes, --seed, --csv, --chart), downsampled series
// tables in the console, CSV emission, ASCII charts, and simple
// "expected shape" checks that compare measured curves against the
// qualitative behaviour the paper reports. A rejected flag
// (cobalt::InvalidArgument escaping main) prints "error: ..." and
// exits with status 2 instead of aborting.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "support/options.hpp"

namespace cobalt::bench {

/// A named curve: y over the common x grid of the figure.
struct Series {
  std::string label;
  std::vector<double> y;
};

/// Parsed standard options for a figure harness.
class FigureHarness {
 public:
  /// Parses argv; `figure_id` names the output CSV ("fig4" etc.),
  /// `default_runs`/`default_steps` mirror the paper's setup.
  FigureHarness(int argc, char** argv, std::string figure_id,
                std::string title, std::size_t default_runs,
                std::size_t default_steps);

  [[nodiscard]] std::size_t runs() const { return runs_; }
  [[nodiscard]] std::size_t steps() const { return steps_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const CliParser& args() const { return args_; }
  [[nodiscard]] ThreadPool& pool() { return pool_; }

  /// The shared output/selection flags (--csv/--chart/--checks/
  /// --schemes), parsed once here instead of per driver.
  [[nodiscard]] const Options& options() const { return options_; }

  /// Prints the figure banner (title, parameters).
  void print_banner() const;

  /// Prints a downsampled table of the series over `xs` (every
  /// `stride`-th x, plus the final point), values in percent when
  /// `percent` is set.
  void print_table(const std::vector<double>& xs,
                   const std::vector<Series>& series, std::size_t stride,
                   bool percent, const std::string& x_name) const;

  /// Renders the curves as an ASCII chart unless --chart=off.
  void print_chart(const std::vector<double>& xs,
                   const std::vector<Series>& series,
                   const std::string& x_label,
                   const std::string& y_label) const;

  /// Writes "<csv_dir>/<figure_id>.csv" with one x column and one
  /// column per series, unless --csv=off. Prints the path.
  void write_csv(const std::vector<double>& xs,
                 const std::vector<Series>& series,
                 const std::string& x_name) const;

  /// Records a qualitative check ("who wins / what shape"); prints
  /// CHECK[ok] / CHECK[FAIL] and tracks the overall exit code. With
  /// --checks=off (smoke runs at reduced scale, where the paper's
  /// full-scale shapes need not hold) failures are still printed but
  /// do not affect the exit code.
  void check(bool ok, const std::string& what);

  /// Prints a free-form observation the paper states (no pass/fail).
  static void note(const std::string& what);

  /// 0 when all checks passed, 1 otherwise.
  [[nodiscard]] int exit_code() const { return failed_checks_ == 0 ? 0 : 1; }

 private:
  CliParser args_;
  std::string figure_id_;
  std::string title_;
  std::size_t runs_;
  std::size_t steps_;
  std::uint64_t seed_;
  Options options_;
  int failed_checks_ = 0;
  ThreadPool pool_;
};

/// The x grid 1..steps as doubles (the paper's "overall number of
/// vnodes" axis).
std::vector<double> one_to_n(std::size_t steps);

}  // namespace cobalt::bench
