#include "support/figure.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <numeric>

#include "common/ascii_chart.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/table.hpp"

namespace cobalt::bench {

namespace {

// An exception escaping main - a rejected flag (cobalt::InvalidArgument)
// or any other failure, such as a CSV file that cannot be opened - is
// reported after flushing what the harness already printed, and exits
// with status 2 (rejected flag) or 1 instead of aborting, so scripts
// and ctests see an ordinary failure rather than a crash.
[[noreturn]] void exit_on_escaped_error() {
  if (const std::exception_ptr error = std::current_exception()) {
    try {
      std::rethrow_exception(error);
    } catch (const InvalidArgument& rejected) {
      std::cout.flush();
      std::cerr << "error: " << rejected.what() << "\n";
      std::_Exit(2);
    } catch (const std::exception& failed) {
      std::cout.flush();
      std::cerr << "error: " << failed.what() << "\n";
      std::_Exit(1);
    } catch (...) {
    }
  }
  std::abort();
}

[[maybe_unused]] const std::terminate_handler kDefaultTerminate =
    std::set_terminate(exit_on_escaped_error);

}  // namespace

FigureHarness::FigureHarness(int argc, char** argv, std::string figure_id,
                             std::string title, std::size_t default_runs,
                             std::size_t default_steps)
    : args_(argc, argv),
      figure_id_(std::move(figure_id)),
      title_(std::move(title)),
      runs_(args_.get_uint("runs", default_runs)),
      steps_(args_.get_uint("vnodes", default_steps)),
      seed_(args_.get_uint("seed", 0x5eed0f2004ull)),
      options_(args_),
      pool_(static_cast<std::size_t>(args_.get_uint("threads", 0))) {
  COBALT_REQUIRE(runs_ >= 1 && steps_ >= 1,
                 "--runs and --vnodes must be positive");
}

void FigureHarness::print_banner() const {
  std::cout << "================================================================\n"
            << title_ << "\n"
            << "runs=" << runs_ << " steps=" << steps_ << " seed=" << seed_
            << "\n"
            << "================================================================\n";
}

void FigureHarness::print_table(const std::vector<double>& xs,
                                const std::vector<Series>& series,
                                std::size_t stride, bool percent,
                                const std::string& x_name) const {
  std::vector<std::string> headers{x_name};
  for (const Series& s : series) {
    headers.push_back(percent ? s.label + " (%)" : s.label);
  }
  TextTable table(std::move(headers));
  const double scale = percent ? 100.0 : 1.0;
  if (stride == 0) stride = 1;  // short series: print every point
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const bool sampled = (i % stride == stride - 1) || i + 1 == xs.size() ||
                         i == 0;
    if (!sampled) continue;
    std::vector<double> row{xs[i]};
    for (const Series& s : series) row.push_back(s.y[i] * scale);
    std::vector<std::string> cells;
    cells.push_back(format_fixed(xs[i], 0));
    for (std::size_t c = 1; c < row.size(); ++c)
      cells.push_back(format_fixed(row[c], 3));
    table.add_row(std::move(cells));
  }
  std::cout << table.render();
}

void FigureHarness::print_chart(const std::vector<double>& xs,
                                const std::vector<Series>& series,
                                const std::string& x_label,
                                const std::string& y_label) const {
  if (!options_.chart_enabled()) return;
  ChartOptions options;
  options.x_label = x_label;
  options.y_label = y_label;
  AsciiChart chart(options);
  for (const Series& s : series) {
    chart.add_series(ChartSeries{s.label, xs, s.y});
  }
  std::cout << chart.render();
}

void FigureHarness::write_csv(const std::vector<double>& xs,
                              const std::vector<Series>& series,
                              const std::string& x_name) const {
  if (!options_.csv_enabled()) return;
  const std::string path = options_.csv_dir() + "/" + figure_id_ + ".csv";
  CsvWriter csv(path);
  std::vector<std::string> header{x_name};
  for (const Series& s : series) header.push_back(s.label);
  csv.write_header(header);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::vector<double> row{xs[i]};
    for (const Series& s : series) row.push_back(s.y[i]);
    csv.write_numeric_row(row);
  }
  csv.close();
  std::cout << "csv: " << path << "\n";
}

void FigureHarness::check(bool ok, const std::string& what) {
  std::cout << (ok ? "CHECK[ok]   " : "CHECK[FAIL] ") << what << "\n";
  if (!ok && options_.checks_enforced()) ++failed_checks_;
}

void FigureHarness::note(const std::string& what) {
  std::cout << "note        " << what << "\n";
}

std::vector<double> one_to_n(std::size_t steps) {
  std::vector<double> xs(steps);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

}  // namespace cobalt::bench
