#include "support/options.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "support/schemes.hpp"

namespace cobalt::bench {

const std::vector<std::string>& Options::all_schemes() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> rows;
    for_each_scheme(SchemeParams{},
                    [&](const auto& scheme) { rows.push_back(scheme.name); });
    return rows;
  }();
  return names;
}

Options::Options(const CliParser& args)
    : csv_dir_(args.get_string("csv", ".")),
      chart_(args.get_string("chart", "on") != "off"),
      checks_enforced_(args.get_string("checks", "on") != "off") {
  const std::string schemes_arg = args.get_string("schemes", "all");
  if (schemes_arg == "all") return;
  const std::vector<std::string>& known = all_schemes();
  std::stringstream list(schemes_arg);
  std::string token;
  while (std::getline(list, token, ',')) {
    COBALT_REQUIRE(std::find(known.begin(), known.end(), token) != known.end(),
                   "unknown scheme in --schemes");
    selected_.push_back(token);
  }
  COBALT_REQUIRE(!selected_.empty(), "--schemes must name at least one scheme");
}

bool Options::scheme_enabled(std::string_view scheme) const {
  if (selected_.empty()) return true;
  return std::find(selected_.begin(), selected_.end(), scheme) !=
         selected_.end();
}

}  // namespace cobalt::bench
