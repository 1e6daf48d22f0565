#include "support/schemes.hpp"

#include "common/error.hpp"

namespace cobalt::bench {

unsigned grid_bits_flag(const CliParser& args, unsigned fallback) {
  const std::uint64_t bits = args.get_uint("grid-bits", fallback);
  COBALT_REQUIRE(bits >= 1 && bits <= 30,
                 "--grid-bits must be between 1 and 30");
  return static_cast<unsigned>(bits);
}

SchemeParams SchemeParams::from_flags(const FigureHarness& fig,
                                      std::uint64_t default_vmin) {
  const std::uint64_t pmin = fig.args().get_uint("pmin", 32);
  return {.pmin = pmin,
          .vmin = fig.args().get_uint("vmin", default_vmin),
          .ch_points = static_cast<std::size_t>(pmin),
          .grid_bits = grid_bits_flag(fig.args(), 14),
          .epsilon = fig.args().get_double("epsilon", 0.1),
          .selection = &fig.options()};
}

}  // namespace cobalt::bench
