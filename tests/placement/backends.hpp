// The seven placement schemes as the typed placement suites build them:
// one factory per backend at a comparable, small footprint (one vnode
// or a moderate point set per node, 2^10-cell grids) so every suite
// over AllBackends stays fast.

#pragma once

#include <cstdint>

#include <gtest/gtest.h>

#include "placement/bounded_ch_backend.hpp"
#include "placement/ch_backend.hpp"
#include "placement/dht_backend.hpp"
#include "placement/hrw_backend.hpp"
#include "placement/jump_backend.hpp"
#include "placement/maglev_backend.hpp"

namespace cobalt::placement {
namespace {

dht::Config cfg(std::uint64_t pmin, std::uint64_t vmin, std::uint64_t seed) {
  dht::Config c;
  c.pmin = pmin;
  c.vmin = vmin;
  c.seed = seed;
  return c;
}

/// Per-backend factory with a comparable footprint (small enrollments
/// and grids keep the suite fast).
template <typename B>
B make_backend(std::uint64_t seed);

template <>
LocalDhtBackend make_backend<LocalDhtBackend>(std::uint64_t seed) {
  return LocalDhtBackend({cfg(8, 8, seed), 1});
}

template <>
GlobalDhtBackend make_backend<GlobalDhtBackend>(std::uint64_t seed) {
  return GlobalDhtBackend({cfg(8, 1, seed), 1});
}

template <>
ChBackend make_backend<ChBackend>(std::uint64_t seed) {
  return ChBackend({seed, 16});
}

template <>
HrwBackend make_backend<HrwBackend>(std::uint64_t seed) {
  return HrwBackend({seed, 10});
}

template <>
JumpBackend make_backend<JumpBackend>(std::uint64_t seed) {
  return JumpBackend({seed, 10});
}

template <>
MaglevBackend make_backend<MaglevBackend>(std::uint64_t seed) {
  return MaglevBackend({seed, 10});
}

template <>
BoundedChBackend make_backend<BoundedChBackend>(std::uint64_t seed) {
  return BoundedChBackend({seed, 16, 0.25, 10});
}

using AllBackends =
    ::testing::Types<LocalDhtBackend, GlobalDhtBackend, ChBackend,
                     HrwBackend, JumpBackend, MaglevBackend,
                     BoundedChBackend>;

}  // namespace
}  // namespace cobalt::placement
