// Golden digests of every scheme's raw replica walk and dirty report.
//
// The property suites check that a dirty report *covers* every replica
// set change; a report that silently grew looser (a wider backward
// expansion, an earlier fall back to the full range) would still pass
// them while raising the store's repair work. This test pins both
// outputs exactly: a seeded sequence of joins, drains and a crash batch
// (three back-to-back removals), and after every event the
// replica_dirty_ranges(k) report and replica_set_into(., k) at a fixed
// probe set, folded into one FNV-1a digest per (scheme, k). One backend
// per k, so HRW's exact-cell tracker stays armed for its k.
//
// A digest mismatch means placement or repair planning changed. When
// the change is intended, re-record the table from the failure
// messages and say why in the change's notes.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "placement/backend.hpp"

#include "backends.hpp"

namespace cobalt::placement {
namespace {

/// FNV-1a over the little-endian bytes of 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The digest of one backend's walks and dirty reports at `k` over the
/// seeded event sequence.
template <typename B>
std::uint64_t event_digest(std::size_t k) {
  auto backend = make_backend<B>(811);
  Xoshiro256 rng(6007);
  std::vector<HashIndex> probes{0, HashSpace::kMaxIndex};
  for (int i = 0; i < 64; ++i) probes.push_back(rng.next());
  Digest digest;
  std::vector<NodeId> out;

  const auto record = [&] {
    const std::vector<HashRange> dirty = backend.replica_dirty_ranges(k);
    digest.add(dirty.size());
    for (const HashRange& range : dirty) {
      digest.add(range.first);
      digest.add(range.last);
    }
    for (const HashIndex probe : probes) {
      backend.replica_set_into(probe, k, out);
      digest.add(out.size());
      for (const NodeId node : out) digest.add(node);
    }
  };
  const auto join = [&] {
    digest.add(backend.add_node());
    record();
  };
  const auto remove_one = [&] {
    std::vector<NodeId> live;
    for (NodeId node = 0; node < backend.node_slot_count(); ++node) {
      if (backend.is_live(node)) live.push_back(node);
    }
    const NodeId victim =
        live[static_cast<std::size_t>(rng.next_below(live.size()))];
    digest.add(victim);
    digest.add(backend.remove_node(victim) ? 1 : 0);  // local may refuse
    record();
  };

  for (int n = 0; n < 8; ++n) join();
  for (int event = 0; event < 8; ++event) {
    if (backend.node_count() > 5 && rng.next_below(2) == 0) {
      remove_one();  // a drain
    } else {
      join();
    }
  }
  for (int n = 0; n < 3; ++n) remove_one();  // the crash batch
  for (int n = 0; n < 3; ++n) join();
  return digest.value();
}

/// Digests for k = 1..4, recorded before the successor walks and dirty
/// expansions were folded into placement/successor_walk.hpp.
std::array<std::uint64_t, 4> golden(std::string_view scheme) {
  struct Entry {
    std::string_view scheme;
    std::array<std::uint64_t, 4> digests;
  };
  static constexpr Entry kGolden[] = {
      {"local",
       {0x3b9a013f0561c6dfull, 0xd3bcfdada72fce3bull,
        0xaa3832970eb07076ull, 0x58a203f51b39e34bull}},
      {"global",
       {0xdee97c4c52c024e5ull, 0x89bf96169398b074ull,
        0x866d79c64549ee98ull, 0x6f5c65affe620c74ull}},
      {"ch",
       {0x701dd8d00a5a3b69ull, 0x24f169962ad2f67dull,
        0x1ff792e8c04302e4ull, 0xa75f35f1642f8894ull}},
      {"hrw",
       {0xc95be8732ac3488cull, 0xe291d3e27e520184ull,
        0xfde0cc271add63e7ull, 0x40bcf36ce8a92748ull}},
      {"jump",
       {0xb2c1b9642352c5aaull, 0x1ed150d4476cb86dull,
        0x506166f2616e00e6ull, 0x8b1e94d93c42b0cbull}},
      {"maglev",
       {0x8b2db546b5e16b50ull, 0x40292d16ff622700ull,
        0x6e8cd650ef72e57ull, 0xa8c896faa1915695ull}},
      {"bounded-ch",
       {0x1e53de33d1381991ull, 0xe66706a03b11ab3aull,
        0x308ec8758eeff338ull, 0x9c0d56731a7251e9ull}},
  };
  for (const Entry& entry : kGolden) {
    if (entry.scheme == scheme) return entry.digests;
  }
  ADD_FAILURE() << "no golden digests for scheme " << scheme;
  return {};
}

template <typename B>
class WalkGoldenSuite : public ::testing::Test {};

TYPED_TEST_SUITE(WalkGoldenSuite, AllBackends);

TYPED_TEST(WalkGoldenSuite, WalksAndDirtyReportsMatchTheRecordedDigests) {
  const auto expected = golden(TypeParam::scheme_name());
  for (std::size_t k = 1; k <= 4; ++k) {
    const std::uint64_t actual = event_digest<TypeParam>(k);
    EXPECT_EQ(actual, expected[k - 1])
        << TypeParam::scheme_name() << " k=" << k << ": digest 0x"
        << std::hex << actual;
  }
}

}  // namespace
}  // namespace cobalt::placement
