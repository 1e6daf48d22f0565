#include "placement/jump_backend.hpp"

#include "common/rng.hpp"

namespace cobalt::placement {

namespace {

/// The Lamping-Veach jump consistent hash: key -> bucket in
/// [0, buckets), implemented from the published algorithm.
std::size_t jump_hash(std::uint64_t key, std::size_t buckets) {
  std::int64_t bucket = -1;
  std::int64_t next = 0;
  while (next < static_cast<std::int64_t>(buckets)) {
    bucket = next;
    key = key * 2862933555777941757ull + 1;
    next = static_cast<std::int64_t>(
        static_cast<double>(bucket + 1) *
        (static_cast<double>(std::int64_t{1} << 31) /
         static_cast<double>((key >> 33) + 1)));
  }
  return static_cast<std::size_t>(bucket);
}

}  // namespace

JumpBackend::JumpBackend(Options options)
    : GridScheme(options.grid_bits), options_(options) {}

NodeId JumpBackend::add_node(double capacity) {
  COBALT_REQUIRE(capacity == 1.0,
                 "jump consistent hash is unweighted; capacity must be 1.0");
  const NodeId id = enroll();
  node_bucket_.push_back(slots_.size());
  slots_.push_back(id);
  rebuild();
  return id;
}

bool JumpBackend::remove_node(NodeId node) {
  retire(node);
  const std::size_t hole = node_bucket_[node];
  const std::size_t tail = slots_.size() - 1;
  if (hole != tail) {
    // The remap layer: the tail node's bucket fills the hole, so the
    // bucket count can shrink at the tail as jump hash requires.
    slots_[hole] = slots_[tail];
    node_bucket_[slots_[tail]] = hole;
  }
  slots_.pop_back();
  node_bucket_[node] = kNoBucket;
  rebuild();
  return true;
}

void JumpBackend::rebuild() {
  std::vector<NodeId> next(grid_.size());
  for (std::size_t cell = 0; cell < next.size(); ++cell) {
    const std::uint64_t key =
        mix64(static_cast<std::uint64_t>(cell) ^ options_.seed);
    next[cell] = slots_[jump_hash(key, slots_.size())];
  }
  assign(std::move(next));
}

std::size_t JumpBackend::bucket_of(NodeId node) const {
  COBALT_REQUIRE(node < node_bucket_.size(), "unknown node");
  return node_bucket_[node];
}

}  // namespace cobalt::placement
