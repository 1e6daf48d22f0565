#include "placement/jump_backend.hpp"

#include <limits>

#include "common/rng.hpp"

namespace cobalt::placement {

namespace {

/// The Lamping-Veach jump consistent hash, implemented from the
/// published algorithm: sets `bucket` to the key's bucket in
/// [0, buckets) and returns the key's first jump candidate >= buckets,
/// clamped to 32 bits (a clamped candidate stays above every bucket
/// count a grid can hold).
std::uint32_t jump_hash(std::uint64_t key, std::size_t buckets,
                        std::size_t& bucket) {
  std::int64_t last = -1;
  std::int64_t next = 0;
  while (next < static_cast<std::int64_t>(buckets)) {
    last = next;
    key = key * 2862933555777941757ull + 1;
    next = static_cast<std::int64_t>(
        static_cast<double>(last + 1) *
        (static_cast<double>(std::int64_t{1} << 31) /
         static_cast<double>((key >> 33) + 1)));
  }
  bucket = static_cast<std::size_t>(last);
  constexpr std::int64_t kClamp = std::numeric_limits<std::uint32_t>::max();
  return static_cast<std::uint32_t>(next < kClamp ? next : kClamp);
}

}  // namespace

JumpBackend::JumpBackend(Options options)
    : GridScheme(options.grid_bits),
      options_(options),
      candidate_(grid_.size(), 0) {}

NodeId JumpBackend::add_node(double capacity) {
  COBALT_REQUIRE(capacity == 1.0,
                 "jump consistent hash is unweighted; capacity must be 1.0");
  const NodeId id = enroll();
  const std::size_t buckets = slots_.size();
  node_bucket_.push_back(buckets);
  slots_.push_back(id);
  // Growing to buckets + 1 moves exactly the cells whose next jump
  // candidate is the new bucket.
  std::vector<NodeId> next(grid_.owners());
  for (std::size_t cell = 0; cell < next.size(); ++cell) {
    if (candidate_[cell] == buckets) next[cell] = derive(cell);
  }
  assign(std::move(next));
  return id;
}

bool JumpBackend::remove_node(NodeId node) {
  retire(node);
  const std::size_t hole = node_bucket_[node];
  const std::size_t tail = slots_.size() - 1;
  const NodeId tail_node = slots_[tail];
  if (hole != tail) {
    // The remap layer: the tail node's bucket fills the hole, so the
    // bucket count can shrink at the tail as jump hash requires.
    slots_[hole] = tail_node;
    node_bucket_[tail_node] = hole;
  }
  slots_.pop_back();
  node_bucket_[node] = kNoBucket;
  // The hole's cells follow the remap; only the vanishing tail
  // bucket's cells jump again. Every other cell's candidate is still
  // its first one >= the shrunk bucket count.
  std::vector<NodeId> next(grid_.owners());
  for (std::size_t cell = 0; cell < next.size(); ++cell) {
    if (next[cell] == tail_node) {
      next[cell] = derive(cell);
    } else if (next[cell] == node) {
      next[cell] = tail_node;
    }
  }
  assign(std::move(next));
  return true;
}

NodeId JumpBackend::derive(std::size_t cell) {
  const std::uint64_t key =
      mix64(static_cast<std::uint64_t>(cell) ^ options_.seed);
  std::size_t bucket = 0;
  candidate_[cell] = jump_hash(key, slots_.size(), bucket);
  return slots_[bucket];
}

std::size_t JumpBackend::bucket_of(NodeId node) const {
  COBALT_REQUIRE(node < node_bucket_.size(), "unknown node");
  return node_bucket_[node];
}

}  // namespace cobalt::placement
