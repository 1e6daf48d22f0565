// cobalt/placement/successor_walk.hpp
//
// The successor walk of the walk-replicated schemes, written once.
//
// In the paper's model partitions tile R_h, and a key's k replicas are
// the first k distinct owners met walking that tiling forward from the
// segment holding the key. The ring (CH: each point closes the arc
// before it), the partition map (the balanced DHTs) and the ownership
// grid (jump, maglev, bounded-load CH) are three such tilings; each
// adapter hands this header a small segment-sequence adaptor and gets
// both halves of the rule:
//   * successor_walk_into - the forward distinct-owner walk (the raw
//     replica_set_into of backend.hpp) and its extent, the last index
//     through which the answer holds;
//   * successor_dirty_ranges - its repair-planning dual: every changed
//     span of the last membership event, expanded backward until k
//     distinct keys of owners separate a segment from it (a forward
//     walk starting at or before that segment completes without
//     entering the span, so its set cannot have changed), falling
//     back to the full range when no such segment is within reach.
//     The key (DomainKey, replication_spec.hpp) is the owner itself
//     for the raw walk, which completes at k owners, and its failure
//     domain for a spread walk, which completes at k domains.
//
// A Segments adaptor models (Cursor names one segment, cheap to copy):
//   Cursor locate(HashIndex index) const;  // the segment holding index
//   NodeId owner(Cursor) const;            // kInvalidNode: skipped
//   Cursor next(Cursor) const;             // wrapping, forward
//   Cursor prev(Cursor) const;             // wrapping, backward
//   HashIndex last(Cursor) const;          // the segment's last index
//   std::size_t size() const;              // segment count
//   HashRange span(const Change&) const;   // a changed span, inclusive
//   std::size_t reach(const Change&) const;
// reach() is how many backward steps the expansion of one change may
// take before it falls back to the full range. Each tiling keeps its
// own bound (the grid stops short of re-entering the changed run, the
// ring may revisit every point, the partition map stops one short of
// the start partition), so the fall-back decision is the adaptor's.
// Everything is resolved at compile time: no per-step indirection.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "placement/replication_spec.hpp"
#include "placement/types.hpp"

namespace cobalt::placement {

/// The first min(k, live_nodes) distinct owners met walking `segments`
/// forward from the segment holding `index` (wrapping, at most one
/// circle), in first-encounter order, written into `out` (cleared
/// first); `stop` may end the walk early (see WalkStop). `live_nodes`
/// is the backend's node_count(): the tiling holds no more distinct
/// owners, so a deeper k would only scan the whole circle for owners
/// that are not there.
///
/// Returns the walk's extent: the last index through which the answer
/// holds. A walk starting anywhere in the run of segments that share
/// the start segment's owner meets the same distinct owners in the same
/// order (the run adds only that owner), so the extent is the last()
/// of the run's last segment, and kMaxIndex when the run reaches the
/// top of R_h (or covers the whole circle, or no node is live). An
/// unowned segment ends the run. The walk reads the run as it passes
/// it; only a walk that stops inside the run (k = 1, or a stop on the
/// owner) steps on to find its end.
template <typename Segments>
HashIndex successor_walk_into(const Segments& segments, HashIndex index,
                              std::size_t k, std::size_t live_nodes,
                              std::vector<NodeId>& out, WalkStop stop) {
  COBALT_REQUIRE(k >= 1, "a replica set needs at least one member");
  out.clear();
  const std::size_t want = std::min(k, live_nodes);
  if (want == 0) return HashSpace::kMaxIndex;
  out.reserve(want);
  const std::size_t steps = segments.size();
  auto cursor = segments.locate(index);
  const NodeId head = segments.owner(cursor);
  HashIndex extent = segments.last(cursor);
  // A start segment that ends below `index` wraps past the top.
  if (extent < index) extent = HashSpace::kMaxIndex;
  bool in_run = head != kInvalidNode && extent != HashSpace::kMaxIndex;
  bool done = false;
  for (std::size_t step = 1;; ++step) {
    const NodeId owner = segments.owner(cursor);
    if (in_run && step > 1) {
      const HashIndex last = segments.last(cursor);
      if (owner != head) {
        in_run = false;
      } else if (last < extent) {  // the run wraps past the top
        extent = HashSpace::kMaxIndex;
        in_run = false;
      } else {
        extent = last;
        in_run = extent != HashSpace::kMaxIndex;
      }
    }
    if (!done && owner != kInvalidNode &&
        std::find(out.begin(), out.end(), owner) == out.end()) {
      out.push_back(owner);
      done = stop(owner) || out.size() == want;
    }
    if (done && !in_run) return extent;
    // A run still open after one circle is every segment.
    if (step == steps) return in_run ? HashSpace::kMaxIndex : extent;
    cursor = segments.next(cursor);
  }
}

/// The dirty report of a successor-walk scheme: each of `changes`
/// (the spans its last membership event touched), expanded backward
/// over `segments` until the owners met there hold k distinct `key`s;
/// the report starts just after the segment that brought the k-th.
/// Segments outside every change keep their owners across the event,
/// so a walk from before that segment meets the same owners on both
/// sides of the event until it completes. A key is looked up once per
/// distinct owner. Returns the full range when some change meets fewer
/// than k keys within its reach(), and nothing when the tiling is
/// empty. Ranges are coalesced.
template <typename Segments, typename Changes>
std::vector<HashRange> successor_dirty_ranges(const Segments& segments,
                                              const Changes& changes,
                                              std::size_t k, DomainKey key) {
  COBALT_REQUIRE(k >= 1, "a replica set needs at least one member");
  std::vector<HashRange> dirty;
  if (segments.size() == 0) return dirty;
  std::vector<NodeId> owners;
  std::vector<std::uint32_t> keys;
  for (const auto& change : changes) {
    const HashRange span = segments.span(change);
    const std::size_t reach = segments.reach(change);
    auto cursor = segments.locate(span.first);
    owners.clear();
    keys.clear();
    bool bounded = false;
    for (std::size_t step = 0; step < reach && !bounded; ++step) {
      cursor = segments.prev(cursor);
      const NodeId owner = segments.owner(cursor);
      if (owner == kInvalidNode ||
          std::find(owners.begin(), owners.end(), owner) != owners.end()) {
        continue;
      }
      owners.push_back(owner);
      const std::uint32_t domain = key(owner);
      if (std::find(keys.begin(), keys.end(), domain) != keys.end()) continue;
      keys.push_back(domain);
      bounded = keys.size() == k;
    }
    if (!bounded) return {{0, HashSpace::kMaxIndex}};
    // +1 wraps to 0 past the top of R_h.
    const HashIndex first = segments.last(cursor) + 1;
    if (first <= span.last) {
      dirty.push_back({first, span.last});
    } else {  // the backward expansion wrapped past 0
      dirty.push_back({first, HashSpace::kMaxIndex});
      dirty.push_back({0, span.last});
    }
  }
  coalesce_ranges(dirty);
  return dirty;
}

}  // namespace cobalt::placement
