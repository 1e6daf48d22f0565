#include "placement/hrw_backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace cobalt::placement {

namespace {

/// The replica ranking: score descending, ties by ascending id.
bool outranks(const std::pair<double, NodeId>& a,
              const std::pair<double, NodeId>& b) {
  return a.first != b.first ? a.first > b.first : a.second < b.second;
}

}  // namespace

HrwBackend::HrwBackend(Options options)
    : GridScheme(options.grid_bits),
      options_(options),
      winning_score_(grid_.size(), -std::numeric_limits<double>::infinity()),
      rng_(options.seed) {}

double HrwBackend::draw(std::size_t cell, NodeId node) const {
  // An independent uniform draw per (cell, node), strictly inside
  // (0, 1) so the logarithm is finite and negative.
  const std::uint64_t h =
      mix64(static_cast<std::uint64_t>(cell) ^ node_draw_[node]);
  return (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
}

double HrwBackend::score(std::size_t cell, NodeId node) const {
  return -node_weight_[node] / std::log(draw(cell, node));
}

std::pair<double, NodeId> HrwBackend::top_live(
    std::size_t cell, const std::vector<std::uint32_t>& excluded) const {
  // Ids ascend, so a node ties the best so far only to lose; one that
  // draws no higher at no higher weight cannot outrank it, and its
  // logarithm is skipped.
  std::pair<double, NodeId> best{0.0, kInvalidNode};
  double best_draw = 0.0;
  for (const NodeId node : live_ids_) {
    if (!excluded.empty() &&
        std::find(excluded.begin(), excluded.end(), spread_.domain[node]) !=
            excluded.end()) {
      continue;
    }
    const double u = draw(cell, node);
    if (best.second != kInvalidNode && u <= best_draw &&
        node_weight_[node] <= node_weight_[best.second]) {
      continue;
    }
    const double s = -node_weight_[node] / std::log(u);
    if (best.second == kInvalidNode || s > best.first) {
      best = {s, node};
      best_draw = u;
    }
  }
  return best;
}

NodeId HrwBackend::add_node(double capacity) {
  require_capacity(capacity);
  const NodeId id = enroll();
  node_weight_.push_back(capacity);
  node_draw_.push_back(rng_.next());

  // The tracked replica sets (when armed) change only where the new
  // node enters them: it outranks a set's lowest member, or it opens a
  // failure domain while the live nodes span fewer than k of them.
  const bool track = begin_spread_event();
  bool opens_domain = true;
  bool few_domains = false;
  if (track) {
    const auto& domains = live_domains(id);
    opens_domain = std::find(domains.begin(), domains.end(),
                             spread_.domain[id]) == domains.end();
    few_domains = domains.size() < spread_.k;
  }

  // The new node wins exactly the cells where its score beats the
  // stored winner; every other cell is untouched. The same pass lists
  // the cells whose tracked set it may enter without branching on the
  // score (a branch on a value one log() away stalls the loop); the
  // second pass updates just those.
  auto& entrants = spread_.entrants;
  entrants.resize(track ? grid_.size() : 0);
  std::size_t entering = 0;
  const bool every_cell =
      spread_.filled < spread_.k || (opens_domain && few_domains);
  const double* const lowest =
      track ? &spread_.score_at(0, spread_.k - 1) : nullptr;
  std::vector<NodeId> next(grid_.owners());
  for (std::size_t cell = 0; cell < next.size(); ++cell) {
    const double s = score(cell, id);
    if (s > winning_score_[cell]) {
      winning_score_[cell] = s;
      next[cell] = id;
    }
    if (track) {
      entrants[entering] = {cell, s};
      entering += static_cast<std::size_t>(every_cell | (s >= lowest[cell]));
    }
  }
  for (std::size_t i = 0; i < entering; ++i) {
    const auto [cell, s] = entrants[i];
    if (join_spread(cell, id, s, opens_domain, few_domains)) mark_spread(cell);
  }
  if (track) spread_.filled = std::min(spread_.k, node_count());
  assign(std::move(next));
  return id;
}

bool HrwBackend::remove_node(NodeId node) {
  retire(node);
  node_weight_[node] = 0.0;

  // Only the cells the departed node won change hands, and only the
  // tracked sets holding it can change.
  std::vector<NodeId> next(grid_.owners());
  if (begin_spread_event()) {
    // With every set full and the survivors spanning k domains, each
    // member leads its own domain, so one score scan finds the
    // departed member's successor.
    const bool leaders = spread_.filled == spread_.k &&
                         live_domains(kInvalidNode).size() >= spread_.k;
    for (std::size_t cell = 0; cell < grid_.size(); ++cell) {
      std::size_t rank = 0;
      while (rank < spread_.filled && spread_.node_at(cell, rank) != node) {
        ++rank;
      }
      if (rank == spread_.filled) continue;
      if (leaders) {
        replace_leader(cell, rank);
        mark_spread(cell);
      } else {
        walk_spread(cell);
        if (store_spread(cell)) mark_spread(cell);
      }
      // The set always holds the cell's top live node, at rank 0.
      if (next[cell] == node) {
        next[cell] = spread_.node_at(cell, 0);
        winning_score_[cell] = spread_.score_at(cell, 0);
      }
    }
    spread_.filled = std::min(spread_.k, node_count());
  } else {
    // Rerun the rendezvous among the survivors for the departed node's
    // cells.
    const std::vector<std::uint32_t> no_domains;
    for (std::size_t cell = 0; cell < next.size(); ++cell) {
      if (next[cell] != node) continue;
      const auto [best, winner] = top_live(cell, no_domains);
      next[cell] = winner;
      winning_score_[cell] = best;
    }
  }
  assign(std::move(next));
  return true;
}

HashIndex HrwBackend::replica_set_into(HashIndex index, std::size_t k,
                                       std::vector<NodeId>& out,
                                       WalkStop stop) const {
  COBALT_REQUIRE(k >= 1, "a replica set needs at least one member");
  const std::size_t want = std::min(k, node_count());
  out.clear();
  if (want == 0) return HashSpace::kMaxIndex;
  out.reserve(want);
  const std::size_t cell = grid_.cell_of(index);
  const HashIndex extent = grid_.cell_last(cell);
  // The stored winner decides rank 0 even in the (measure-zero) event
  // of a score tie, keeping replica_set exactly consistent with
  // owner_of; the other live nodes follow in (score desc, id asc)
  // order, so the k-prefix invariant of the concept holds.
  const NodeId owner = grid_.owner(cell);
  out.push_back(owner);
  if (stop(owner) || want == 1) return extent;
  // Thread-local, not a member: the call is const, and each thread
  // that calls it keeps its own allocation-free ranking buffer.
  static thread_local std::vector<std::pair<double, NodeId>> ranked;
  ranked.clear();
  ranked.reserve(node_count());
  for (const NodeId node : live_ids_) {
    if (node != owner) ranked.emplace_back(score(cell, node), node);
  }
  // A max-heap in rank order, popped lazily: a walk that stops after a
  // few ranks never orders the rest.
  const auto ranks_below = [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  std::make_heap(ranked.begin(), ranked.end(), ranks_below);
  auto heap_end = ranked.end();
  while (out.size() < want) {
    std::pop_heap(ranked.begin(), heap_end, ranks_below);
    --heap_end;
    out.push_back(heap_end->second);
    if (stop(heap_end->second)) break;
  }
  return extent;
}

HashIndex HrwBackend::replica_set_into(HashIndex index,
                                       const ReplicationSpec& spec,
                                       std::vector<NodeId>& out) const {
  const SpreadPolicy policy =
      topology() == nullptr ? SpreadPolicy::kNone : spec.spread;
  const SpreadCells& t = spread_;
  if (!t.armed || t.k != spec.k || t.policy != policy ||
      t.filled != std::min(spec.k, node_count())) {
    return ReplicationSurface::replica_set_into(index, spec, out);
  }
  // The set is kept in rank order; its spread order puts each domain's
  // first member (rank order) ahead of the others (rank order). Every
  // top-up member's domain leader is in the set, so the set's own
  // first-of-domain marks are the walk's.
  const std::size_t cell = grid_.cell_of(index);
  out.clear();
  for (std::size_t rank = 0; rank < t.filled; ++rank) {
    const NodeId node = t.node_at(cell, rank);
    const bool leads = std::none_of(out.begin(), out.end(), [&](NodeId m) {
      return t.domain[m] == t.domain[node];
    });
    if (leads) out.push_back(node);
  }
  const std::size_t leaders = out.size();
  for (std::size_t rank = 0; rank < t.filled; ++rank) {
    const NodeId node = t.node_at(cell, rank);
    if (std::find(out.begin(), out.begin() + leaders, node) ==
        out.begin() + leaders) {
      out.push_back(node);
    }
  }
  return grid_.cell_last(cell);
}

std::vector<HashRange> HrwBackend::replica_dirty_ranges(std::size_t k) const {
  return replica_dirty_ranges(ReplicationSpec{k, SpreadPolicy::kNone});
}

std::vector<HashRange> HrwBackend::replica_dirty_ranges(
    const ReplicationSpec& spec) const {
  COBALT_REQUIRE(spec.k >= 1, "a replica set needs at least one member");
  // Rank 0 is the stored grid winner, and the grid's k = 1 successor
  // report is exactly its changed runs (one owner separates each).
  if (spec.k == 1) return GridScheme::replica_dirty_ranges(1);
  std::vector<HashRange> dirty;
  if (node_count() == 0) return dirty;
  const SpreadPolicy policy =
      topology() == nullptr ? SpreadPolicy::kNone : spec.spread;
  if (!spread_.armed || spread_.k != spec.k || spread_.policy != policy) {
    arm_spread(spec.k, policy);
  }
  if (spread_.full) return {{0, HashSpace::kMaxIndex}};
  for (const auto& [run_first, run_last] : spread_.changed) {
    dirty.push_back({grid_.cell_first(run_first), grid_.cell_last(run_last)});
  }
  return dirty;
}

void HrwBackend::arm_spread(std::size_t k, SpreadPolicy policy) const {
  spread_.armed = true;
  spread_.k = k;
  spread_.policy = policy;
  spread_.filled = 0;
  spread_.cells = grid_.size();
  spread_.nodes.assign(grid_.size() * k, kInvalidNode);
  spread_.scores.assign(grid_.size() * k, 0.0);
  load_domains();
  for (std::size_t cell = 0; cell < grid_.size(); ++cell) {
    walk_spread(cell);
    store_spread(cell);
  }
  spread_.filled = std::min(k, node_count());
  spread_.full = true;
  spread_.changed.clear();
}

void HrwBackend::load_domains() const {
  spread_.domain.resize(node_live_.size());
  for (const NodeId node : live_ids_) {
    spread_.domain[node] =
        spread_.policy == SpreadPolicy::kNone
            ? node
            : detail::spread_domain_of(*topology(), node, spread_.policy);
  }
}

bool HrwBackend::begin_spread_event() const {
  if (!spread_.armed) return false;
  spread_.full = false;
  spread_.changed.clear();
  load_domains();
  return true;
}

void HrwBackend::mark_spread(std::size_t cell) const {
  if (!spread_.changed.empty() && spread_.changed.back().second + 1 == cell) {
    spread_.changed.back().second = cell;
  } else {
    spread_.changed.emplace_back(cell, cell);
  }
}

const std::vector<std::uint32_t>& HrwBackend::live_domains(
    NodeId skip) const {
  auto& domains = spread_.domains;
  domains.clear();
  for (const NodeId node : live_ids_) {
    const std::uint32_t domain = spread_.domain[node];
    if (node != skip &&
        std::find(domains.begin(), domains.end(), domain) == domains.end()) {
      domains.push_back(domain);
    }
  }
  return domains;
}

void HrwBackend::replace_leader(std::size_t cell, std::size_t rank) const {
  // The other members keep leading their domains; the best live node
  // outside those domains leads its own and outranks every other
  // candidate, so it takes the freed place, at its rank.
  SpreadCells& t = spread_;
  const std::size_t k = t.k;
  for (std::size_t i = rank; i + 1 < k; ++i) {
    t.node_at(cell, i) = t.node_at(cell, i + 1);
    t.score_at(cell, i) = t.score_at(cell, i + 1);
  }
  auto& taken = t.domains;
  taken.clear();
  for (std::size_t i = 0; i + 1 < k; ++i) {
    taken.push_back(t.domain[t.node_at(cell, i)]);
  }
  settle(cell, k - 1, top_live(cell, taken));
}

void HrwBackend::settle(std::size_t cell, std::size_t at,
                        std::pair<double, NodeId> entry) const {
  SpreadCells& t = spread_;
  for (; at > 0 && outranks(entry, {t.score_at(cell, at - 1),
                                    t.node_at(cell, at - 1)});
       --at) {
    t.node_at(cell, at) = t.node_at(cell, at - 1);
    t.score_at(cell, at) = t.score_at(cell, at - 1);
  }
  t.node_at(cell, at) = entry.second;
  t.score_at(cell, at) = entry.first;
}

void HrwBackend::walk_spread(std::size_t cell) const {
  // The stopped spread walk of replica_set_into, on the per-event
  // domain array: pop live nodes in rank order until k domains.
  auto& heap = spread_.heap;
  heap.clear();
  for (const NodeId node : live_ids_) {
    heap.emplace_back(score(cell, node), node);
  }
  const auto ranks_below = [](const auto& a, const auto& b) {
    return outranks(b, a);
  };
  std::make_heap(heap.begin(), heap.end(), ranks_below);
  auto& walked = spread_.walked;
  walked.clear();
  std::size_t domains = 0;
  for (auto end = heap.end(); end != heap.begin() && domains < spread_.k;
       --end) {
    std::pop_heap(heap.begin(), end, ranks_below);
    const std::uint32_t domain = spread_.domain[(end - 1)->second];
    const bool fresh =
        std::none_of(walked.begin(), walked.end(), [&](const auto& e) {
          return spread_.domain[e.second] == domain;
        });
    if (fresh) ++domains;
    walked.push_back(*(end - 1));
  }
}

bool HrwBackend::join_spread(std::size_t cell, NodeId node, double s,
                             bool opens_domain, bool few_domains) const {
  SpreadCells& t = spread_;
  const std::size_t k = t.k;
  const std::size_t filled = t.filled;
  const std::pair<double, NodeId> joiner{s, node};
  const auto member = [&](std::size_t rank) {
    return std::pair<double, NodeId>{t.score_at(cell, rank),
                                     t.node_at(cell, rank)};
  };
  const bool full = filled == k;
  if (full && !(opens_domain && few_domains) &&
      !outranks(joiner, member(k - 1))) {
    return false;  // below the set's lowest member (sets are rank-ordered)
  }
  if (full && !few_domains) {
    // Every member leads its own domain: the joiner displaces its
    // domain's member if it outranks it, else the lowest member.
    std::size_t at = k - 1;
    for (std::size_t i = 0; i < k; ++i) {
      if (t.domain[t.node_at(cell, i)] != t.domain[node]) continue;
      if (!outranks(joiner, member(i))) return false;
      at = i;
      break;
    }
    settle(cell, at, joiner);
    return true;
  }
  // Fewer than k live domains (or members): the spread set of the old
  // set plus the joiner, which holds every live domain's leader.
  auto& merged = t.walked;
  merged.clear();
  for (std::size_t i = 0; i < filled; ++i) {
    if (merged.size() == i && outranks(joiner, member(i))) {
      merged.push_back(joiner);
    }
    merged.push_back(member(i));
  }
  if (merged.size() == filled) merged.push_back(joiner);
  return store_spread(cell);
}

bool HrwBackend::store_spread(std::size_t cell) const {
  // The spread set of the ranked `walked`: its first k domain leaders,
  // topped up with its best-ranked other nodes. Ranks and domains are
  // fixed, so the set's membership decides its spread order; the set is
  // kept in rank order.
  SpreadCells& t = spread_;
  const auto& walked = t.walked;
  auto& first = t.first;
  first.resize(walked.size());
  std::size_t leaders = 0;
  for (std::size_t i = 0; i < walked.size(); ++i) {
    const std::uint32_t domain = t.domain[walked[i].second];
    first[i] = std::none_of(walked.begin(), walked.begin() + i,
                            [&](const auto& e) {
                              return t.domain[e.second] == domain;
                            });
    leaders += first[i];
  }
  std::size_t take_leaders = std::min(t.k, leaders);
  std::size_t take_rest = std::min(t.k - take_leaders, walked.size() - leaders);
  std::size_t size = 0;
  bool changed = false;
  for (std::size_t i = 0; i < walked.size(); ++i) {
    std::size_t& quota = first[i] ? take_leaders : take_rest;
    if (quota == 0) continue;
    --quota;
    if (size >= t.filled || t.node_at(cell, size) != walked[i].second) {
      changed = true;
    }
    t.node_at(cell, size) = walked[i].second;
    t.score_at(cell, size) = walked[i].first;
    ++size;
  }
  return changed || size != t.filled;
}

double HrwBackend::weight_of(NodeId node) const {
  COBALT_REQUIRE(node < node_weight_.size(), "unknown node");
  return node_weight_[node];
}

}  // namespace cobalt::placement
