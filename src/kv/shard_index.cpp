#include "kv/shard_index.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>

namespace cobalt::kv {

namespace {

// Arena records are [varint key_len][varint value_len][key][value],
// the varints LEB128 (7 bits per byte, high bit = more).

std::size_t varint_bytes(std::size_t value) {
  std::size_t bytes = 1;
  for (; value >= 0x80; value >>= 7) ++bytes;
  return bytes;
}

char* put_varint(char* out, std::size_t value) {
  for (; value >= 0x80; value >>= 7) {
    *out++ = static_cast<char>((value & 0x7F) | 0x80);
  }
  *out++ = static_cast<char>(value);
  return out;
}

const char* get_varint(const char* in, std::size_t& value) {
  value = 0;
  for (unsigned shift = 0;; shift += 7) {
    const auto byte = static_cast<unsigned char>(*in++);
    value |= static_cast<std::size_t>(byte & 0x7F) << shift;
    if (byte < 0x80) return in;
  }
}

/// One decoded record: where its key starts and both lengths.
struct Record {
  const char* key;
  std::size_t key_len;
  std::size_t value_len;
};

Record decode(const char* record) {
  Record r{};
  record = get_varint(record, r.key_len);
  r.key = get_varint(record, r.value_len);
  return r;
}

/// A replica set's palette tag: a 32-bit fingerprint that lets the
/// palette search skip non-matching sets without reading them.
std::uint32_t set_tag(std::span<const placement::NodeId> replicas) {
  std::uint32_t tag = static_cast<std::uint32_t>(replicas.size());
  for (const placement::NodeId node : replicas) {
    tag = (tag ^ node) * 0x9E3779B1u;
  }
  return tag;
}

/// Bytes of the whole record starting at `record`.
std::size_t record_size(const char* record) {
  const Record r = decode(record);
  return static_cast<std::size_t>(r.key - record) + r.key_len + r.value_len;
}

}  // namespace

// --- Shard -----------------------------------------------------------

std::string_view ShardIndex::Shard::key(std::size_t pos) const {
  const Record r = decode(arena_.data() + offsets_[pos]);
  return {r.key, r.key_len};
}

std::string_view ShardIndex::Shard::value(std::size_t pos) const {
  const Record r = decode(arena_.data() + offsets_[pos]);
  return {r.key + r.key_len, r.value_len};
}

std::size_t ShardIndex::Shard::lower_bound(
    HashIndex hash, placement::HashRange range) const {
  const HashIndex* const h = hashes_.data();
  const std::size_t n = hashes_.size();
  const auto search = [h, hash](std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(std::lower_bound(h + lo, h + hi, hash) -
                                    h);
  };
  if (n == 0) return 0;
  // The first probe: where `hash` would sit if the entries spread
  // evenly over the range. Double precision is plenty for a guess.
  std::size_t guess = 0;
  if (hash >= range.last) {
    guess = n - 1;
  } else if (hash > range.first) {
    const double share = static_cast<double>(hash - range.first) /
                         (static_cast<double>(range.last - range.first) + 1.0);
    guess = std::min(n - 1, static_cast<std::size_t>(share *
                                                     static_cast<double>(n)));
  }
  // Gallop away from the guess, doubling the step, until a probe lands
  // on the answer's other side; the binary search then covers only the
  // last step.
  std::size_t step = 1;
  if (h[guess] < hash) {
    std::size_t lo = guess + 1;  // everything before lo is < hash
    for (;; step *= 2) {
      const std::size_t probe = lo - 1 + step;
      if (probe >= n) return search(lo, n);
      if (h[probe] >= hash) return search(lo, probe);
      lo = probe + 1;
    }
  }
  std::size_t hi = guess;  // h[hi] >= hash
  for (;; step *= 2) {
    if (hi < step) return search(0, hi);
    const std::size_t probe = hi - step;
    if (h[probe] < hash) return search(probe + 1, hi);
    hi = probe;
  }
}

std::size_t ShardIndex::Shard::upper_bound(HashIndex hash,
                                           placement::HashRange range) const {
  return hash == HashSpace::kMaxIndex ? hashes_.size()
                                      : lower_bound(hash + 1, range);
}

std::size_t ShardIndex::Shard::run_end(std::size_t pos) const {
  std::size_t end = pos + 1;
  while (end < hashes_.size() && hashes_[end] == hashes_[pos]) ++end;
  return end;
}

std::size_t ShardIndex::Shard::find_from(std::size_t pos, HashIndex hash,
                                         std::string_view key) const {
  for (; pos < hashes_.size() && hashes_[pos] == hash; ++pos) {
    if (this->key(pos) == key) return pos;
  }
  return npos;
}

void ShardIndex::Shard::set_replicas(std::size_t first_pos,
                                     std::size_t end_pos,
                                     ReplicaSet replicas) {
  if (first_pos == end_pos) return;
  const std::uint8_t set = intern(replicas);
  for (std::size_t pos = first_pos; pos < end_pos; ++pos) {
    if (sets_[pos] != 0) --override_count_;
    sets_[pos] = set;
    if (set != 0) ++override_count_;
  }
}

void ShardIndex::Shard::adopt(ReplicaSet replicas) {
  std::fill(sets_.begin(), sets_.end(), std::uint8_t{0});
  override_count_ = 0;
  if (!set_ends_.empty() && std::ranges::equal(palette_set(0), replicas)) {
    palette_.resize(set_ends_.front());  // drop the other sets
    set_ends_.resize(1);
    set_tags_.resize(1);
    packed_sets_ = 1;
    return;
  }
  palette_.assign(replicas.begin(), replicas.end());
  set_ends_.assign(1, static_cast<std::uint32_t>(palette_.size()));
  set_tags_.assign(1, set_tag(replicas));
  packed_sets_ = 1;
}

std::uint8_t ShardIndex::Shard::intern(ReplicaSet replicas) {
  // Repairs assign runs of neighbouring hashes, which mostly share a
  // set: try the last one interned before the scan.
  const std::uint32_t tag = set_tag(replicas);
  if (last_set_ < palette_size() && set_tags_[last_set_] == tag &&
      std::ranges::equal(palette_set(last_set_), replicas)) {
    return last_set_;
  }
  for (std::size_t j = 0; j < palette_size(); ++j) {
    if (set_tags_[j] == tag && std::ranges::equal(palette_set(j), replicas)) {
      last_set_ = static_cast<std::uint8_t>(j);
      return last_set_;
    }
  }
  // Repairs replace sets, so the palette collects sets no entry
  // references. Drop them once it holds twice the sets the last repack
  // kept, plus slack: the next repack then comes at least as many new
  // sets later as this one keeps, and never fewer than the slack,
  // which keeps the scan above short and amortizes a repack's O(size)
  // over those new sets.
  constexpr std::size_t kSlack = 8;
  if (palette_size() == kMaxSets ||
      palette_size() >= 2 * std::size_t{packed_sets_} + kSlack) {
    repack(0);
    COBALT_INVARIANT(palette_size() < kMaxSets,
                     "a shard references more replica sets than its "
                     "palette holds");
  }
  palette_.insert(palette_.end(), replicas.begin(), replicas.end());
  set_ends_.push_back(static_cast<std::uint32_t>(palette_.size()));
  set_tags_.push_back(tag);
  last_set_ = static_cast<std::uint8_t>(palette_size() - 1);
  return last_set_;
}

void ShardIndex::Shard::repack(std::size_t anchor) {
  if (set_ends_.empty()) return;  // never written
  std::array<std::uint32_t, kMaxSets> uses{};
  for (const std::uint8_t set : sets_) ++uses[set];
  std::array<std::uint8_t, kMaxSets> remap{};
  std::vector<placement::NodeId> palette;
  std::vector<std::uint32_t> ends;
  std::vector<std::uint32_t> tags;
  const auto keep = [&](std::size_t j) {
    remap[j] = static_cast<std::uint8_t>(ends.size());
    const ReplicaSet set = palette_set(j);
    palette.insert(palette.end(), set.begin(), set.end());
    ends.push_back(static_cast<std::uint32_t>(palette.size()));
    tags.push_back(set_tags_[j]);
  };
  keep(anchor);
  for (std::size_t j = 0; j < palette_size(); ++j) {
    if (j != anchor && uses[j] > 0) keep(j);
  }
  for (std::uint8_t& set : sets_) set = remap[set];
  palette_ = std::move(palette);
  set_ends_ = std::move(ends);
  set_tags_ = std::move(tags);
  packed_sets_ = static_cast<std::uint16_t>(set_ends_.size());
  override_count_ = static_cast<std::uint32_t>(sets_.size() - uses[anchor]);
}

void ShardIndex::Shard::reanchor() {
  std::array<std::uint32_t, kMaxSets> uses{};
  for (const std::uint8_t set : sets_) ++uses[set];
  std::size_t best = 0;
  for (std::size_t j = 1; j < palette_size(); ++j) {
    if (uses[j] > uses[best]) best = j;
  }
  repack(best);
}

HashIndex ShardIndex::Shard::median_hash() const {
  if (collisions_ == 0) return hashes_[hashes_.size() / 2];
  const std::size_t median = distinct_hashes() / 2;
  std::size_t pos = 0;
  for (std::size_t seen = 0; seen < median; ++seen) pos = run_end(pos);
  return hashes_[pos];
}

std::size_t ShardIndex::Shard::record_bytes(std::size_t pos) const {
  return record_size(arena_.data() + offsets_[pos]);
}

std::uint32_t ShardIndex::Shard::append_record(std::string_view key,
                                               std::string_view value) {
  const std::size_t bytes = varint_bytes(key.size()) +
                            varint_bytes(value.size()) + key.size() +
                            value.size();
  if (bytes > kMaxArenaBytes - arena_.size() && garbage_ > 0) compact();
  COBALT_REQUIRE(bytes <= kMaxArenaBytes - arena_.size(),
                 "the write does not fit its shard's arena (uint32_t "
                 "record offsets)");
  const auto offset = static_cast<std::uint32_t>(arena_.size());
  arena_.resize(arena_.size() + bytes);
  char* out = put_varint(arena_.data() + offset, key.size());
  out = put_varint(out, value.size());
  std::memcpy(out, key.data(), key.size());
  std::memcpy(out + key.size(), value.data(), value.size());
  return offset;
}

void ShardIndex::Shard::rebuild_arena(const std::vector<char>& source) {
  std::size_t live = 0;
  for (const std::uint32_t offset : offsets_) {
    live += record_size(source.data() + offset);
  }
  std::vector<char> fresh;
  fresh.reserve(live);
  for (std::uint32_t& offset : offsets_) {
    const char* record = source.data() + offset;
    const std::size_t bytes = record_size(record);
    offset = static_cast<std::uint32_t>(fresh.size());
    fresh.insert(fresh.end(), record, record + bytes);
  }
  arena_ = std::move(fresh);
  garbage_ = 0;
}

void ShardIndex::Shard::insert_at(std::size_t pos, HashIndex hash,
                                  std::string_view key,
                                  std::string_view value,
                                  ReplicaSet replicas) {
  // The record goes first: it is the one step that can refuse, and it
  // refuses before anything changed.
  const std::uint32_t offset = append_record(key, value);
  if (hashes_.empty()) adopt(replicas);  // the first entry anchors the shard
  const std::uint8_t set = intern(replicas);
  if (pos > 0 && hashes_[pos - 1] == hash) ++collisions_;
  if (set != 0) ++override_count_;
  const auto at = static_cast<std::ptrdiff_t>(pos);
  hashes_.insert(hashes_.begin() + at, hash);
  offsets_.insert(offsets_.begin() + at, offset);
  sets_.insert(sets_.begin() + at, set);
}

void ShardIndex::Shard::remove_at(std::size_t pos) {
  const HashIndex hash = hashes_[pos];
  if ((pos > 0 && hashes_[pos - 1] == hash) ||
      (pos + 1 < hashes_.size() && hashes_[pos + 1] == hash)) {
    --collisions_;
  }
  if (sets_[pos] != 0) --override_count_;
  garbage_ += static_cast<std::uint32_t>(record_bytes(pos));
  const auto at = static_cast<std::ptrdiff_t>(pos);
  hashes_.erase(hashes_.begin() + at);
  offsets_.erase(offsets_.begin() + at);
  sets_.erase(sets_.begin() + at);
  if (hashes_.empty()) {
    arena_ = std::vector<char>();  // release the storage
    garbage_ = 0;
  } else {
    compact_if_sparse();
  }
}

void ShardIndex::Shard::recount_collisions() {
  collisions_ = 0;
  for (std::size_t pos = 1; pos < hashes_.size(); ++pos) {
    if (hashes_[pos] == hashes_[pos - 1]) ++collisions_;
  }
}

// --- ShardIndex ------------------------------------------------------

std::size_t ShardIndex::shard_of(HashIndex index) const {
  // The bucket's first index lies in shard i, so `index` lies in i or
  // in one of the shards starting inside the bucket after it.
  std::size_t i = directory_[index >> directory_shift_];
  while (i + 1 < firsts_.size() && firsts_[i + 1] <= index) ++i;
  return i;
}

void ShardIndex::rebuild_directory() {
  COBALT_INVARIANT(
      shards_.size() <= std::numeric_limits<std::uint32_t>::max(),
      "the shard count outgrew the directory's uint32_t entries");
  unsigned bits = kMinDirectoryBits;
  while ((std::size_t{1} << bits) < shards_.size()) ++bits;
  directory_shift_ = HashSpace::kBits - bits;
  directory_.assign(std::size_t{1} << bits, 0);
  std::size_t i = 0;
  for (std::size_t b = 0; b < directory_.size(); ++b) {
    const HashIndex start = HashIndex{b} << directory_shift_;
    while (i + 1 < firsts_.size() && firsts_[i + 1] <= start) ++i;
    directory_[b] = static_cast<std::uint32_t>(i);
  }
}

void ShardIndex::shift_directory(HashIndex first, int delta) {
  // The first bucket whose first index is >= first (first > 0: shard
  // 0's start never moves).
  const std::size_t from =
      static_cast<std::size_t>((first - 1) >> directory_shift_) + 1;
  // Unsigned wrap-around makes -1 a decrement.
  const auto step = static_cast<std::uint32_t>(delta);
  for (std::size_t b = from; b < directory_.size(); ++b) {
    directory_[b] += step;
  }
}

void ShardIndex::insert(std::size_t shard_index, std::size_t pos,
                        HashIndex hash, std::string_view key,
                        std::string_view value, ReplicaSet replicas) {
  Shard& s = *shards_[shard_index];
  // A new hash in a full shard splits it at its median hash (taken
  // before the insert, so the boundary is the seed's), keeping the
  // flat arrays' memmove bounded by kSplitBuckets.
  const bool resident = pos > 0 && s.hashes_[pos - 1] == hash;
  const HashIndex first = firsts_[shard_index];
  const HashIndex boundary = !resident && s.distinct_hashes() >= kSplitBuckets
                                 ? s.median_hash()
                                 : first;
  s.insert_at(pos, hash, key, value, replicas);
  ++total_entries_;
  // Split after the insert, so the re-anchoring counts the new entry.
  if (boundary > first) split_shard(shard_index, boundary);
}

void ShardIndex::assign(std::size_t shard_index, std::size_t pos,
                        std::string_view value) {
  Shard& s = *shards_[shard_index];
  char* record = s.arena_.data() + s.offsets_[pos];
  const Record r = decode(record);
  if (r.value_len == value.size()) {
    std::memcpy(record + (r.key - record) + r.key_len, value.data(),
                value.size());
    return;
  }
  // A resized value gets a fresh record; the old one becomes garbage.
  const std::string key(r.key, r.key_len);  // the arena may move
  const std::size_t old_bytes = s.record_bytes(pos);
  const std::uint32_t offset = s.append_record(key, value);
  s.offsets_[pos] = offset;
  s.garbage_ += static_cast<std::uint32_t>(old_bytes);
  s.compact_if_sparse();
}

void ShardIndex::erase(std::size_t shard_index, std::size_t pos) {
  shards_[shard_index]->remove_at(pos);
  --total_entries_;
  if (!shards_[shard_index]->empty() || shards_.size() == 1) return;
  // An entry-less shard constrains nothing: drop it, and its range
  // joins the predecessor's (shard 0's joins the successor's, which
  // then starts at 0). The neighbour's set simply covers the range;
  // the store's write path re-verifies any future put there anyway.
  const std::size_t dropped_first = shard_index > 0 ? shard_index : 1;
  shift_directory(firsts_[dropped_first], -1);
  firsts_.erase(firsts_.begin() + static_cast<std::ptrdiff_t>(dropped_first));
  shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(shard_index));
}

void ShardIndex::split_shard(std::size_t i, HashIndex boundary) {
  COBALT_INVARIANT(boundary > firsts_[i] && boundary <= shard_last(i),
                   "split boundary outside the shard");
  Shard& s = *shards_[i];
  const auto cut =
      static_cast<std::ptrdiff_t>(s.lower_bound(boundary, shard_range(i)));
  auto owned_tail = std::make_unique<Shard>();
  Shard& tail = *owned_tail;
  tail.hashes_.assign(s.hashes_.begin() + cut, s.hashes_.end());
  tail.offsets_.assign(s.offsets_.begin() + cut, s.offsets_.end());
  tail.sets_.assign(s.sets_.begin() + cut, s.sets_.end());
  tail.palette_ = s.palette_;
  tail.set_ends_ = s.set_ends_;
  tail.set_tags_ = s.set_tags_;
  // The tail's offsets still point into the parent's arena: copy its
  // live records out, then drop them from the head.
  tail.rebuild_arena(s.arena_);
  s.hashes_.resize(static_cast<std::size_t>(cut));
  s.offsets_.resize(static_cast<std::size_t>(cut));
  s.sets_.resize(static_cast<std::size_t>(cut));
  s.hashes_.shrink_to_fit();
  s.offsets_.shrink_to_fit();
  s.sets_.shrink_to_fit();
  s.compact();
  s.recount_collisions();
  tail.recount_collisions();
  s.reanchor();
  tail.reanchor();
  const auto at = static_cast<std::ptrdiff_t>(i) + 1;
  firsts_.insert(firsts_.begin() + at, boundary);
  shards_.insert(shards_.begin() + at, std::move(owned_tail));
  if (shards_.size() > directory_.size()) {
    rebuild_directory();  // one more bit
  } else {
    shift_directory(boundary, +1);
  }
}

std::uint64_t ShardIndex::count_range(HashIndex first, HashIndex last) const {
  if (first > last) return 0;
  std::uint64_t count = 0;
  std::size_t i = shard_of(first);
  for (; i < shards_.size() && firsts_[i] <= last; ++i) {
    const Shard& s = *shards_[i];
    if (firsts_[i] >= first && shard_last(i) <= last) {
      count += s.size();  // whole shard inside the range
      continue;
    }
    const placement::HashRange range = shard_range(i);
    count += s.upper_bound(last, range) - s.lower_bound(first, range);
  }
  return count;
}

}  // namespace cobalt::kv
