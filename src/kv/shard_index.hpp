// cobalt/kv/shard_index.hpp
//
// The KV store's resident-key index: hash-range shards, each stored
// as flat arrays over one byte arena.
//
// A shard covers one contiguous, inclusive range of R_h; the shards
// tile the whole range (shard i covers [shards[i].first,
// shards[i+1].first - 1], the last one up to 2^64 - 1). Range counts
// sum per-shard entry totals instead of walking entries.
//
// Point path. The hash spreads keys uniformly over R_h, so neither
// search of a point operation needs to be a binary search:
//   * shard_of - a radix directory over the top `bits` bits of the
//     hash names the shard holding each bucket's first index, and a
//     short forward scan of the shard starts finishes the lookup.
//     bits = max(kMinDirectoryBits, ceil(log2(shard count))), so a
//     bucket holds about one shard start or fewer; splits and folds
//     shift the suffix of the table by one, and it is rebuilt with
//     one more bit when the shard count passes 2^bits (it never
//     shrinks). At kv_point_1m's ~11.2k shards it is 16k uint32_t
//     entries, 0.07 bytes per key.
//   * Shard::lower_bound - an interpolation search: the first probe is
//     the hash's proportional position inside the shard's tiling
//     range, a gallop brackets the answer and a binary search of the
//     bracket ends it, so clustered or folded ranges still cost
//     O(log n). Every in-shard search (find, upper_bound, count_range,
//     the store's writes, scans and repair patches) is this one; an
//     insert takes the position its caller's search found.
//
// Flat layout. A shard keeps its entries as parallel arrays, sorted by
// hash, one slot per resident entry:
//   * hashes  - the sorted HashIndex array (colliding keys sit inline
//     as adjacent equal hashes, so no per-hash container exists);
//   * offsets - uint32_t positions of each entry's record in the
//     shard's byte arena, one record per entry laid out as
//     [varint key_len][varint value_len][key][value];
//   * sets    - one byte per entry, an index into the shard's palette.
// An overwrite of equal value length happens in place; erases and
// resized overwrites leave garbage, compacted as soon as it exceeds
// the live bytes. A write that would push an arena past its uint32_t
// offset range fails with COBALT_REQUIRE instead of wrapping. At
// 13-byte keys and 4-byte values an entry costs 8 + 4 + 1 + 19 bytes
// plus vector slack: about 50 bytes of heap per key, against about
// 194 for the seed's one Bucket (with two heap vectors) per hash.
//
// The materialized replica sets live in a per-shard *palette*: the
// distinct sets stored back to back in one NodeId array, each with a
// 32-bit fingerprint that keeps the search for a set short. Index 0 is
// the shard's own set; an entry whose index is not 0 carries an
// *override* (1 byte). The store's repair passes split shards at
// replica-set arc boundaries (when the arcs are at least
// kMinArcBuckets wide) so a shard lies inside one arc; where that
// cannot hold cheaply - a write into a range whose boundary no repair
// has seen yet, or schemes whose arcs are finer than kMinArcBuckets
// (the cell-grained grids) - entries take another palette index,
// dissolved whenever a repair finds the range uniform again. Every
// piece a split makes is re-anchored: its set 0 becomes the most
// common set among its entries (the stored sets only, no backend
// call), so a size split inside one arc leaves no overrides behind.
// Overrides are not rare: while a split copied the parent's set into
// its tail, 99.8% of kv_point_1m's preloaded entries carried one;
// re-anchored, 1.7% do (the shards straddling an arc boundary), and
// about half of the cell-grained schemes' entries do at 200k keys.
//
// The index is a pure container: it never talks to a placement
// backend. The store decides replica sets and arc boundaries; the
// index provides the structural primitives (size splits, merges, the
// repair pass's wholesale adopt()) and keeps the tiling, ordering and
// entry-count bookkeeping honest. Like the store that owns it, it is
// single-threaded: no call synchronizes with any other.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <ranges>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "hashing/hash_space.hpp"
#include "placement/types.hpp"

namespace cobalt::kv {

/// Hash-range shards over flat per-shard arrays and byte arenas.
class ShardIndex {
 public:
  /// A replica set as stored: a view into a shard's palette (valid
  /// until the shard's next write).
  using ReplicaSet = std::span<const placement::NodeId>;

  /// "No such entry" (Shard::find).
  static constexpr std::size_t npos = ~std::size_t{0};

  /// Replica sets one shard's palette can hold (the per-entry index is
  /// one byte). A shard holds at most kSplitBuckets + 1 distinct
  /// hashes and the entries at one hash share a set, so its referenced
  /// sets always fit; unreferenced ones are dropped once the palette
  /// doubles the sets its last repack kept (see Shard::intern).
  static constexpr std::size_t kMaxSets = 256;

  /// Largest arena a shard can address through its uint32_t offsets.
  static constexpr std::size_t kMaxArenaBytes =
      std::numeric_limits<std::uint32_t>::max();

  /// One contiguous hash range's resident entries (see the header:
  /// sorted hashes, record offsets and palette indices over one byte
  /// arena) and the palette of their materialized replica sets. The
  /// range itself is tiling metadata (shard_first / shard_last).
  class Shard {
   public:
    /// Resident entries.
    [[nodiscard]] std::size_t size() const { return hashes_.size(); }
    [[nodiscard]] bool empty() const { return hashes_.empty(); }

    /// Distinct resident hashes (entries minus inline collisions): the
    /// count the split rule and the repair's arc regrouping use.
    [[nodiscard]] std::size_t distinct_hashes() const {
      return hashes_.size() - collisions_;
    }

    /// Entries whose palette index is not 0 (fast-path gate: 0 lets
    /// per-node counts and repairs treat the shard as one arc).
    [[nodiscard]] std::size_t override_count() const {
      return override_count_;
    }

    [[nodiscard]] HashIndex hash(std::size_t pos) const {
      return hashes_[pos];
    }
    [[nodiscard]] std::string_view key(std::size_t pos) const;
    [[nodiscard]] std::string_view value(std::size_t pos) const;

    /// The shard's own set (palette index 0; empty only while the
    /// shard has never been written).
    [[nodiscard]] ReplicaSet replicas() const {
      return set_ends_.empty() ? ReplicaSet{} : palette_set(0);
    }

    /// The materialized replica set of the entry at `pos`.
    [[nodiscard]] ReplicaSet replicas(std::size_t pos) const {
      return palette_set(sets_[pos]);
    }

    /// First position whose hash is >= `hash` (size() if none).
    /// `range` is the shard's tiling range (ShardIndex::shard_range):
    /// it scales the interpolation search's first probe, so any hash
    /// is accepted, but one inside it is found fastest.
    [[nodiscard]] std::size_t lower_bound(HashIndex hash,
                                          placement::HashRange range) const;
    /// First position whose hash is > `hash` (size() if none).
    [[nodiscard]] std::size_t upper_bound(HashIndex hash,
                                          placement::HashRange range) const;
    /// End of the run of entries sharing the hash at `pos`.
    [[nodiscard]] std::size_t run_end(std::size_t pos) const;
    /// Position of `key` among the entries at `hash`, or npos.
    [[nodiscard]] std::size_t find(HashIndex hash, std::string_view key,
                                   placement::HashRange range) const {
      return find_from(lower_bound(hash, range), hash, key);
    }
    /// Position of `key` in the run of entries at `hash` that starts at
    /// `pos` (a lower_bound of `hash`), or npos: find() without the
    /// search, for a caller that already holds the position.
    [[nodiscard]] std::size_t find_from(std::size_t pos, HashIndex hash,
                                        std::string_view key) const;

    /// Arena bytes in use (live records plus garbage).
    [[nodiscard]] std::size_t arena_bytes() const { return arena_.size(); }
    /// Arena bytes held by erased or superseded records.
    [[nodiscard]] std::size_t garbage_bytes() const { return garbage_; }

    /// Makes `replicas` the materialized set of the entries in
    /// [first_pos, end_pos) (an override unless it equals set 0).
    void set_replicas(std::size_t first_pos, std::size_t end_pos,
                      ReplicaSet replicas);

    /// Makes `replicas` the shard's set and drops every override (the
    /// repair pass found the shard to be one arc; on an empty shard,
    /// the set future puts are checked against).
    void adopt(ReplicaSet replicas);

   private:
    friend class ShardIndex;

    [[nodiscard]] ReplicaSet palette_set(std::size_t index) const {
      const std::size_t begin = index == 0 ? 0 : set_ends_[index - 1];
      return {palette_.data() + begin, set_ends_[index] - begin};
    }
    [[nodiscard]] std::size_t palette_size() const {
      return set_ends_.size();
    }
    /// The palette index of `replicas`, appending it when new (first
    /// dropping unreferenced sets once they may outnumber the rest).
    std::uint8_t intern(ReplicaSet replicas);
    /// Rebuilds the palette from the referenced sets only, with set
    /// `anchor` as the new index 0.
    void repack(std::size_t anchor);
    /// repack() around the most common set among the entries (set 0
    /// wins ties, then the lowest index); an empty shard keeps set 0.
    void reanchor();
    /// The median distinct hash (the size split's boundary).
    [[nodiscard]] HashIndex median_hash() const;
    /// Bytes of the record at `pos`.
    [[nodiscard]] std::size_t record_bytes(std::size_t pos) const;
    /// Appends one record to the arena and returns its offset. Fails
    /// (COBALT_REQUIRE, nothing changed) when the arena cannot address
    /// it even after compaction.
    std::uint32_t append_record(std::string_view key, std::string_view value);
    /// Rewrites the arena with the live records only, in entry order.
    void compact() { rebuild_arena(arena_); }
    /// Makes the arena exactly the records `offsets_` addresses in
    /// `source` (this shard's arena, or a split parent's).
    void rebuild_arena(const std::vector<char>& source);
    void compact_if_sparse() {
      if (garbage_ > arena_.size() - garbage_) compact();
    }
    /// Inserts an entry at `pos` (the end of its hash's run).
    void insert_at(std::size_t pos, HashIndex hash, std::string_view key,
                   std::string_view value, ReplicaSet replicas);
    /// Removes the entry at `pos`.
    void remove_at(std::size_t pos);
    /// Counts adjacent equal hashes from scratch.
    void recount_collisions();

    std::vector<HashIndex> hashes_;
    std::vector<std::uint32_t> offsets_;
    std::vector<std::uint8_t> sets_;
    std::vector<char> arena_;
    /// The palette's sets back to back; set j ends at set_ends_[j] and
    /// has fingerprint set_tags_[j].
    std::vector<placement::NodeId> palette_;
    std::vector<std::uint32_t> set_ends_;
    std::vector<std::uint32_t> set_tags_;
    std::uint32_t garbage_ = 0;
    std::uint32_t override_count_ = 0;
    std::uint32_t collisions_ = 0;
    /// Palette size after the last repack or adopt (see intern()).
    std::uint16_t packed_sets_ = 0;
    /// The palette index intern() returned last (a search hint).
    std::uint8_t last_set_ = 0;
  };

  /// Distinct hashes per shard above which an insert of a new hash
  /// splits the shard at its median hash. This bounds the per-insert
  /// memmove of the flat arrays and the in-shard search's worst case.
  static constexpr std::size_t kSplitBuckets = 128;

  /// Smallest radix directory: 2^8 buckets (see the header).
  static constexpr unsigned kMinDirectoryBits = 8;

  /// Minimum average distinct hashes per piece for a repair pass to
  /// split a shard at replica-set arc boundaries: arcs finer than this
  /// (the cell-grained grid schemes) stay as overrides instead of
  /// fragmenting the tiling into per-cell shards.
  static constexpr std::size_t kMinArcBuckets = 16;

  /// An index starts as one empty shard covering all of R_h.
  ShardIndex() : firsts_(1, 0) {
    shards_.push_back(std::make_unique<Shard>());
    rebuild_directory();
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Every shard in range order, as `const Shard&`.
  [[nodiscard]] auto shards() const {
    return std::views::transform(
        shards_, [](const std::unique_ptr<Shard>& s) -> const Shard& {
          return *s;
        });
  }
  [[nodiscard]] Shard& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] const Shard& shard(std::size_t i) const { return *shards_[i]; }

  /// First hash index covered by shard `i`.
  [[nodiscard]] HashIndex shard_first(std::size_t i) const {
    return firsts_[i];
  }

  /// Last hash index covered by shard `i` (inclusive).
  [[nodiscard]] HashIndex shard_last(std::size_t i) const {
    return i + 1 < firsts_.size() ? firsts_[i + 1] - 1 : HashSpace::kMaxIndex;
  }

  /// Shard `i`'s inclusive range, the bounds its in-shard searches
  /// take (Shard::lower_bound).
  [[nodiscard]] placement::HashRange shard_range(std::size_t i) const {
    return {firsts_[i], shard_last(i)};
  }

  /// Radix directory buckets (2^bits; see the header) and the shard
  /// the directory names for bucket `b`, which must hold the bucket's
  /// first index. Exposed for the tests that drive the directory
  /// through its doublings and folds.
  [[nodiscard]] std::size_t directory_size() const {
    return directory_.size();
  }
  [[nodiscard]] std::size_t directory_entry(std::size_t b) const {
    return directory_[b];
  }

  /// Total resident entries across all shards.
  [[nodiscard]] std::uint64_t total_entries() const { return total_entries_; }

  /// Index of the shard whose range contains `index` (always exists:
  /// the shards tile R_h).
  [[nodiscard]] std::size_t shard_of(HashIndex index) const;

  /// Inserts `key` -> `value` at `hash` into shard `shard_index` (which
  /// must contain the hash and not hold the key) at position `pos`: the
  /// end of the run of entries already at `hash` (its lower_bound when
  /// the hash is new), with `replicas` as its materialized set (the
  /// first entry of an empty shard makes it the shard's set). A new
  /// hash in a shard already holding kSplitBuckets distinct hashes
  /// splits the shard at its median hash.
  void insert(std::size_t shard_index, std::size_t pos, HashIndex hash,
              std::string_view key, std::string_view value,
              ReplicaSet replicas);

  /// Overwrites the value of the entry at `pos` of shard `shard_index`.
  void assign(std::size_t shard_index, std::size_t pos, std::string_view value);

  /// Removes the entry at `pos`; a shard left without entries folds
  /// into a neighbour (the tiling never fragments on a pure-erase
  /// workload).
  void erase(std::size_t shard_index, std::size_t pos);

  /// Splits shard `i` at `boundary` (which must lie strictly inside
  /// its range): shard i keeps [first, boundary - 1], a new shard i+1
  /// takes [boundary, old end] with the entries at or above `boundary`
  /// (a boundary is a hash value, so equal hashes never separate). Both
  /// pieces are re-anchored on their most common set; an empty piece
  /// keeps the parent's set.
  void split_shard(std::size_t i, HashIndex boundary);

  /// Entries whose hash falls inside [first, last]: whole shards by
  /// size, boundary shards by the in-shard search.
  [[nodiscard]] std::uint64_t count_range(HashIndex first,
                                          HashIndex last) const;

 private:
  /// Sizes the directory for the shard count and refills it from
  /// firsts_.
  void rebuild_directory();
  /// Adds `delta` (+1 or -1) to every directory bucket whose first
  /// index is >= `first`: the shards at and after a new or removed
  /// start move by one.
  void shift_directory(HashIndex first, int delta);

  /// The tiling: shard i covers [firsts_[i], firsts_[i + 1] - 1]. The
  /// starts are a dense array of their own, so shard_of's scan reads
  /// and a split's insertion moves 8 bytes per shard, and each shard
  /// lives behind a pointer that a split never moves.
  std::vector<HashIndex> firsts_;
  /// The radix directory: directory_[b] is the shard holding
  /// b << directory_shift_, the first index of bucket b.
  std::vector<std::uint32_t> directory_;
  unsigned directory_shift_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t total_entries_ = 0;
};

}  // namespace cobalt::kv
