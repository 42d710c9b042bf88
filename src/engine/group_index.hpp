// One group index for every host-side fold.
//
// The hybrid GROUP-BY leaves some subgroups to the host (Section IV), and
// the star join folds its joined rows on the host the same way. Both map a
// tuple of dictionary codes to a dense id and fold one aggregate per id:
//
//   CodeIndex  — dense ids for single 64-bit codes (flat open addressing);
//   TupleIndex — dense ids for fixed-arity code tuples: packed into one
//                word and indexed by a CodeIndex when the fields' maxima
//                fit 64 bits together, a GroupKey hash map otherwise;
//   GroupFold  — a TupleIndex plus one accumulator per id under one
//                aggregate (fold_agg), mergeable and emitted as ResultRows.
//
// The engine's host-gb page walk, its pim-gb results, the GROUP-BY sample
// and the host hash join all fold through GroupFold; the distinct-value
// stats, the co-occurrence build and the pre-join resolve codes through
// CodeIndex.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sql/ast.hpp"

namespace bbpim::engine {

/// The group-attribute codes of one group.
using GroupKey = std::vector<std::uint64_t>;

/// Group-key hash of TupleIndex's wide fallback and the reference oracle.
struct KeyHash {
  std::size_t operator()(const GroupKey& k) const {
    std::size_t h = 1469598103934665603ULL;
    for (const std::uint64_t v : k) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct ResultRow {
  std::vector<std::uint64_t> group;  ///< group-attribute codes
  std::int64_t agg = 0;

  bool operator==(const ResultRow&) const = default;
};

/// One step of an aggregate's per-group fold: MIN, MAX, or a sum (COUNT
/// sums ones).
std::int64_t fold_agg(sql::AggFunc func, std::int64_t acc, std::int64_t v);

/// The largest code of a `width`-bit field: 2^width - 1, all ones at 64.
constexpr std::uint64_t width_max(unsigned width) {
  return width >= 64 ? ~0ULL : (1ULL << width) - 1;
}

/// Dense indices 0, 1, 2, ... for at most `max_codes` codes, in insertion
/// order: a flat open-addressing table (Fibonacci hash, linear probing,
/// load at most 1/2) over the inserted codes. Any code width is fine.
class CodeIndex {
 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  explicit CodeIndex(std::size_t max_codes);

  /// Index of `code`, inserting it as the next index when new. Throws
  /// std::length_error when a new code would exceed max_codes.
  std::uint32_t insert(std::uint64_t code);
  /// Index of `code`, or kAbsent.
  std::uint32_t find(std::uint64_t code) const {
    for (std::size_t s = slot(code);; s = (s + 1) & mask_) {
      const std::uint32_t i = slots_[s];
      if (i == kAbsent || codes_[i] == code) return i;
    }
  }
  /// The inserted codes, in index order.
  const std::vector<std::uint64_t>& codes() const { return codes_; }

 private:
  std::size_t slot(std::uint64_t code) const {
    return static_cast<std::size_t>((code * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::size_t max_codes_;
  int shift_;
  std::size_t mask_;
  std::vector<std::uint32_t> slots_;  // index into codes_, or kAbsent
  std::vector<std::uint64_t> codes_;
};

/// Dense indices 0, 1, 2, ... for fixed-arity code tuples, in insertion
/// order. Field i holds codes up to max_codes[i], so when the bit widths of
/// the maxima sum to at most 64 a tuple packs losslessly into one word and
/// a CodeIndex indexes it, growing by doubling past `capacity`. Wider
/// tuples fall back to a GroupKey hash map. A tuple with a field above its
/// maximum was never inserted, so find returns kAbsent for it without a
/// lookup. A tuple is passed as `field`: either a callable where `field(i)`
/// yields the i-th code or a GroupKey.
class TupleIndex {
 public:
  static constexpr std::uint32_t kAbsent = CodeIndex::kAbsent;

  explicit TupleIndex(std::vector<std::uint64_t> max_codes,
                      std::size_t capacity = 0);

  /// Index of the tuple, inserting it as the next index when new. Every
  /// field must be at most its maximum.
  template <class Field>
  std::uint32_t insert(const Field& field) {
    return packed_ ? insert_packed(pack(field).value())
                   : insert_wide(gather(field));
  }

  /// Index of the tuple, or kAbsent.
  template <class Field>
  std::uint32_t find(const Field& field) const {
    if (!packed_) {
      const auto it = wide_.find(gather(field));
      return it == wide_.end() ? kAbsent : it->second;
    }
    const std::optional<std::uint64_t> pk = pack(field);
    return pk ? packed_index_.find(*pk) : kAbsent;
  }

  /// Index of tuple `i` of `other`, which has the same maxima, inserting it
  /// when new; a packed tuple is reinserted as its word, never unpacked.
  std::uint32_t insert_from(const TupleIndex& other, std::uint32_t i) {
    return packed_ ? insert_packed(other.packed_index_.codes()[i])
                   : insert_wide(other.wide_keys_[i]);
  }

  /// The tuple of index `i`.
  GroupKey key(std::uint32_t i) const;

  /// True when tuples pack into one word (the maxima fit 64 bits).
  bool packed() const { return packed_; }
  const std::vector<std::uint64_t>& max_codes() const { return max_; }

 private:
  template <class Field>
  static std::uint64_t at(const Field& field, std::size_t i) {
    if constexpr (std::is_invocable_v<const Field&, std::size_t>) {
      return field(i);
    } else {
      return field[i];
    }
  }

  /// The tuple packed into one word; nullopt when a field exceeds its
  /// maximum.
  template <class Field>
  std::optional<std::uint64_t> pack(const Field& field) const {
    std::uint64_t pk = 0;
    for (std::size_t i = 0; i < max_.size(); ++i) {
      const std::uint64_t v = at(field, i);
      if (v > max_[i]) return std::nullopt;
      if (v != 0) pk |= v << shift_[i];
    }
    return pk;
  }

  template <class Field>
  const GroupKey& gather(const Field& field) const {
    for (std::size_t i = 0; i < max_.size(); ++i) scratch_[i] = at(field, i);
    return scratch_;
  }

  std::uint32_t insert_packed(std::uint64_t pk);
  std::uint32_t insert_wide(const GroupKey& key);

  std::vector<std::uint64_t> max_;
  std::vector<std::uint32_t> shift_;
  bool packed_ = true;
  std::size_t capacity_;
  CodeIndex packed_index_;
  std::unordered_map<GroupKey, std::uint32_t, KeyHash> wide_;
  std::vector<GroupKey> wide_keys_;
  mutable GroupKey scratch_;  ///< wide lookups gather here; not shared
};

/// Per-group fold of one aggregate: a TupleIndex over the group codes and
/// one accumulator per group id, combined with fold_agg.
class GroupFold {
 public:
  GroupFold(sql::AggFunc func, std::vector<std::uint64_t> max_codes)
      : func_(func), index_(std::move(max_codes)) {}

  /// Folds `v` into the group of the tuple `field` (see TupleIndex).
  template <class Field>
  void add(const Field& field, std::int64_t v) {
    fold(index_.insert(field), v);
  }

  /// Folds every group of `other` (same aggregate and maxima) into this
  /// one; groups new here take ids in `other`'s order.
  void merge(const GroupFold& other);

  /// One row per group, in id (first-sighting) order.
  std::vector<ResultRow> rows() const;

  const TupleIndex& index() const { return index_; }
  std::size_t size() const { return acc_.size(); }

 private:
  void fold(std::uint32_t g, std::int64_t v) {
    if (g == acc_.size()) {
      acc_.push_back(v);
    } else {
      acc_[g] = fold_agg(func_, acc_[g], v);
    }
  }

  sql::AggFunc func_;
  TupleIndex index_;
  std::vector<std::int64_t> acc_;  ///< per group id
};

}  // namespace bbpim::engine
