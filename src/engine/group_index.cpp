#include "engine/group_index.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace bbpim::engine {

std::int64_t fold_agg(sql::AggFunc func, std::int64_t acc, std::int64_t v) {
  if (func == sql::AggFunc::kMin) return std::min(acc, v);
  if (func == sql::AggFunc::kMax) return std::max(acc, v);
  return acc + v;
}

CodeIndex::CodeIndex(std::size_t max_codes) : max_codes_(max_codes) {
  // The smallest power of two >= 2 * max_codes slots, at least 2.
  const int bits = max_codes < 2 ? 1 : std::bit_width(2 * max_codes - 1);
  shift_ = 64 - bits;
  mask_ = (std::size_t{1} << bits) - 1;
  slots_.assign(mask_ + 1, kAbsent);
  codes_.reserve(max_codes);
}

std::uint32_t CodeIndex::insert(std::uint64_t code) {
  std::size_t s = slot(code);
  for (; slots_[s] != kAbsent; s = (s + 1) & mask_) {
    if (codes_[slots_[s]] == code) return slots_[s];
  }
  if (codes_.size() == max_codes_) {
    throw std::length_error("CodeIndex: more than " +
                            std::to_string(max_codes_) + " codes");
  }
  slots_[s] = static_cast<std::uint32_t>(codes_.size());
  codes_.push_back(code);
  return slots_[s];
}

TupleIndex::TupleIndex(std::vector<std::uint64_t> max_codes,
                       std::size_t capacity)
    : max_(std::move(max_codes)),
      capacity_(capacity),
      packed_index_(0),
      scratch_(max_.size()) {
  std::uint32_t bits = 0;
  for (const std::uint64_t m : max_) {
    shift_.push_back(bits);
    bits += std::bit_width(m);
  }
  packed_ = bits <= 64;
  if (packed_) packed_index_ = CodeIndex(capacity_);
}

std::uint32_t TupleIndex::insert_packed(std::uint64_t pk) {
  if (const std::uint32_t i = packed_index_.find(pk); i != kAbsent) return i;
  if (packed_index_.codes().size() == capacity_) {
    capacity_ = std::max<std::size_t>(2 * capacity_, 16);
    CodeIndex grown(capacity_);
    for (const std::uint64_t c : packed_index_.codes()) grown.insert(c);
    packed_index_ = std::move(grown);
  }
  return packed_index_.insert(pk);
}

std::uint32_t TupleIndex::insert_wide(const GroupKey& key) {
  const auto [it, fresh] =
      wide_.try_emplace(key, static_cast<std::uint32_t>(wide_keys_.size()));
  if (fresh) wide_keys_.push_back(key);
  return it->second;
}

GroupKey TupleIndex::key(std::uint32_t i) const {
  if (!packed_) return wide_keys_[i];
  const std::uint64_t pk = packed_index_.codes()[i];
  GroupKey key(max_.size());
  for (std::size_t f = 0; f < max_.size(); ++f) {
    // A zero-width field may sit at shift 64, past the word: it is 0.
    const unsigned width = std::bit_width(max_[f]);
    if (width != 0) key[f] = (pk >> shift_[f]) & width_max(width);
  }
  return key;
}

void GroupFold::merge(const GroupFold& other) {
  if (func_ != other.func_ || index_.max_codes() != other.index_.max_codes()) {
    throw std::invalid_argument("GroupFold::merge: mismatched folds");
  }
  for (std::uint32_t g = 0; g < other.acc_.size(); ++g) {
    fold(index_.insert_from(other.index_, g), other.acc_[g]);
  }
}

std::vector<ResultRow> GroupFold::rows() const {
  std::vector<ResultRow> out;
  out.reserve(acc_.size());
  for (std::uint32_t g = 0; g < acc_.size(); ++g) {
    out.push_back(ResultRow{index_.key(g), acc_[g]});
  }
  return out;
}

}  // namespace bbpim::engine
