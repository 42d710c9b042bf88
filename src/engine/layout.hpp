// Record layout: packing a relation's record into a crossbar row.
//
// Attributes are bit-packed back to back from column 0 (Section II-B: "each
// record is set as a single crossbar row, attributes aligned on crossbar
// columns"). One extra validity bit marks real records — the last page of a
// relation is rarely full, and padding rows must fail every filter. The
// remaining columns form the scratch region used by filter programs,
// aggregation results, and Algorithm 1 updates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pim/config.hpp"
#include "pim/microcode.hpp"
#include "relational/schema.hpp"

namespace bbpim::engine {

class RecordLayout {
 public:
  /// Lays out the given schema attributes (a subset for vertical
  /// partitioning). Throws std::runtime_error when the record exceeds the
  /// crossbar row — the caller must partition vertically (Section III).
  static RecordLayout build(const rel::Schema& schema,
                            std::span<const std::size_t> attrs,
                            const pim::PimConfig& cfg);

  bool has(std::size_t attr) const;
  /// Field of an attribute; throws std::out_of_range when not placed here.
  pim::Field field(std::size_t attr) const;

  std::uint16_t valid_col() const { return valid_col_; }
  std::uint16_t scratch_begin() const { return scratch_begin_; }
  std::uint16_t scratch_cols() const {
    return static_cast<std::uint16_t>(total_cols_ - scratch_begin_);
  }
  const std::vector<std::size_t>& attrs() const { return attrs_; }

  /// Fresh scratch allocator over [scratch_begin, total_cols).
  pim::ColumnAlloc make_alloc() const {
    return pim::ColumnAlloc(scratch_begin_, total_cols_);
  }

 private:
  std::vector<std::size_t> attrs_;            // placed attribute indices
  std::vector<pim::Field> fields_;            // parallel to attrs_
  /// attr -> index into fields_, -1 when absent: has()/field() are O(1) —
  /// they sit on the per-record host read path (host-gb, sampling).
  std::vector<std::int32_t> pos_;
  std::uint16_t valid_col_ = 0;
  std::uint16_t scratch_begin_ = 0;
  std::uint16_t total_cols_ = 0;
};

}  // namespace bbpim::engine
