// Functional model of one memristive crossbar array.
//
// The crossbar stores real bits (column-major, 64-bit packed) and executes
// bulk-bitwise micro-ops exactly: a NOR micro-op really NORs two 1024-bit
// columns. Query answers produced by the simulator are therefore exact and
// are checked against a scalar reference in the tests. Cost (time, energy,
// wear) is accounted one level up, by the PIM controller.
//
// Storage is split at `data_cols` into two segments. The DATA segment
// (columns [0, data_cols)) holds record bits and is reference-counted: any
// number of crossbars — and the immutable store snapshots of
// engine/snapshot_store — may share one segment, and a write detaches a
// private copy first (copy-on-write). The SCRATCH segment (columns
// [data_cols, cols)) holds filter results, transfer staging and aggregation
// outputs; it is always private to this crossbar. The row, block and column
// writers are value-aware: they detach only if the bits change. A gate
// program writing a data column detaches unconditionally — outside tests no
// gate program writes one: the Algorithm-1 MUX of an UPDATE runs as its
// word-level twin (pim/wordeval), which compares before it writes, so an
// UPDATE clones only the crossbars holding a selected record. By default
// data_cols == cols: the whole crossbar is data and, with no sharing, every
// write takes the plain in-place path.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/bitvec.hpp"
#include "pim/microop.hpp"

namespace bbpim::pim {

/// A shareable data segment: the packed words of columns [0, data_cols).
using CrossbarSegment = std::shared_ptr<std::vector<std::uint64_t>>;

/// One field of the 64 rows of one packed column word, in row form:
/// entry j holds row 64 * word + j.
using RowBlock = std::array<std::uint64_t, 64>;

/// A rows x cols bit matrix with column-parallel logic.
class Crossbar {
 public:
  Crossbar(std::uint32_t rows, std::uint32_t cols);
  /// Split storage: columns [0, data_cols) live in the shareable data
  /// segment, the rest in private scratch. data_cols may equal cols (all
  /// data, no scratch segment) but must not exceed it.
  Crossbar(std::uint32_t rows, std::uint32_t cols, std::uint32_t data_cols);

  std::uint32_t rows() const { return rows_; }
  std::uint32_t cols() const { return cols_; }
  std::uint32_t data_cols() const { return data_cols_; }

  /// Executes one micro-op across all rows. Bumps the uniform wear counter
  /// (every micro-op writes its output column: one cell per row). Writing a
  /// data column detaches a shared segment.
  void execute(const MicroOp& op);

  /// Executes a whole program.
  void execute(const MicroProgram& prog);

  /// Reads `width` bits (<= 64) of one row starting at bit `offset`.
  std::uint64_t read_row_bits(std::uint32_t row, std::uint32_t offset,
                              std::uint32_t width) const;

  /// Writes `width` bits (<= 64) of one row; bumps per-row wear.
  void write_row_bits(std::uint32_t row, std::uint32_t offset,
                      std::uint32_t width, std::uint64_t value);

  /// Block form of read_row_bits: reads the `width`-bit field at `offset`
  /// of the 64 rows of column word `word` with one bit-matrix transpose.
  /// out[j] == read_row_bits(64 * word + j, offset, width).
  void read_field_block(std::uint32_t word, std::uint32_t offset,
                        std::uint32_t width, RowBlock& out) const;

  /// Block form of write_row_bits: writes values[j] to the field of row
  /// 64 * word + j for every bit j set in `row_mask`; other rows keep their
  /// bits. Copy-on-write and wear are exactly those of one write_row_bits
  /// per masked row: a shared segment detaches only if the bits change, and
  /// each masked row is charged `width` writes.
  void write_field_block(std::uint32_t word, std::uint32_t offset,
                         std::uint32_t width, const RowBlock& values,
                         std::uint64_t row_mask);

  /// Snapshot of a full column as a BitVec of `rows()` bits.
  BitVec column(std::uint32_t col) const;

  /// Number of set bits in a column, computed on the packed words directly
  /// (no BitVec materialization).
  std::size_t column_popcount(std::uint32_t col) const;

  /// Read-only view of a column's packed words (words_per_column() of them;
  /// rows are a multiple of 64, so there are no tail bits). Used by the
  /// word-level column transfer and aggregation kernels. Inline: these sit
  /// in the innermost simulation loops.
  const std::uint64_t* column_data(std::uint32_t col) const {
    if (col >= cols_) throw std::out_of_range("Crossbar::column_data");
    return column_words(col);
  }
  std::uint32_t words_per_column() const { return words_per_col_; }

  /// Mutable word view of a column — the write path of the gate and word
  /// evaluators. Deliberately records no wear: the caller charges the gate
  /// program's cycles. Data columns detach a shared segment unconditionally
  /// (the caller's writes cannot be compared against the current contents
  /// from here).
  std::uint64_t* column_data_mut(std::uint32_t col) {
    if (col >= cols_) throw std::out_of_range("Crossbar::column_data_mut");
    if (col < data_cols_ && data_.use_count() > 1) detach_data();
    return column_words(col);
  }

  /// Overwrites a full column (used by the CONCEPT-style packed column write
  /// path when the host pushes a bit-vector into the PIM module). Counts one
  /// write per row (uniform wear).
  void write_column(std::uint32_t col, const BitVec& bits);

  /// Single-bit accessors (test/diagnostic use).
  bool bit(std::uint32_t row, std::uint32_t col) const;
  void set_bit(std::uint32_t row, std::uint32_t col, bool v);

  // --- Data-segment sharing (engine/snapshot_store) -------------------------
  /// The data segment, shareable with other crossbars/snapshots. Holders
  /// must treat the words as immutable; this crossbar detaches before any
  /// mutating access while the segment is shared.
  const CrossbarSegment& data_segment() const { return data_; }
  /// Replaces the data segment with `seg` (same size required). The view
  /// path of engine::PimStore uses this to point a worker's crossbars at a
  /// store snapshot's immutable data.
  void adopt_data(CrossbarSegment seg);
  /// True while the data segment is shared with at least one other holder.
  bool data_shared() const { return data_.use_count() > 1; }

  // --- Wear accounting ------------------------------------------------------
  /// Writes applied uniformly to every row (one per executed micro-op).
  std::uint64_t uniform_row_writes() const { return uniform_row_writes_; }
  /// Largest per-row extra write count (row writes from host/agg results).
  /// O(1): per-row counts only grow, so a running maximum maintained at
  /// write time equals the scan — wear is read once per query, but written
  /// per crossbar per aggregation pass.
  std::uint64_t max_extra_row_writes() const { return max_extra_row_writes_; }
  /// Worst-case writes experienced by any single row of this crossbar.
  std::uint64_t max_row_writes() const {
    return uniform_row_writes_ + max_extra_row_writes();
  }
  /// Zeroes wear counters (used when measuring a single query).
  void reset_wear();

  /// Adds extra uniform per-row writes (chunk-granular host writes rewrite
  /// neighbouring cells of the target bit).
  void add_uniform_wear(std::uint64_t writes_per_row) {
    uniform_row_writes_ += writes_per_row;
  }

 private:
  static constexpr std::uint32_t kWordBits = 64;

  std::uint64_t* column_words(std::uint32_t col) {
    return col < data_cols_
               ? data_->data() + static_cast<std::size_t>(col) * words_per_col_
               : scratch_.data() +
                     static_cast<std::size_t>(col - data_cols_) * words_per_col_;
  }
  const std::uint64_t* column_words(std::uint32_t col) const {
    return col < data_cols_
               ? data_->data() + static_cast<std::size_t>(col) * words_per_col_
               : scratch_.data() +
                     static_cast<std::size_t>(col - data_cols_) * words_per_col_;
  }

  /// Clones the data segment so this crossbar owns it exclusively.
  void detach_data();

  /// Functional execution of one micro-op; wear is the caller's business.
  void execute_op(const MicroOp& op);

  std::uint32_t rows_;
  std::uint32_t cols_;
  std::uint32_t data_cols_;
  std::uint32_t words_per_col_;
  CrossbarSegment data_;                 // columns [0, data_cols), column-major
  std::vector<std::uint64_t> scratch_;   // columns [data_cols, cols)

  std::uint64_t uniform_row_writes_ = 0;
  std::uint64_t max_extra_row_writes_ = 0;
  std::vector<std::uint32_t> extra_row_writes_;  // lazily sized to rows_
};

}  // namespace bbpim::pim
