// Functional model of one memristive crossbar array.
//
// The crossbar stores real bits (column-major, 64-bit packed) and executes
// bulk-bitwise micro-ops exactly: a NOR micro-op really NORs two 1024-bit
// columns. Query answers produced by the simulator are therefore exact and
// are checked against a scalar reference in the tests. Cost (time, energy,
// wear) is accounted one level up, by the PIM controller.
//
// Storage is a table of fixed column groups of kGroupCols columns. Columns
// [0, data_cols) are DATA (record bits) and columns [data_cols, cols) are
// SCRATCH (filter results, transfer staging, aggregation outputs); data
// groups are aligned at column 0 and scratch groups at data_cols, so no
// group mixes the two. A group is allocated on its first write: until then
// it is null and reads as zeros. The row, block and column writers are
// value-aware — a write that changes no bit (zeros into a null group, say)
// allocates nothing, though its wear is charged all the same. A gate
// program writing a column materializes that column's group outright.
//
// Data groups are reference-counted: any number of crossbars — and the
// immutable store snapshots of engine/snapshot_store — may share one, and
// the first change to a shared group clones that group alone
// (copy-on-write). Scratch groups are private to a crossbar: copying a
// Crossbar shares its data groups and deep-copies its scratch. Outside
// tests no gate program writes a data column: the Algorithm-1 MUX of an
// UPDATE runs as its word-level twin (pim/wordeval), which compares before
// it writes, so an UPDATE clones only the groups of the fields it rewrites,
// and only on the crossbars holding a selected record. By default
// data_cols == cols: the whole crossbar is data.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/bitvec.hpp"
#include "pim/microop.hpp"

namespace bbpim::pim {

/// Columns per storage group: 4 KB of packed words at 1024 rows.
inline constexpr std::uint32_t kGroupCols = 32;

/// One column group's packed words, column-major: column c of the group
/// starts at word c * words_per_column(). Null until first written; a null
/// group reads as zeros. Data groups are shareable (see Crossbar).
using ColumnGroup = std::shared_ptr<std::uint64_t[]>;

/// Bytes of the groups a crossbar (or a store of them) holds allocated.
struct ResidentBytes {
  std::size_t data = 0;
  std::size_t scratch = 0;
  ResidentBytes& operator+=(const ResidentBytes& o) {
    data += o.data;
    scratch += o.scratch;
    return *this;
  }
};

/// One field of the 64 rows of one packed column word, in row form:
/// entry j holds row 64 * word + j.
using RowBlock = std::array<std::uint64_t, 64>;

/// A rows x cols bit matrix with column-parallel logic.
class Crossbar {
 public:
  /// Rows are bounded by the shared zero column that null groups read.
  static constexpr std::uint32_t kMaxRows = 1u << 16;

  Crossbar(std::uint32_t rows, std::uint32_t cols);
  /// Columns [0, data_cols) are data (shareable groups), the rest private
  /// scratch. data_cols may equal cols (all data, no scratch) but must not
  /// exceed it.
  Crossbar(std::uint32_t rows, std::uint32_t cols, std::uint32_t data_cols);
  /// Shares the data groups and deep-copies the scratch groups.
  Crossbar(const Crossbar& other);
  Crossbar& operator=(const Crossbar& other);
  Crossbar(Crossbar&&) noexcept = default;
  Crossbar& operator=(Crossbar&&) noexcept = default;

  std::uint32_t rows() const { return rows_; }
  std::uint32_t cols() const { return cols_; }
  std::uint32_t data_cols() const { return data_cols_; }

  /// Executes one micro-op across all rows. Bumps the uniform wear counter
  /// (every micro-op writes its output column: one cell per row) and
  /// materializes the output column's group.
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
  /// bits. Storage and wear are exactly those of one write_row_bits per
  /// masked row: a null or shared group is materialized only if its bits
  /// change, and each masked row is charged `width` writes.
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
  /// in the innermost simulation loops. A column of a null group views the
  /// shared zero column; the pointer is valid until this crossbar next
  /// materializes or clones the column's group.
  const std::uint64_t* column_data(std::uint32_t col) const {
    if (col >= cols_) throw std::out_of_range("Crossbar::column_data");
    return column_words(col);
  }
  std::uint32_t words_per_column() const { return words_per_col_; }

  /// Mutable word view of a column — the write path of the gate and word
  /// evaluators. Deliberately records no wear: the caller charges the gate
  /// program's cycles. Materializes the column's group unconditionally
  /// (allocated if null, cloned if shared): the caller's writes cannot be
  /// compared against the current contents from here.
  std::uint64_t* column_data_mut(std::uint32_t col) {
    if (col >= cols_) throw std::out_of_range("Crossbar::column_data_mut");
    const Slot s = slot(col);
    return own_group(s.group) + std::size_t{s.col} * words_per_col_;
  }

  /// Overwrites a full column (used by the CONCEPT-style packed column write
  /// path when the host pushes a bit-vector into the PIM module). Counts one
  /// write per row (uniform wear).
  void write_column(std::uint32_t col, const BitVec& bits);

  /// Single-bit accessors (test/diagnostic use).
  bool bit(std::uint32_t row, std::uint32_t col) const;
  void set_bit(std::uint32_t row, std::uint32_t col, bool v);

  // --- Column groups (engine/snapshot_store) ---------------------------------
  /// Groups in all: data groups [0, data_group_count()), then scratch.
  std::uint32_t group_count() const {
    return static_cast<std::uint32_t>(groups_.size());
  }
  std::uint32_t data_group_count() const { return data_groups_; }
  /// The group holding column `col`.
  std::uint32_t group_of(std::uint32_t col) const {
    if (col >= cols_) throw std::out_of_range("Crossbar::group_of");
    return slot(col).group;
  }
  /// True once group `g` is allocated (it has been written).
  bool group_resident(std::uint32_t g) const {
    return groups_.at(g) != nullptr;
  }
  /// True while group `g` is shared with at least one other holder.
  bool group_shared(std::uint32_t g) const {
    return groups_.at(g).use_count() > 1;
  }
  /// The data groups, shareable with other crossbars/snapshots. Holders
  /// must treat the words as immutable; this crossbar clones a shared group
  /// before it changes it.
  std::span<const ColumnGroup> data_groups() const {
    return {groups_.data(), data_groups_};
  }
  /// Points this crossbar's data groups at `groups` (data_group_count() of
  /// them, from a crossbar of the same geometry). The view path of
  /// engine::PimStore uses this to serve a store snapshot's immutable data.
  void adopt_data_groups(std::span<const ColumnGroup> groups);
  /// Bytes of the data and scratch groups this crossbar holds allocated.
  ResidentBytes resident_bytes() const;

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

  /// A column's group and its index within the group.
  struct Slot {
    std::uint32_t group;
    std::uint32_t col;
  };
  Slot slot(std::uint32_t col) const {
    return col < data_cols_
               ? Slot{col / kGroupCols, col % kGroupCols}
               : Slot{data_groups_ + (col - data_cols_) / kGroupCols,
                      (col - data_cols_) % kGroupCols};
  }

  const std::uint64_t* column_words(std::uint32_t col) const {
    const Slot s = slot(col);
    const std::uint64_t* g = groups_[s.group].get();
    return g != nullptr ? g + std::size_t{s.col} * words_per_col_
                        : zero_column();
  }
  /// The words of one all-zero column of up to kMaxRows rows.
  static const std::uint64_t* zero_column();

  /// True when group `g` may be written in place (allocated, unshared).
  bool group_owned(std::uint32_t g) const {
    return groups_[g] != nullptr && groups_[g].use_count() == 1;
  }
  /// Makes group `g` allocated and exclusively owned — zero-filled if null,
  /// cloned if shared — and returns its words.
  std::uint64_t* own_group(std::uint32_t g);
  /// A private copy of allocated group `g`.
  ColumnGroup clone_group(std::uint32_t g) const;
  /// Columns in group `g` (the last data and scratch groups may be short).
  std::uint32_t group_cols(std::uint32_t g) const;

  /// Functional execution of one micro-op; wear is the caller's business.
  void execute_op(const MicroOp& op);

  std::uint32_t rows_;
  std::uint32_t cols_;
  std::uint32_t data_cols_;
  std::uint32_t words_per_col_;
  std::uint32_t data_groups_;
  std::vector<ColumnGroup> groups_;  // data groups, then scratch groups

  std::uint64_t uniform_row_writes_ = 0;
  std::uint64_t max_extra_row_writes_ = 0;
  std::vector<std::uint32_t> extra_row_writes_;  // lazily sized to rows_
};

}  // namespace bbpim::pim
