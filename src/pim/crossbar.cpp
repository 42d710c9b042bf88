#include "pim/crossbar.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace bbpim::pim {

namespace {
/// Dimension checks must run before the group table is sized in the member
/// initializer list (cols - data_cols underflows on bad input).
std::uint32_t checked_data_cols(std::uint32_t rows, std::uint32_t cols,
                                std::uint32_t data_cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("Crossbar: zero dimension");
  }
  if (rows % 64 != 0) {
    throw std::invalid_argument("Crossbar: rows must be a multiple of 64");
  }
  if (rows > Crossbar::kMaxRows) {
    throw std::invalid_argument("Crossbar: rows exceed kMaxRows");
  }
  if (data_cols > cols) {
    throw std::invalid_argument("Crossbar: data_cols exceeds cols");
  }
  return data_cols;
}

// 64x64 bit-matrix transpose, LSB-first (bit c of m[r] <-> bit r of m[c]),
// by recursive block swap (Hacker's Delight 7-3). Round J exchanges the
// off-diagonal J x J blocks of every 2J x 2J block, i.e. swaps bit J of the
// row index with bit J of the column index. Rounds commute, so any order
// transposes; a field of `width` < 64 bits has only `width` live words,
// and ordering the rounds around them lets each round visit only the 2J
// blocks that hold live rows.
template <std::uint32_t J, std::uint64_t kMask>
void transpose_round(RowBlock& m, std::uint32_t width) {
  for (std::uint32_t b = 0; b < width; b += 2 * J) {
    for (std::uint32_t k = b; k < b + J; ++k) {
      const std::uint64_t t = ((m[k] >> J) ^ m[k + J]) & kMask;
      m[k] ^= t << J;
      m[k + J] ^= t;
    }
  }
}

/// Column words m[0, width) (the rest zero) -> the 64 rows' field values.
/// Low rounds first: live rows spread out only as the blocks grow.
void columns_to_rows(RowBlock& m, std::uint32_t width) {
  transpose_round<1, 0x5555555555555555ULL>(m, width);
  transpose_round<2, 0x3333333333333333ULL>(m, width);
  transpose_round<4, 0x0F0F0F0F0F0F0F0FULL>(m, width);
  transpose_round<8, 0x00FF00FF00FF00FFULL>(m, width);
  transpose_round<16, 0x0000FFFF0000FFFFULL>(m, width);
  transpose_round<32, 0x00000000FFFFFFFFULL>(m, width);
}

/// The 64 rows' field values (each < 2^width) -> column words m[0, width);
/// entries from `width` on are left unspecified. High rounds first: each
/// round produces only the rows the later rounds read.
void rows_to_columns(RowBlock& m, std::uint32_t width) {
  transpose_round<32, 0x00000000FFFFFFFFULL>(m, width);
  transpose_round<16, 0x0000FFFF0000FFFFULL>(m, width);
  transpose_round<8, 0x00FF00FF00FF00FFULL>(m, width);
  transpose_round<4, 0x0F0F0F0F0F0F0F0FULL>(m, width);
  transpose_round<2, 0x3333333333333333ULL>(m, width);
  transpose_round<1, 0x5555555555555555ULL>(m, width);
}

void check_block(std::uint32_t word, std::uint32_t words_per_col,
                 std::uint32_t offset, std::uint32_t width, std::uint32_t cols,
                 const char* what) {
  if (width == 0 || width > 64 || offset + width > cols ||
      word >= words_per_col) {
    throw std::out_of_range(what);
  }
}
}  // namespace

Crossbar::Crossbar(std::uint32_t rows, std::uint32_t cols)
    : Crossbar(rows, cols, cols) {}

Crossbar::Crossbar(std::uint32_t rows, std::uint32_t cols,
                   std::uint32_t data_cols)
    : rows_(rows),
      cols_(cols),
      data_cols_(checked_data_cols(rows, cols, data_cols)),
      words_per_col_((rows + kWordBits - 1) / kWordBits),
      data_groups_((data_cols + kGroupCols - 1) / kGroupCols),
      groups_(data_groups_ +
              (cols - data_cols + kGroupCols - 1) / kGroupCols) {}

Crossbar::Crossbar(const Crossbar& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      data_cols_(other.data_cols_),
      words_per_col_(other.words_per_col_),
      data_groups_(other.data_groups_),
      groups_(other.groups_),
      uniform_row_writes_(other.uniform_row_writes_),
      max_extra_row_writes_(other.max_extra_row_writes_),
      extra_row_writes_(other.extra_row_writes_) {
  for (std::uint32_t g = data_groups_; g < group_count(); ++g) {
    if (groups_[g] != nullptr) groups_[g] = clone_group(g);
  }
}

Crossbar& Crossbar::operator=(const Crossbar& other) {
  if (this != &other) *this = Crossbar(other);
  return *this;
}

const std::uint64_t* Crossbar::zero_column() {
  static constexpr std::uint64_t kZeros[kMaxRows / kWordBits] = {};
  return kZeros;
}

std::uint32_t Crossbar::group_cols(std::uint32_t g) const {
  if (g < data_groups_) {
    return std::min(kGroupCols, data_cols_ - g * kGroupCols);
  }
  return std::min(kGroupCols,
                  cols_ - data_cols_ - (g - data_groups_) * kGroupCols);
}

ColumnGroup Crossbar::clone_group(std::uint32_t g) const {
  const std::size_t n = std::size_t{group_cols(g)} * words_per_col_;
  ColumnGroup copy = std::make_shared_for_overwrite<std::uint64_t[]>(n);
  std::copy_n(groups_[g].get(), n, copy.get());
  return copy;
}

std::uint64_t* Crossbar::own_group(std::uint32_t g) {
  ColumnGroup& group = groups_[g];
  if (group == nullptr) {
    group = std::make_shared<std::uint64_t[]>(std::size_t{group_cols(g)} *
                                              words_per_col_);
  } else if (group.use_count() > 1) {
    group = clone_group(g);
  }
  return group.get();
}

void Crossbar::adopt_data_groups(std::span<const ColumnGroup> groups) {
  if (groups.size() != data_groups_) {
    throw std::invalid_argument("Crossbar::adopt_data_groups: group mismatch");
  }
  // Skip the groups already held: re-pinning a successor version touches
  // only the reference counts of the groups that changed.
  for (std::uint32_t g = 0; g < data_groups_; ++g) {
    if (groups_[g] != groups[g]) groups_[g] = groups[g];
  }
}

ResidentBytes Crossbar::resident_bytes() const {
  ResidentBytes bytes;
  for (std::uint32_t g = 0; g < group_count(); ++g) {
    if (groups_[g] == nullptr) continue;
    const std::size_t n = std::size_t{group_cols(g)} * words_per_col_ *
                          sizeof(std::uint64_t);
    (g < data_groups_ ? bytes.data : bytes.scratch) += n;
  }
  return bytes;
}

void Crossbar::execute_op(const MicroOp& op) {
  // Resolve the output first: materializing its group moves the columns
  // the inputs may name.
  std::uint64_t* out = column_data_mut(op.out);
  switch (op.kind) {
    case MicroOpKind::kInit0:
      std::fill(out, out + words_per_col_, 0ULL);
      break;
    case MicroOpKind::kInit1:
      std::fill(out, out + words_per_col_, ~0ULL);
      break;
    case MicroOpKind::kNot: {
      assert(op.a < cols_);
      const std::uint64_t* a = column_words(op.a);
      for (std::uint32_t w = 0; w < words_per_col_; ++w) out[w] = ~a[w];
      break;
    }
    case MicroOpKind::kNor: {
      assert(op.a < cols_ && op.b < cols_);
      const std::uint64_t* a = column_words(op.a);
      const std::uint64_t* b = column_words(op.b);
      for (std::uint32_t w = 0; w < words_per_col_; ++w) out[w] = ~(a[w] | b[w]);
      break;
    }
  }
}

void Crossbar::execute(const MicroOp& op) {
  execute_op(op);
  ++uniform_row_writes_;
}

void Crossbar::execute(const MicroProgram& prog) {
  for (const MicroOp& op : prog) execute_op(op);
  uniform_row_writes_ += prog.size();
}

std::uint64_t Crossbar::read_row_bits(std::uint32_t row, std::uint32_t offset,
                                      std::uint32_t width) const {
  if (width == 0 || width > 64 || offset + width > cols_ || row >= rows_) {
    throw std::out_of_range("Crossbar::read_row_bits");
  }
  const std::uint32_t word = row / kWordBits;
  const std::uint32_t bit = row % kWordBits;
  std::uint64_t v = 0;
  for (std::uint32_t i = 0; i < width; ++i) {
    v |= ((column_words(offset + i)[word] >> bit) & 1ULL) << i;
  }
  return v;
}

void Crossbar::write_row_bits(std::uint32_t row, std::uint32_t offset,
                              std::uint32_t width, std::uint64_t value) {
  if (width == 0 || width > 64 || offset + width > cols_ || row >= rows_) {
    throw std::out_of_range("Crossbar::write_row_bits");
  }
  // Wear first: the row is driven whether or not the bits change.
  if (extra_row_writes_.empty()) extra_row_writes_.resize(rows_, 0);
  extra_row_writes_[row] += width;
  max_extra_row_writes_ =
      std::max<std::uint64_t>(max_extra_row_writes_, extra_row_writes_[row]);
  const std::uint32_t word = row / kWordBits;
  const std::uint32_t bit = row % kWordBits;
  // One run of field bits per group the field spans.
  for (std::uint32_t i = 0; i < width;) {
    const Slot s = slot(offset + i);
    const std::uint32_t n = std::min(width - i, group_cols(s.group) - s.col);
    // An owned group takes the write in place; a null or shared one only
    // if some bit of the run changes.
    bool write = group_owned(s.group);
    for (std::uint32_t k = 0; k < n && !write; ++k) {
      write = ((column_words(offset + i + k)[word] >> bit) & 1ULL) !=
              ((value >> (i + k)) & 1ULL);
    }
    if (write) {
      std::uint64_t* g =
          own_group(s.group) + std::size_t{s.col} * words_per_col_;
      for (std::uint32_t k = 0; k < n; ++k) {
        std::uint64_t& w = g[std::size_t{k} * words_per_col_ + word];
        w = (w & ~(1ULL << bit)) | (((value >> (i + k)) & 1ULL) << bit);
      }
    }
    i += n;
  }
}

void Crossbar::read_field_block(std::uint32_t word, std::uint32_t offset,
                                std::uint32_t width, RowBlock& out) const {
  check_block(word, words_per_col_, offset, width, cols_,
              "Crossbar::read_field_block");
  for (std::uint32_t i = 0; i < width; ++i) {
    out[i] = column_words(offset + i)[word];
  }
  std::fill(out.begin() + width, out.end(), 0ULL);
  columns_to_rows(out, width);
}

void Crossbar::write_field_block(std::uint32_t word, std::uint32_t offset,
                                 std::uint32_t width, const RowBlock& values,
                                 std::uint64_t row_mask) {
  check_block(word, words_per_col_, offset, width, cols_,
              "Crossbar::write_field_block");
  if (row_mask == 0) return;
  // Wear first: every masked row is driven whether or not its bits change.
  if (extra_row_writes_.empty()) extra_row_writes_.resize(rows_, 0);
  for (std::uint64_t m = row_mask; m != 0; m &= m - 1) {
    const std::uint32_t row = word * kWordBits + std::countr_zero(m);
    extra_row_writes_[row] += width;
    max_extra_row_writes_ =
        std::max<std::uint64_t>(max_extra_row_writes_, extra_row_writes_[row]);
  }
  // Merge the masked rows into the current block (a full mask replaces it)
  // and transpose back to column words: unmasked rows keep their bits.
  const std::uint64_t field = width == 64 ? ~0ULL : (1ULL << width) - 1;
  RowBlock merged{};
  if (row_mask == ~0ULL) {
    for (std::uint32_t j = 0; j < 64; ++j) merged[j] = values[j] & field;
  } else {
    read_field_block(word, offset, width, merged);
    for (std::uint64_t m = row_mask; m != 0; m &= m - 1) {
      const std::uint32_t j = std::countr_zero(m);
      merged[j] = values[j] & field;
    }
  }
  rows_to_columns(merged, width);
  // One run of field columns per group the field spans.
  for (std::uint32_t i = 0; i < width;) {
    const Slot s = slot(offset + i);
    const std::uint32_t n = std::min(width - i, group_cols(s.group) - s.col);
    bool write = group_owned(s.group);  // as in write_row_bits
    for (std::uint32_t k = 0; k < n && !write; ++k) {
      write = column_words(offset + i + k)[word] != merged[i + k];
    }
    if (write) {
      std::uint64_t* g =
          own_group(s.group) + std::size_t{s.col} * words_per_col_;
      for (std::uint32_t k = 0; k < n; ++k) {
        g[std::size_t{k} * words_per_col_ + word] = merged[i + k];
      }
    }
    i += n;
  }
}

BitVec Crossbar::column(std::uint32_t col) const {
  if (col >= cols_) throw std::out_of_range("Crossbar::column");
  BitVec bv(rows_);
  const std::uint64_t* src = column_words(col);
  std::copy(src, src + words_per_col_, bv.words().begin());
  return bv;
}

std::size_t Crossbar::column_popcount(std::uint32_t col) const {
  if (col >= cols_) throw std::out_of_range("Crossbar::column_popcount");
  const std::uint64_t* src = column_words(col);
  std::size_t n = 0;
  for (std::uint32_t w = 0; w < words_per_col_; ++w) {
    n += static_cast<std::size_t>(std::popcount(src[w]));
  }
  return n;
}

void Crossbar::write_column(std::uint32_t col, const BitVec& bits) {
  if (col >= cols_) throw std::out_of_range("Crossbar::write_column");
  if (bits.size() != rows_) {
    throw std::invalid_argument("Crossbar::write_column: size mismatch");
  }
  ++uniform_row_writes_;
  if (!group_owned(slot(col).group) &&
      std::equal(bits.words().begin(), bits.words().end(),
                 column_words(col))) {
    return;
  }
  std::copy(bits.words().begin(), bits.words().end(), column_data_mut(col));
}

bool Crossbar::bit(std::uint32_t row, std::uint32_t col) const {
  if (row >= rows_ || col >= cols_) throw std::out_of_range("Crossbar::bit");
  return (column_words(col)[row / kWordBits] >> (row % kWordBits)) & 1ULL;
}

void Crossbar::set_bit(std::uint32_t row, std::uint32_t col, bool v) {
  if (row >= rows_ || col >= cols_) throw std::out_of_range("Crossbar::set_bit");
  if (!group_owned(slot(col).group) && bit(row, col) == v) return;
  std::uint64_t* w = column_data_mut(col) + row / kWordBits;
  const std::uint64_t mask = 1ULL << (row % kWordBits);
  if (v)
    *w |= mask;
  else
    *w &= ~mask;
}

void Crossbar::reset_wear() {
  uniform_row_writes_ = 0;
  max_extra_row_writes_ = 0;
  extra_row_writes_.clear();
}

}  // namespace bbpim::pim
