#include "pim/crossbar.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace bbpim::pim {

namespace {
/// Dimension checks must run before the segment allocations in the member
/// initializer list (cols - data_cols underflows on bad input).
std::uint32_t checked_data_cols(std::uint32_t rows, std::uint32_t cols,
                                std::uint32_t data_cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("Crossbar: zero dimension");
  }
  if (rows % 64 != 0) {
    throw std::invalid_argument("Crossbar: rows must be a multiple of 64");
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
      data_(std::make_shared<std::vector<std::uint64_t>>(
          static_cast<std::size_t>(data_cols) * words_per_col_, 0)),
      scratch_(static_cast<std::size_t>(cols - data_cols) * words_per_col_,
               0) {}

void Crossbar::detach_data() {
  data_ = std::make_shared<std::vector<std::uint64_t>>(*data_);
}

void Crossbar::adopt_data(CrossbarSegment seg) {
  if (!seg || seg->size() != data_->size()) {
    throw std::invalid_argument("Crossbar::adopt_data: segment mismatch");
  }
  data_ = std::move(seg);
}

void Crossbar::execute_op(const MicroOp& op) {
  // Resolve the output first: detaching a shared segment moves the data
  // columns the inputs may name.
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
  if (offset < data_cols_ && data_.use_count() > 1) {
    const std::uint64_t masked =
        width == 64 ? value : value & ((1ULL << width) - 1);
    if (read_row_bits(row, offset, width) == masked) return;
    detach_data();
  }
  const std::uint32_t word = row / kWordBits;
  const std::uint64_t mask = 1ULL << (row % kWordBits);
  for (std::uint32_t i = 0; i < width; ++i) {
    std::uint64_t* w = column_words(offset + i) + word;
    if ((value >> i) & 1ULL)
      *w |= mask;
    else
      *w &= ~mask;
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
  if (offset < data_cols_ && data_.use_count() > 1) {
    bool changed = false;
    for (std::uint32_t i = 0; i < width && !changed; ++i) {
      changed = column_words(offset + i)[word] != merged[i];
    }
    if (!changed) return;
    detach_data();
  }
  for (std::uint32_t i = 0; i < width; ++i) {
    column_words(offset + i)[word] = merged[i];
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
  if (col < data_cols_ && data_.use_count() > 1) {
    if (std::equal(bits.words().begin(), bits.words().end(),
                   column_words(col))) {
      return;
    }
    detach_data();
  }
  std::uint64_t* dst = column_words(col);
  std::copy(bits.words().begin(), bits.words().end(), dst);
}

bool Crossbar::bit(std::uint32_t row, std::uint32_t col) const {
  if (row >= rows_ || col >= cols_) throw std::out_of_range("Crossbar::bit");
  return (column_words(col)[row / kWordBits] >> (row % kWordBits)) & 1ULL;
}

void Crossbar::set_bit(std::uint32_t row, std::uint32_t col, bool v) {
  if (row >= rows_ || col >= cols_) throw std::out_of_range("Crossbar::set_bit");
  if (col < data_cols_ && data_.use_count() > 1) {
    if (bit(row, col) == v) return;
    detach_data();
  }
  std::uint64_t* w = column_words(col) + row / kWordBits;
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
