// Unit tests for the crossbar functional model: column logic, row access,
// and wear accounting.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "pim/crossbar.hpp"

namespace bbpim::pim {
namespace {

TEST(Crossbar, ConstructionValidation) {
  EXPECT_THROW(Crossbar(0, 8), std::invalid_argument);
  EXPECT_THROW(Crossbar(100, 8), std::invalid_argument);  // not multiple of 64
  Crossbar xb(128, 32);
  EXPECT_EQ(xb.rows(), 128u);
  EXPECT_EQ(xb.cols(), 32u);
}

TEST(Crossbar, RowReadWriteRoundTrip) {
  Crossbar xb(128, 64);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t row = static_cast<std::uint32_t>(rng.next_below(128));
    const std::uint32_t width = 1 + static_cast<std::uint32_t>(rng.next_below(40));
    const std::uint32_t offset =
        static_cast<std::uint32_t>(rng.next_below(64 - width));
    const std::uint64_t value = rng.next_u64() & ((width >= 64) ? ~0ULL : ((1ULL << width) - 1));
    xb.write_row_bits(row, offset, width, value);
    EXPECT_EQ(xb.read_row_bits(row, offset, width), value);
  }
}

TEST(Crossbar, RowAccessBoundsChecked) {
  Crossbar xb(64, 16);
  EXPECT_THROW(xb.read_row_bits(64, 0, 4), std::out_of_range);
  EXPECT_THROW(xb.read_row_bits(0, 14, 4), std::out_of_range);
  EXPECT_THROW(xb.write_row_bits(0, 0, 0, 0), std::out_of_range);
}

TEST(Crossbar, MicroOpsComputeExactly) {
  Crossbar xb(64, 8);
  // Set column 0 = pattern A, column 1 = pattern B via row writes.
  for (std::uint32_t r = 0; r < 64; ++r) {
    xb.set_bit(r, 0, (r % 2) == 0);
    xb.set_bit(r, 1, (r % 3) == 0);
  }
  xb.execute(MicroOp::init1(2));
  xb.execute(MicroOp::nor_op(0, 1, 2));
  xb.execute(MicroOp::init1(3));
  xb.execute(MicroOp::not_op(0, 3));
  xb.execute(MicroOp::init0(4));
  for (std::uint32_t r = 0; r < 64; ++r) {
    const bool a = (r % 2) == 0;
    const bool b = (r % 3) == 0;
    EXPECT_EQ(xb.bit(r, 2), !(a || b)) << "row " << r;
    EXPECT_EQ(xb.bit(r, 3), !a) << "row " << r;
    EXPECT_FALSE(xb.bit(r, 4));
  }
}

TEST(Crossbar, ColumnSnapshotMatchesBits) {
  Crossbar xb(128, 4);
  for (std::uint32_t r = 0; r < 128; r += 5) xb.set_bit(r, 2, true);
  const BitVec col = xb.column(2);
  EXPECT_EQ(col.size(), 128u);
  for (std::uint32_t r = 0; r < 128; ++r) {
    EXPECT_EQ(col.get(r), (r % 5) == 0);
  }
}

TEST(Crossbar, WriteColumnRoundTrip) {
  Crossbar xb(128, 4);
  BitVec bits(128);
  for (std::uint32_t r = 0; r < 128; r += 3) bits.set(r, true);
  xb.write_column(1, bits);
  EXPECT_EQ(xb.column(1), bits);
  BitVec wrong(64);
  EXPECT_THROW(xb.write_column(1, wrong), std::invalid_argument);
}

TEST(Crossbar, ColumnPopcountAndDataMatchSnapshot) {
  Crossbar xb(192, 6);
  Rng rng(9);
  for (std::uint32_t r = 0; r < 192; ++r) {
    xb.set_bit(r, 3, rng.next_double() < 0.3);
  }
  EXPECT_EQ(xb.column_popcount(3), xb.column(3).popcount());
  EXPECT_EQ(xb.words_per_column(), 3u);
  const std::uint64_t* words = xb.column_data(3);
  const BitVec snapshot = xb.column(3);
  for (std::uint32_t w = 0; w < xb.words_per_column(); ++w) {
    EXPECT_EQ(words[w], snapshot.words()[w]);
  }
  EXPECT_THROW(xb.column_popcount(6), std::out_of_range);
  EXPECT_THROW(xb.column_data(6), std::out_of_range);
}

TEST(Crossbar, WearAccounting) {
  Crossbar xb(64, 8);
  EXPECT_EQ(xb.max_row_writes(), 0u);
  // Every micro-op writes its output column once per row.
  xb.execute(MicroOp::init1(2));
  xb.execute(MicroOp::not_op(0, 2));
  EXPECT_EQ(xb.uniform_row_writes(), 2u);
  // Row writes add per-row extras.
  xb.write_row_bits(5, 0, 4, 0xF);
  EXPECT_EQ(xb.max_extra_row_writes(), 4u);
  EXPECT_EQ(xb.max_row_writes(), 6u);
  // Column writes and explicit uniform wear.
  xb.write_column(3, BitVec(64));
  xb.add_uniform_wear(10);
  EXPECT_EQ(xb.uniform_row_writes(), 13u);
  xb.reset_wear();
  EXPECT_EQ(xb.max_row_writes(), 0u);
}

// --- Block transfer (read_field_block / write_field_block) ------------------

std::uint64_t field_mask(std::uint32_t width) {
  return width == 64 ? ~0ULL : (1ULL << width) - 1;
}

/// Random bits in every cell of the crossbar, written column-wise.
void fill_random(Crossbar& xb, Rng& rng) {
  for (std::uint32_t c = 0; c < xb.cols(); ++c) {
    BitVec bits(xb.rows());
    for (auto& w : bits.words()) w = rng.next_u64();
    xb.write_column(c, bits);
  }
}

TEST(CrossbarBlock, ReadMatchesPerRowReads) {
  Crossbar xb(192, 80);
  Rng rng(17);
  fill_random(xb, rng);
  // Widths 1, 13 and 64; the 13-bit field ends at the last column.
  const std::pair<std::uint32_t, std::uint32_t> fields[] = {
      {0, 1}, {5, 1}, {67, 13}, {9, 13}, {0, 64}, {16, 64}};
  for (const auto& [offset, width] : fields) {
    for (std::uint32_t word = 0; word < xb.words_per_column(); ++word) {
      RowBlock block;
      xb.read_field_block(word, offset, width, block);
      for (std::uint32_t j = 0; j < 64; ++j) {
        EXPECT_EQ(block[j], xb.read_row_bits(64 * word + j, offset, width))
            << "offset " << offset << " width " << width << " row "
            << 64 * word + j;
      }
    }
  }
}

TEST(CrossbarBlock, WriteMatchesPerRowWritesIncludingWear) {
  Rng rng(29);
  const std::uint64_t masks[] = {~0ULL, 0x1ULL, 0x8000000000000001ULL,
                                 0x00000000FFFFF00FULL, rng.next_u64()};
  const std::pair<std::uint32_t, std::uint32_t> fields[] = {
      {3, 1}, {20, 13}, {67, 13}, {0, 64}, {16, 64}};
  for (const auto& [offset, width] : fields) {
    for (const std::uint64_t mask : masks) {
      Crossbar block_xb(128, 80);
      Crossbar row_xb(128, 80);
      Rng fill(offset * 131 + width);
      fill_random(block_xb, fill);
      Rng fill_again(offset * 131 + width);
      fill_random(row_xb, fill_again);
      for (std::uint32_t word = 0; word < 2; ++word) {
        RowBlock values;
        // Bits above the field must be ignored, as write_row_bits does.
        for (auto& v : values) v = rng.next_u64();
        block_xb.write_field_block(word, offset, width, values, mask);
        for (std::uint32_t j = 0; j < 64; ++j) {
          if ((mask >> j) & 1ULL) {
            row_xb.write_row_bits(64 * word + j, offset, width, values[j]);
          }
        }
      }
      for (std::uint32_t c = 0; c < 80; ++c) {
        EXPECT_EQ(block_xb.column(c), row_xb.column(c))
            << "column " << c << " offset " << offset << " width " << width;
      }
      EXPECT_EQ(block_xb.max_extra_row_writes(),
                row_xb.max_extra_row_writes());
      EXPECT_EQ(block_xb.max_extra_row_writes(), width);
    }
  }
}

TEST(CrossbarBlock, WriteKeepsCopyOnWriteRule) {
  // Data [0, 32), scratch [32, 64); the field [19, 32) ends at the last
  // data column.
  Crossbar xb(128, 64, 32);
  Rng rng(41);
  RowBlock values;
  for (auto& v : values) v = rng.next_u64() & field_mask(13);
  xb.write_field_block(1, 19, 13, values, ~0ULL);

  // Unchanged bits into a shared segment: still shared, wear still charged.
  Crossbar other(128, 64, 32);
  other.adopt_data(xb.data_segment());
  ASSERT_TRUE(xb.data_shared());
  xb.reset_wear();
  xb.write_field_block(1, 19, 13, values, 0x00F0F0F0F0F0F0F0ULL);
  EXPECT_TRUE(xb.data_shared());
  EXPECT_EQ(xb.max_extra_row_writes(), 13u);

  // A changed bit detaches; the other holder keeps the old value.
  RowBlock changed = values;
  changed[5] ^= 1;
  xb.write_field_block(1, 19, 13, changed, 1ULL << 5);
  EXPECT_FALSE(xb.data_shared());
  EXPECT_EQ(xb.read_row_bits(64 + 5, 19, 13), changed[5]);
  EXPECT_EQ(other.read_row_bits(64 + 5, 19, 13), values[5]);
}

TEST(CrossbarBlock, BoundsChecked) {
  Crossbar xb(128, 40);
  RowBlock block{};
  EXPECT_THROW(xb.read_field_block(2, 0, 8, block), std::out_of_range);
  EXPECT_THROW(xb.read_field_block(0, 0, 0, block), std::out_of_range);
  EXPECT_THROW(xb.read_field_block(0, 0, 65, block), std::out_of_range);
  EXPECT_THROW(xb.read_field_block(0, 33, 8, block), std::out_of_range);
  EXPECT_THROW(xb.write_field_block(2, 0, 8, block, ~0ULL), std::out_of_range);
  EXPECT_THROW(xb.write_field_block(0, 0, 0, block, ~0ULL), std::out_of_range);
  EXPECT_THROW(xb.write_field_block(0, 0, 65, block, ~0ULL),
               std::out_of_range);
  EXPECT_THROW(xb.write_field_block(0, 33, 8, block, ~0ULL), std::out_of_range);
  EXPECT_NO_THROW(xb.read_field_block(1, 32, 8, block));
}

}  // namespace
}  // namespace bbpim::pim
