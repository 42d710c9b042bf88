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
  EXPECT_THROW(Crossbar(Crossbar::kMaxRows + 64, 8), std::invalid_argument);
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
  other.adopt_data_groups(xb.data_groups());
  ASSERT_EQ(xb.data_group_count(), 1u);
  ASSERT_TRUE(xb.group_shared(0));
  xb.reset_wear();
  xb.write_field_block(1, 19, 13, values, 0x00F0F0F0F0F0F0F0ULL);
  EXPECT_TRUE(xb.group_shared(0));
  EXPECT_EQ(xb.max_extra_row_writes(), 13u);

  // A changed bit detaches; the other holder keeps the old value.
  RowBlock changed = values;
  changed[5] ^= 1;
  xb.write_field_block(1, 19, 13, changed, 1ULL << 5);
  EXPECT_FALSE(xb.group_shared(0));
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

// --- Column groups: lazy allocation and per-group copy-on-write ----------

/// 128 rows; data [0, 80) in groups {0, 1, 2} (the last 16 columns wide),
/// scratch [80, 150) in groups {3, 4, 5} (the last 6 columns wide).
Crossbar grouped() { return Crossbar(128, 150, 80); }

std::size_t resident_groups(const Crossbar& xb) {
  std::size_t n = 0;
  for (std::uint32_t g = 0; g < xb.group_count(); ++g) {
    n += xb.group_resident(g);
  }
  return n;
}

TEST(CrossbarGroups, GeometryAlignsDataAtZeroAndScratchAtDataCols) {
  const Crossbar xb = grouped();
  EXPECT_EQ(xb.group_count(), 6u);
  EXPECT_EQ(xb.data_group_count(), 3u);
  EXPECT_EQ(xb.group_of(0), 0u);
  EXPECT_EQ(xb.group_of(kGroupCols - 1), 0u);
  EXPECT_EQ(xb.group_of(kGroupCols), 1u);
  EXPECT_EQ(xb.group_of(79), 2u);
  EXPECT_EQ(xb.group_of(80), 3u);
  EXPECT_EQ(xb.group_of(80 + kGroupCols - 1), 3u);
  EXPECT_EQ(xb.group_of(80 + kGroupCols), 4u);
  EXPECT_EQ(xb.group_of(149), 5u);
  EXPECT_THROW(xb.group_of(150), std::out_of_range);
}

TEST(CrossbarGroups, UnwrittenColumnsReadAsZeros) {
  const Crossbar xb = grouped();
  EXPECT_EQ(resident_groups(xb), 0u);
  for (std::uint32_t c = 0; c < xb.cols(); ++c) {
    const std::uint64_t* words = xb.column_data(c);
    for (std::uint32_t w = 0; w < xb.words_per_column(); ++w) {
      EXPECT_EQ(words[w], 0u) << "column " << c;
    }
    EXPECT_EQ(xb.column_popcount(c), 0u);
    for (std::uint32_t r = 0; r < xb.rows(); r += 37) {
      EXPECT_FALSE(xb.bit(r, c)) << "row " << r << " column " << c;
    }
  }
  // Fields inside data, inside scratch, and across the data/scratch split.
  const std::pair<std::uint32_t, std::uint32_t> fields[] = {
      {0, 64}, {70, 20}, {100, 50}};
  for (const auto& [offset, width] : fields) {
    for (std::uint32_t word = 0; word < xb.words_per_column(); ++word) {
      RowBlock block;
      block.fill(~0ULL);
      xb.read_field_block(word, offset, width, block);
      for (const std::uint64_t v : block) EXPECT_EQ(v, 0u);
    }
    for (std::uint32_t r = 0; r < xb.rows(); r += 13) {
      EXPECT_EQ(xb.read_row_bits(r, offset, width), 0u);
    }
  }
  EXPECT_EQ(xb.resident_bytes().data, 0u);
  EXPECT_EQ(xb.resident_bytes().scratch, 0u);
}

TEST(CrossbarGroups, ZeroWritesMaterializeNothingButChargeWear) {
  Crossbar xb = grouped();
  const RowBlock zeros{};
  xb.write_field_block(0, 20, 40, zeros, ~0ULL);   // data groups 0 and 1
  xb.write_field_block(1, 75, 30, zeros, 0xF0ULL);  // data 2 + scratch 3
  xb.write_row_bits(5, 60, 64, 0);                 // data 1, 2 + scratch 3
  xb.write_row_bits(9, 140, 10, 0);                // scratch 5
  xb.write_column(0, BitVec(128));
  xb.write_column(120, BitVec(128));
  xb.set_bit(3, 90, false);
  EXPECT_EQ(resident_groups(xb), 0u);
  EXPECT_EQ(xb.resident_bytes().data + xb.resident_bytes().scratch, 0u);
  // Wear is charged as if the bits had been written: row 5 took the first
  // block write's 40 and the 64-bit row write.
  EXPECT_EQ(xb.uniform_row_writes(), 2u);
  EXPECT_EQ(xb.max_extra_row_writes(), 40u + 64u);
}

TEST(CrossbarGroups, NonzeroWriteMaterializesOnlyTheGroupsItChanges) {
  Crossbar xb = grouped();
  // A field spanning data groups 1 and 2 whose bits change only in group 2.
  xb.write_row_bits(7, 60, 10, 0b1111000000);
  EXPECT_FALSE(xb.group_resident(1));
  EXPECT_TRUE(xb.group_resident(2));
  EXPECT_EQ(resident_groups(xb), 1u);
  EXPECT_EQ(xb.read_row_bits(7, 60, 10), 0b1111000000u);
  EXPECT_EQ(xb.resident_bytes().data, 16u * xb.words_per_column() * 8u);
  EXPECT_EQ(xb.resident_bytes().scratch, 0u);
}

TEST(CrossbarGroups, GateOpOnScratchMaterializesExactlyItsGroup) {
  Crossbar xb = grouped();
  const std::uint16_t out = 80 + kGroupCols + 3;  // scratch group 4
  // Even an all-zero result materializes the group a gate writes.
  xb.execute(MicroOp::nor_op(0, 1, out));
  EXPECT_TRUE(xb.group_resident(xb.group_of(out)));
  EXPECT_EQ(resident_groups(xb), 1u);
  EXPECT_EQ(xb.resident_bytes().scratch,
            std::size_t{kGroupCols} * xb.words_per_column() * 8u);
  EXPECT_EQ(xb.resident_bytes().data, 0u);
  EXPECT_EQ(xb.column_popcount(out), xb.rows());  // NOR of two zero columns
  EXPECT_EQ(xb.uniform_row_writes(), 1u);
  xb.execute(MicroOp::init0(out));
  EXPECT_EQ(xb.column_popcount(out), 0u);
  EXPECT_EQ(resident_groups(xb), 1u);
}

TEST(CrossbarGroups, CopySharesDataAndDeepCopiesScratch) {
  Crossbar xb = grouped();
  Rng rng(61);
  fill_random(xb, rng);
  ASSERT_EQ(resident_groups(xb), xb.group_count());
  const Crossbar copy(xb);
  for (std::uint32_t g = 0; g < xb.group_count(); ++g) {
    const bool data = g < xb.data_group_count();
    EXPECT_EQ(copy.group_shared(g), data) << "group " << g;
    EXPECT_EQ(xb.group_shared(g), data) << "group " << g;
  }
  for (std::uint32_t c = 0; c < xb.cols(); ++c) {
    EXPECT_EQ(copy.column(c), xb.column(c)) << "column " << c;
  }
  // A scratch write on the original leaves the copy's scratch as it was.
  const BitVec before = copy.column(100);
  xb.execute(MicroOp::not_op(100, 100));
  EXPECT_EQ(copy.column(100), before);
  EXPECT_NE(xb.column(100), before);
  EXPECT_TRUE(xb.group_shared(0));
}

TEST(CrossbarGroups, SharedWriteClonesOnlyItsGroup) {
  Crossbar xb = grouped();
  Rng rng(67);
  fill_random(xb, rng);
  Crossbar other = grouped();
  other.adopt_data_groups(xb.data_groups());
  std::vector<BitVec> before;
  for (std::uint32_t c = 0; c < xb.data_cols(); ++c) {
    before.push_back(xb.column(c));
  }
  for (std::uint32_t g = 0; g < xb.data_group_count(); ++g) {
    ASSERT_TRUE(xb.group_shared(g));
  }
  // Scratch is never shared by adoption.
  EXPECT_FALSE(other.group_resident(xb.data_group_count()));

  // Flip one bit of group 1 through each value-aware writer in turn.
  const std::uint32_t col = kGroupCols + 4;
  xb.set_bit(11, col, !xb.bit(11, col));
  EXPECT_FALSE(xb.group_shared(1));
  EXPECT_TRUE(xb.group_shared(0));
  EXPECT_TRUE(xb.group_shared(2));
  EXPECT_EQ(other.column(col), before[col]);

  // A field across groups 0 and 1 that changes only group 0's bits.
  Crossbar third = grouped();
  third.adopt_data_groups(xb.data_groups());
  const std::uint32_t row = 70;
  const std::uint64_t was = xb.read_row_bits(row, 28, 8);
  xb.write_row_bits(row, 28, 8, was ^ 0b0001);
  EXPECT_FALSE(xb.group_shared(0));
  EXPECT_TRUE(xb.group_shared(1));
  EXPECT_TRUE(xb.group_shared(2));
  EXPECT_EQ(xb.read_row_bits(row, 28, 8), was ^ 0b0001);
  EXPECT_EQ(third.read_row_bits(row, 28, 8), was);

  // The first holder still reads every data column as it was.
  for (std::uint32_t c = 0; c < xb.data_cols(); ++c) {
    EXPECT_EQ(other.column(c), before[c]) << "column " << c;
  }
  // Adoption takes exactly data_group_count() groups.
  const std::vector<ColumnGroup> too_few(2);
  EXPECT_THROW(other.adopt_data_groups(too_few), std::invalid_argument);
}

}  // namespace
}  // namespace bbpim::pim
