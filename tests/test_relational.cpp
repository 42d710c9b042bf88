// Tests for the relational substrate: order-preserving dictionaries,
// schemas, and column-major tables.
#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "relational/dictionary.hpp"
#include "relational/schema.hpp"
#include "relational/table.hpp"

namespace bbpim::rel {
namespace {

TEST(Dictionary, OrderPreservingCodes) {
  Dictionary d = Dictionary::from_values({"banana", "apple", "cherry", "apple"});
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(*d.code("apple"), 0u);
  EXPECT_EQ(*d.code("banana"), 1u);
  EXPECT_EQ(*d.code("cherry"), 2u);
  EXPECT_FALSE(d.code("durian").has_value());
  EXPECT_EQ(d.value(1), "banana");
  EXPECT_THROW(d.value(3), std::out_of_range);
}

TEST(Dictionary, RangeBounds) {
  Dictionary d = Dictionary::from_values({"b", "d", "f"});
  EXPECT_EQ(d.code_lower_bound("a"), 0u);
  EXPECT_EQ(d.code_lower_bound("b"), 0u);
  EXPECT_EQ(d.code_lower_bound("c"), 1u);
  EXPECT_EQ(d.code_lower_bound("g"), 3u);
  EXPECT_EQ(d.code_upper_bound("b"), 1u);
  EXPECT_EQ(d.code_upper_bound("e"), 2u);
  EXPECT_EQ(d.code_upper_bound("a"), 0u);
}

TEST(Dictionary, CodeBits) {
  EXPECT_EQ(Dictionary::from_values({"a"}).code_bits(), 1u);
  EXPECT_EQ(Dictionary::from_values({"a", "b"}).code_bits(), 1u);
  EXPECT_EQ(Dictionary::from_values({"a", "b", "c"}).code_bits(), 2u);
  std::vector<std::string> many;
  for (int i = 0; i < 257; ++i) many.push_back("v" + std::to_string(i));
  EXPECT_EQ(Dictionary::from_values(many).code_bits(), 9u);
}

TEST(SchemaTest, ValidationAndLookup) {
  auto dict = std::make_shared<const Dictionary>(
      Dictionary::from_values({"x", "y"}));
  Schema s({{"a", DataType::kInt, 8, nullptr},
            {"b", DataType::kString, 1, dict}});
  EXPECT_EQ(s.attribute_count(), 2u);
  EXPECT_EQ(*s.index_of("b"), 1u);
  EXPECT_FALSE(s.index_of("zzz").has_value());
  EXPECT_EQ(s.record_bits(), 9u);

  EXPECT_THROW(Schema({{"a", DataType::kInt, 0, nullptr}}),
               std::invalid_argument);
  EXPECT_THROW(Schema({{"a", DataType::kString, 4, nullptr}}),
               std::invalid_argument);
  EXPECT_THROW(Schema({{"a", DataType::kInt, 4, nullptr},
                       {"a", DataType::kInt, 4, nullptr}}),
               std::invalid_argument);
}

TEST(SchemaTest, BitsForMax) {
  EXPECT_EQ(bits_for_max(0), 1u);
  EXPECT_EQ(bits_for_max(1), 1u);
  EXPECT_EQ(bits_for_max(2), 2u);
  EXPECT_EQ(bits_for_max(255), 8u);
  EXPECT_EQ(bits_for_max(256), 9u);
}

TEST(TableTest, AppendAndAccess) {
  auto dict = std::make_shared<const Dictionary>(
      Dictionary::from_values({"hi", "lo"}));
  Table t(Schema({{"k", DataType::kInt, 10, nullptr},
                  {"s", DataType::kString, 1, dict}}),
          "demo");
  const std::uint64_t r0[] = {5, 0};
  const std::uint64_t r1[] = {1023, 1};
  t.append_row(r0);
  t.append_row(r1);
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.value(1, 0), 1023u);
  EXPECT_EQ(t.column(0).size(), 2u);

  const std::uint64_t overflow[] = {1024, 0};
  EXPECT_THROW(t.append_row(overflow), std::invalid_argument);
  const std::uint64_t wrong_arity[] = {1};
  EXPECT_THROW(t.append_row(wrong_arity), std::invalid_argument);
}

TEST(TableTest, FromColumns) {
  const Schema schema({{"k", DataType::kInt, 10, nullptr},
                       {"w", DataType::kInt, 64, nullptr}});
  const Table t = Table::from_columns(schema, "cols",
                                      {{5, 1023, 0}, {~0ULL, 1, 2}});
  EXPECT_EQ(t.name(), "cols");
  EXPECT_EQ(t.row_count(), 3u);
  EXPECT_EQ(t.value(1, 0), 1023u);
  EXPECT_EQ(t.value(0, 1), ~0ULL);
  EXPECT_EQ(Table::from_columns(schema, "empty",
                                std::vector<std::vector<std::uint64_t>>{{}, {}})
                .row_count(),
            0u);

  // Arity: one column per attribute.
  EXPECT_THROW(Table::from_columns(schema, "short", {{1, 2}}),
               std::invalid_argument);
  EXPECT_THROW(Table::from_columns(schema, "long", {{1}, {2}, {3}}),
               std::invalid_argument);
  // Ragged columns, either one shorter.
  EXPECT_THROW(Table::from_columns(schema, "ragged", {{1, 2}, {3}}),
               std::invalid_argument);
  EXPECT_THROW(Table::from_columns(schema, "ragged", {{1}, {2, 3}}),
               std::invalid_argument);
  // A value past the attribute's width, anywhere in the column.
  EXPECT_THROW(Table::from_columns(schema, "wide", {{5, 1024, 0}, {1, 2, 3}}),
               std::invalid_argument);
  EXPECT_THROW(Table::from_columns(schema, "wide", {{5, 0, 1ULL << 40},
                                                    {1, 2, 3}}),
               std::invalid_argument);
}

// --- native column widths ---------------------------------------------------

// One attribute on each side of every storage boundary, and the bytes each
// is stored in.
constexpr std::uint32_t kBoundaryBits[] = {8, 9, 16, 17, 32, 33, 64};
constexpr std::size_t kBoundaryBytes[] = {1, 2, 2, 4, 4, 8, 8};

Schema boundary_schema() {
  std::vector<Attribute> attrs;
  for (const std::uint32_t bits : kBoundaryBits) {
    attrs.push_back({"b" + std::to_string(bits), DataType::kInt, bits, nullptr});
  }
  return Schema(std::move(attrs));
}

std::uint64_t all_ones(std::uint32_t bits) {
  return bits >= 64 ? ~0ULL : (1ULL << bits) - 1;
}

// Row r holds 2^k_r - 1 cut to each attribute's width, for k_r = 8, 16,
// 32, 33, 64: every column reaches its attribute's largest value.
std::vector<std::vector<std::uint64_t>> boundary_columns() {
  std::vector<std::vector<std::uint64_t>> columns;
  for (const std::uint32_t bits : kBoundaryBits) {
    auto& col = columns.emplace_back();
    for (const std::uint32_t k : {8u, 16u, 32u, 33u, 64u}) {
      col.push_back(all_ones(k) & all_ones(bits));
    }
  }
  return columns;
}

std::size_t storage_bytes(const Table& t, std::size_t attr) {
  return t.visit_column(attr, [](auto col) { return sizeof(col[0]); });
}

std::size_t native_bytes(const Table& t) {
  std::size_t bytes = 0;
  for (std::size_t a = 0; a < t.schema().attribute_count(); ++a) {
    bytes += t.visit_column(a, [](auto col) { return col.size_bytes(); });
  }
  return bytes;
}

/// `wide` narrowed to `bytes`-byte elements.
Table::Column narrowed(const std::vector<std::uint64_t>& wide,
                       std::size_t bytes) {
  switch (bytes) {
    case 1: return std::vector<std::uint8_t>(wide.begin(), wide.end());
    case 2: return std::vector<std::uint16_t>(wide.begin(), wide.end());
    case 4: return std::vector<std::uint32_t>(wide.begin(), wide.end());
    default: return wide;
  }
}

std::vector<Table::Column> narrowed_columns(
    const std::vector<std::vector<std::uint64_t>>& wide) {
  std::vector<Table::Column> columns;
  for (std::size_t a = 0; a < wide.size(); ++a) {
    columns.push_back(narrowed(wide[a], kBoundaryBytes[a]));
  }
  return columns;
}

TEST(TableWidths, EveryBuildAndReadPathAgreesAtEachBoundary) {
  const std::vector<std::vector<std::uint64_t>> want = boundary_columns();
  Table appended(boundary_schema(), "rows");
  for (std::size_t r = 0; r < want[0].size(); ++r) {
    std::vector<std::uint64_t> row;
    for (const auto& col : want) row.push_back(col[r]);
    appended.append_row(row);
  }
  const Table built[] = {
      appended,
      Table::from_columns(boundary_schema(), "wide", want),
      Table::from_columns(boundary_schema(), "narrow", narrowed_columns(want)),
  };
  for (const Table& t : built) {
    SCOPED_TRACE(t.name());
    ASSERT_EQ(t.row_count(), want[0].size());
    std::size_t record_bytes = 0;
    for (std::size_t a = 0; a < want.size(); ++a) {
      EXPECT_EQ(storage_bytes(t, a), kBoundaryBytes[a]) << "attr " << a;
      record_bytes += kBoundaryBytes[a];
      EXPECT_EQ(t.value(want[a].size() - 1, a), all_ones(kBoundaryBits[a]));
      for (std::size_t r = 0; r < want[a].size(); ++r) {
        EXPECT_EQ(t.value(r, a), want[a][r]) << "attr " << a << " row " << r;
      }
      const std::vector<std::uint64_t> visited = t.visit_column(
          a, [](auto col) { return std::vector<std::uint64_t>(col.begin(),
                                                              col.end()); });
      EXPECT_EQ(visited, want[a]) << "attr " << a;
    }
    EXPECT_EQ(t.resident_bytes(), record_bytes * t.row_count());
    // The shim widens on demand, and that copy is counted.
    for (std::size_t a = 0; a < want.size(); ++a) {
      EXPECT_EQ(t.column(a), want[a]) << "attr " << a;
    }
    EXPECT_EQ(t.resident_bytes(),
              (record_bytes + 8 * want.size()) * t.row_count());
  }
  EXPECT_THROW(appended.value(want[0].size(), 0), std::out_of_range);
  EXPECT_THROW(appended.column(want.size()), std::out_of_range);
}

TEST(TableWidths, OneBitOverEachBoundaryThrows) {
  for (std::size_t a = 0; a < std::size(kBoundaryBits); ++a) {
    const std::uint32_t bits = kBoundaryBits[a];
    if (bits == 64) continue;
    SCOPED_TRACE("bits " + std::to_string(bits));
    std::vector<std::vector<std::uint64_t>> columns = boundary_columns();
    columns[a].back() = 1ULL << bits;

    Table t(boundary_schema());
    std::vector<std::uint64_t> row;
    for (const auto& col : columns) row.push_back(col.back());
    EXPECT_THROW(t.append_row(row), std::invalid_argument);
    EXPECT_EQ(t.row_count(), 0u);
    EXPECT_EQ(t.resident_bytes(), 0u) << "a rejected row stores nothing";

    EXPECT_THROW(Table::from_columns(boundary_schema(), "wide", columns),
                 std::invalid_argument);
    // A narrow column overflows only where its width is not a whole type.
    if (bits % 8 != 0) {
      EXPECT_THROW(Table::from_columns(boundary_schema(), "narrow",
                                       narrowed_columns(columns)),
                   std::invalid_argument);
    }
  }
}

TEST(TableWidths, NarrowColumnsMustHaveTheirAttributesWidth) {
  std::vector<Table::Column> columns =
      narrowed_columns(boundary_columns());
  columns[1] = std::vector<std::uint32_t>(5, 1);  // 9 bits live in uint16
  EXPECT_THROW(Table::from_columns(boundary_schema(), "mistyped", columns),
               std::invalid_argument);
  std::vector<Table::Column> ragged = narrowed_columns(boundary_columns());
  std::get<std::vector<std::uint8_t>>(ragged[0]).pop_back();
  EXPECT_THROW(Table::from_columns(boundary_schema(), "ragged", ragged),
               std::invalid_argument);
}

TEST(TableWidths, CopyDropsTheWidenedColumnAndMoveKeepsIt) {
  Table t = Table::from_columns(boundary_schema(), "t", boundary_columns());
  const std::size_t native = native_bytes(t);
  const std::vector<std::uint64_t>* wide = &t.column(3);
  EXPECT_EQ(t.resident_bytes(), native + 8 * t.row_count());

  const Table copy = t;
  EXPECT_EQ(copy.resident_bytes(), native);
  EXPECT_EQ(copy.column(3), *wide);
  EXPECT_NE(&copy.column(3), wide);

  Table assigned(boundary_schema());
  assigned = t;
  EXPECT_EQ(assigned.resident_bytes(), native);

  const Table moved = std::move(t);
  EXPECT_EQ(moved.resident_bytes(), native + 8 * moved.row_count());
  EXPECT_EQ(&moved.column(3), wide);

  // append_row keeps a widened copy in step with its column.
  Table grown = copy;
  const std::vector<std::uint64_t>& grown_wide = grown.column(5);
  std::vector<std::uint64_t> row(std::size(kBoundaryBits), 7);
  grown.append_row(row);
  EXPECT_EQ(grown_wide.size(), grown.row_count());
  EXPECT_EQ(grown_wide.back(), 7u);
  EXPECT_EQ(grown.resident_bytes(), native_bytes(grown) + 8 * grown.row_count());
}

TEST(TableWidths, RacingFirstWidensShareOneCopy) {
  const Table t = Table::from_columns(boundary_schema(), "t", boundary_columns());
  constexpr std::size_t kThreads = 8;
  std::vector<const std::vector<std::uint64_t>*> seen(kThreads);
  std::vector<std::vector<std::uint64_t>> values(kThreads);
  std::latch go(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      go.arrive_and_wait();
      seen[i] = &t.column(2);
      values[i] = *seen[i];  // reads the copy on this thread
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(seen[i], seen[0]);
    EXPECT_EQ(values[i], boundary_columns()[2]);
  }
  EXPECT_EQ(t.resident_bytes(), native_bytes(t) + 8 * t.row_count());
}

TEST(ClusterBy, StableSortGathersEveryColumnAtItsWidth) {
  const Schema schema({{"k", DataType::kInt, 3, nullptr},
                       {"v", DataType::kInt, 20, nullptr},
                       {"w", DataType::kInt, 40, nullptr}});
  const Table t = Table::from_columns(
      schema, "t", {{2, 1, 2, 0, 1}, {10, 11, 12, 13, 14}, {5, 6, 7, 8, 9}});
  const Table c = cluster_by(t, 1);
  EXPECT_EQ(c.column(0), t.column(0)) << "already sorted: order kept";

  const Table s = cluster_by(t, 0);
  EXPECT_EQ(s.name(), "t");
  const std::vector<std::vector<std::uint64_t>> want = {
      {0, 1, 1, 2, 2}, {13, 11, 14, 10, 12}, {8, 6, 9, 5, 7}};
  for (std::size_t a = 0; a < want.size(); ++a) {
    EXPECT_EQ(storage_bytes(s, a), storage_bytes(t, a));
    for (std::size_t r = 0; r < want[a].size(); ++r) {
      EXPECT_EQ(s.value(r, a), want[a][r]) << "attr " << a << " row " << r;
    }
  }
  EXPECT_EQ(s.resident_bytes(), native_bytes(s));
  EXPECT_THROW(cluster_by(t, 3), std::out_of_range);
}

}  // namespace
}  // namespace bbpim::rel
