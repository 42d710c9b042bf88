// Tests for the relational substrate: order-preserving dictionaries,
// schemas, and column-major tables.
#include <gtest/gtest.h>

#include <memory>

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
  EXPECT_EQ(t.display(0, 1), "hi");
  EXPECT_EQ(t.display(1, 0), "1023");
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
  EXPECT_EQ(Table::from_columns(schema, "empty", {{}, {}}).row_count(), 0u);

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

}  // namespace
}  // namespace bbpim::rel
