// Tests for pre-joining (Section III) and the Algorithm-1 PIM UPDATE.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "engine/prejoin.hpp"
#include "engine_test_util.hpp"

namespace bbpim::engine {
namespace {

rel::Table make_fact() {
  rel::Table t(rel::Schema({{"f_id", rel::DataType::kInt, 8, nullptr},
                            {"f_fk", rel::DataType::kInt, 4, nullptr},
                            {"f_val", rel::DataType::kInt, 10, nullptr}}),
               "fact");
  Rng rng(7);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t row[] = {i, 1 + rng.next_below(8), rng.next_below(1000)};
    t.append_row(row);
  }
  return t;
}

rel::Table make_dim() {
  auto dict = std::make_shared<const rel::Dictionary>(
      rel::Dictionary::from_values({"red", "green", "blue", "black", "white",
                                    "cyan", "pink", "grey"}));
  rel::Table t(rel::Schema({{"d_key", rel::DataType::kInt, 4, nullptr},
                            {"d_color", rel::DataType::kString, 3, dict},
                            {"d_score", rel::DataType::kInt, 6, nullptr},
                            {"d_note", rel::DataType::kInt, 5, nullptr}}),
               "dim");
  for (std::uint64_t k = 1; k <= 8; ++k) {
    const std::uint64_t row[] = {k, k - 1, k * 7 % 64, k};
    t.append_row(row);
  }
  return t;
}

TEST(Prejoin, JoinsOneToOneAndCarriesAttrs) {
  const rel::Table fact = make_fact();
  const rel::Table dim = make_dim();
  const DimensionSpec specs[] = {{&dim, "f_fk", "d_key", {"d_note"}}};
  const rel::Table joined = prejoin(fact, specs);

  // Same cardinality as the fact side; fk kept, dim key and excluded
  // attributes dropped.
  EXPECT_EQ(joined.row_count(), fact.row_count());
  EXPECT_EQ(joined.schema().attribute_count(), 5u);  // 3 fact + color + score
  EXPECT_TRUE(joined.schema().index_of("f_fk").has_value());
  EXPECT_FALSE(joined.schema().index_of("d_key").has_value());
  EXPECT_FALSE(joined.schema().index_of("d_note").has_value());

  const std::size_t color = *joined.schema().index_of("d_color");
  const std::size_t score = *joined.schema().index_of("d_score");
  for (std::size_t r = 0; r < joined.row_count(); ++r) {
    const std::uint64_t fk = fact.value(r, 1);
    EXPECT_EQ(joined.value(r, color), dim.value(fk - 1, 1));
    EXPECT_EQ(joined.value(r, score), dim.value(fk - 1, 2));
  }
}

TEST(Prejoin, DanglingKeyAndDuplicatesRejected) {
  rel::Table fact = make_fact();
  const std::uint64_t bad[] = {200, 15, 3};  // fk 15 has no dimension row
  fact.append_row(bad);
  const rel::Table dim = make_dim();
  const DimensionSpec specs[] = {{&dim, "f_fk", "d_key", {}}};
  try {
    prejoin(fact, specs);
    ADD_FAILURE() << "a dangling foreign key must throw";
  } catch (const std::runtime_error& e) {
    // The message names the fact row (the appended 101st row, index 100).
    EXPECT_NE(std::string(e.what()).find("in row 100"), std::string::npos)
        << e.what();
  }

  rel::Table dup = make_dim();
  const std::uint64_t dup_row[] = {3, 0, 0, 0};
  dup.append_row(dup_row);
  const DimensionSpec specs2[] = {{&dup, "f_fk", "d_key", {}}};
  EXPECT_THROW(prejoin(make_fact(), specs2), std::invalid_argument);
}

TEST(PimUpdate, Algorithm1UpdatesSelectedRowsOnly) {
  testutil::EngineFixture fx(engine::EngineKind::kOneXb, 700, 61);
  // UPDATE t SET d_tag = 6 WHERE d_tag = 2 (a duplicated dimension value).
  const sql::BoundQuery q =
      fx.bind_sql("SELECT SUM(f_val) FROM t WHERE d_tag = 2");
  std::size_t expected_updates = 0;
  for (std::size_t r = 0; r < fx.table->row_count(); ++r) {
    expected_updates += fx.table->value(r, 4) == 2;
  }

  const UpdateStats stats = [&] {
    const auto lock = fx.store->lock_mutation();
    return pim_update(*fx.store, fx.hcfg, q.filters, 4, 6);
  }();
  EXPECT_EQ(stats.updated_records, expected_updates);
  EXPECT_GT(stats.total_ns, 0.0);
  EXPECT_GT(stats.energy_j, 0.0);
  // Algorithm 1 is pure in-array logic: all dynamic energy is MAGIC cycles
  // (plus controllers), never host-side column writes.
  EXPECT_GT(stats.energy_logic_j, 0.0);
  EXPECT_EQ(stats.energy_write_j, 0.0);
  EXPECT_GT(stats.energy_controller_j, 0.0);
  EXPECT_GT(stats.peak_chip_w, 0.0);
  EXPECT_GT(stats.wear_row_writes, 0u);
  EXPECT_GT(stats.host_path_estimate_ns, 0.0);
  EXPECT_EQ(fx.store->data_version(), 1u);  // one mutation noted

  // Functional verification: old value gone, new value where expected.
  for (std::size_t r = 0; r < fx.table->row_count(); ++r) {
    const std::uint64_t before = fx.table->value(r, 4);
    const std::uint64_t after = fx.store->read_attr(r, 4);
    EXPECT_EQ(after, before == 2 ? 6u : before) << "row " << r;
  }
}

TEST(PimUpdate, ValueOverflowAndCrossPartRejected) {
  testutil::EngineFixture fx(engine::EngineKind::kOneXb, 300, 62);
  {
    const auto lock = fx.store->lock_mutation();
    EXPECT_THROW(pim_update(*fx.store, fx.hcfg, {}, 4, 8),  // 3-bit attr
                 std::invalid_argument);
  }

  testutil::EngineFixture two(engine::EngineKind::kTwoXb, 300, 62);
  const sql::BoundQuery q = two.bind_sql(
      "SELECT SUM(f_val) FROM t WHERE f_key < 100");  // predicate on part 0
  {
    const auto lock = two.store->lock_mutation();
    EXPECT_THROW(pim_update(*two.store, two.hcfg, q.filters, 4, 1),  // on 1
                 std::invalid_argument);
  }
}

TEST(PimUpdate, UndecodableDictionaryCodeRejected) {
  // d_color's dictionary has 8 values (codes 0..7) packed into 3 bits; a
  // dictionary of 6 would accept code 7 by raw width alone. Shrink the
  // domain to expose the gap between field width and encoding.
  auto dict = std::make_shared<const rel::Dictionary>(
      rel::Dictionary::from_values({"red", "green", "blue", "black", "white",
                                    "cyan"}));
  rel::Table t(rel::Schema({{"key", rel::DataType::kInt, 8, nullptr},
                            {"color", rel::DataType::kString, 3, dict}}),
               "paints");
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t row[] = {i, i % 6};
    t.append_row(row);
  }
  pim::PimModule module(testutil::small_pim_config());
  engine::PimStore store(module, t);
  const host::HostConfig hcfg;
  const auto lock = store.lock_mutation();
  // Codes 6 and 7 fit the 3-bit field but decode to nothing.
  EXPECT_THROW(pim_update(store, hcfg, {}, 1, 6), std::invalid_argument);
  EXPECT_THROW(pim_update(store, hcfg, {}, 1, 7), std::invalid_argument);
  // A valid code is accepted.
  const UpdateStats st = pim_update(store, hcfg, {}, 1, 5);
  EXPECT_EQ(st.updated_records, 64u);
}

TEST(PimUpdate, NoMatchIsNoOp) {
  testutil::EngineFixture fx(engine::EngineKind::kOneXb, 300, 63);
  sql::BoundPredicate never;
  never.kind = sql::BoundPredicate::Kind::kNever;
  const auto lock = fx.store->lock_mutation();
  const UpdateStats stats = pim_update(*fx.store, fx.hcfg, {never}, 4, 5);
  EXPECT_EQ(stats.updated_records, 0u);
  EXPECT_EQ(fx.store->data_version(), 0u);  // nothing changed, caches warm
  for (std::size_t r = 0; r < fx.table->row_count(); ++r) {
    EXPECT_EQ(fx.store->read_attr(r, 4), fx.table->value(r, 4));
  }
}

TEST(PimUpdate, MutationRefreshesDistinctStats) {
  testutil::EngineFixture fx(engine::EngineKind::kOneXb, 400, 64);
  // d_tag holds gid % 7, so 7 never occurs and fits the 3-bit field.
  const auto& before = fx.store->distinct_values(4);
  ASSERT_TRUE(before.has_value());
  EXPECT_TRUE(std::find(before->begin(), before->end(), 7u) == before->end());

  const sql::BoundQuery q = fx.bind_sql("SELECT SUM(f_val) FROM t WHERE d_tag = 2");
  {
    const auto lock = fx.store->lock_mutation();
    pim_update(*fx.store, fx.hcfg, q.filters, 4, 7);
  }
  const auto& after = fx.store->distinct_values(4);
  ASSERT_TRUE(after.has_value());
  EXPECT_TRUE(std::find(after->begin(), after->end(), 7u) != after->end());
  EXPECT_TRUE(std::find(after->begin(), after->end(), 2u) == after->end());
}

}  // namespace
}  // namespace bbpim::engine
