// Tests for the EXPLAIN facility.
#include <gtest/gtest.h>

#include <sstream>
#include <typeinfo>
#include <utility>

#include "db/db.hpp"
#include "engine/explain.hpp"
#include "engine_test_util.hpp"

namespace bbpim::engine {
namespace {

TEST(Explain, OneXbPlanMentionsEverything) {
  testutil::EngineFixture fx(EngineKind::kOneXb, 300, 90);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT f_gid, SUM(f_val * f_val2) AS x FROM t "
      "WHERE f_key BETWEEN 100 AND 3000 AND d_tag IN (1, 2) "
      "GROUP BY f_gid ORDER BY f_gid");
  const std::string plan = explain_query(q, *fx.store);
  EXPECT_NE(plan.find("one-xb"), std::string::npos);
  EXPECT_NE(plan.find("FILTER part 0: 2 predicate(s)"), std::string::npos);
  EXPECT_NE(plan.find("100 <= f_key <= 3000"), std::string::npos);
  EXPECT_NE(plan.find("d_tag IN {1,2}"), std::string::npos);
  // f_val2 is the narrow operand: one masked pass per bit + a count pass.
  EXPECT_NE(plan.find("SUM(f_val * f_val2) AS x: 7 pass(es)"),
            std::string::npos);
  EXPECT_NE(plan.find("pass 5: SUM(f_val) where f_val2[5], x32"),
            std::string::npos);
  EXPECT_NE(plan.find("pass 6: SUM(select), count only"), std::string::npos);
  EXPECT_NE(plan.find("GROUP BY: f_gid"), std::string::npos);
  EXPECT_NE(plan.find("Equation 3"), std::string::npos);
  EXPECT_EQ(plan.find("TRANSFER"), std::string::npos);  // one part
}

TEST(Explain, TwoXbPlanShowsTransferAndParts) {
  testutil::EngineFixture fx(EngineKind::kTwoXb, 300, 91);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT d_tag, SUM(f_val) AS s FROM t WHERE f_key < 1000 AND d_tag > 1 "
      "GROUP BY d_tag");
  const std::string plan = explain_query(q, *fx.store);
  EXPECT_NE(plan.find("two-xb"), std::string::npos);
  EXPECT_NE(plan.find("FILTER part 0: 1 predicate(s)"), std::string::npos);
  EXPECT_NE(plan.find("FILTER part 1: 1 predicate(s)"), std::string::npos);
  EXPECT_NE(plan.find("TRANSFER"), std::string::npos);
  EXPECT_NE(plan.find("d_tag(part 1)"), std::string::npos);
}

TEST(Explain, TwoXbStatesOnePartLoad) {
  // A relation with no dimension attribute loads as one part on two-xb,
  // and EXPLAIN says so.
  rel::Table plain(rel::Schema({{"k", rel::DataType::kInt, 8, nullptr},
                                {"v", rel::DataType::kInt, 8, nullptr}}),
                   "plain");
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t row[] = {i, i % 10};
    plain.append_row(row);
  }
  db::Database database;
  database.register_table(std::move(plain));
  db::Session session(database);
  const std::string plan = session.explain("SELECT SUM(v) FROM plain",
                                           db::BackendKind::kTwoXb);
  EXPECT_NE(plan.find("two-xb: 'plain' has no dimension attribute; it loads "
                      "as one part\n== physical plan (one-xb"),
            std::string::npos);
}

TEST(Explain, NoGroupByAndLinearity) {
  testutil::EngineFixture fx(EngineKind::kOneXb, 300, 92);
  const sql::BoundQuery q =
      fx.bind_sql("SELECT SUM(f_val - f_val2) AS d FROM t");
  const std::string plan = explain_query(q, *fx.store);
  EXPECT_NE(plan.find("SUM(f_val - f_val2) AS d: 2 pass(es)"),
            std::string::npos);
  EXPECT_NE(plan.find("pass 1: SUM(f_val2), x-1"), std::string::npos);
  EXPECT_NE(plan.find("NO GROUP BY"), std::string::npos);
}

TEST(Explain, CountAndMin) {
  testutil::EngineFixture fx(EngineKind::kOneXb, 300, 93);
  const std::string count_plan = explain_query(
      fx.bind_sql("SELECT COUNT(*) AS c FROM t WHERE f_key < 10"), *fx.store);
  EXPECT_NE(count_plan.find("COUNT(*) AS c: 1 pass(es)"), std::string::npos);
  EXPECT_NE(count_plan.find("pass 0: SUM(select)\n"), std::string::npos);
  const std::string min_plan = explain_query(
      fx.bind_sql("SELECT f_gid, MIN(f_val) AS m FROM t GROUP BY f_gid"),
      *fx.store);
  EXPECT_NE(min_plan.find("MIN(f_val) AS m: 1 pass(es)"), std::string::npos);
  EXPECT_NE(min_plan.find("pass 0: MIN(f_val), with count"), std::string::npos);
}

/// The dynamic type and what() of the exception `fn` throws.
template <class Fn>
std::pair<std::string, std::string> thrown(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return {typeid(e).name(), e.what()};
  }
  return {"", "nothing thrown"};
}

// EXPLAIN prints the executed pass plan, so it refuses every aggregate the
// engine refuses, with the engine's exception.
TEST(Explain, RefusesWhatExecutionRefuses) {
  testutil::EngineFixture one(EngineKind::kOneXb, 300, 94);
  testutil::EngineFixture two(EngineKind::kTwoXb, 300, 95);
  struct Case {
    testutil::EngineFixture* fx;
    const char* sql;
  };
  for (const Case& c :
       {Case{&one, "SELECT MIN(f_val - f_val2) AS m FROM t"},
        Case{&two, "SELECT f_gid, SUM(d_tag) AS s FROM t GROUP BY f_gid"}}) {
    const sql::BoundQuery q = c.fx->bind_sql(c.sql);
    const auto by_engine = thrown([&] { c.fx->engine->execute(q); });
    const auto by_explain = thrown([&] { explain_query(q, *c.fx->store); });
    EXPECT_NE(by_engine.first, "") << c.sql;
    EXPECT_EQ(by_explain, by_engine) << c.sql;
  }
}

}  // namespace
}  // namespace bbpim::engine
