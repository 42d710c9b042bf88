// Tests for the SQL front-end: lexer, parser, and binder (including
// order-preserving string ranges and static predicate folding).
#include <gtest/gtest.h>

#include <memory>

#include "sql/lexer.hpp"
#include "sql/logical_plan.hpp"
#include "sql/parser.hpp"
#include "ssb/queries.hpp"

namespace bbpim::sql {
namespace {

TEST(Lexer, TokenKindsAndPayloads) {
  const auto toks = lex("SELECT a_b, 42 FROM t WHERE x >= 'hi';");
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, TokKind::kKeyword);
  EXPECT_EQ(toks[0].text, "SELECT");
  EXPECT_EQ(toks[1].kind, TokKind::kIdent);
  EXPECT_EQ(toks[1].text, "a_b");
  EXPECT_EQ(toks[2].kind, TokKind::kComma);
  EXPECT_EQ(toks[3].kind, TokKind::kInt);
  EXPECT_EQ(toks[3].int_value, 42);
  EXPECT_EQ(toks.back().kind, TokKind::kEnd);
}

TEST(Lexer, CaseInsensitiveKeywordsLowercaseIdents) {
  const auto toks = lex("select D_Year from T");
  EXPECT_EQ(toks[0].text, "SELECT");
  EXPECT_EQ(toks[1].text, "d_year");
}

TEST(Lexer, Operators) {
  const auto toks = lex("< <= > >= = * + -");
  EXPECT_EQ(toks[0].kind, TokKind::kLt);
  EXPECT_EQ(toks[1].kind, TokKind::kLe);
  EXPECT_EQ(toks[2].kind, TokKind::kGt);
  EXPECT_EQ(toks[3].kind, TokKind::kGe);
  EXPECT_EQ(toks[4].kind, TokKind::kEq);
  EXPECT_EQ(toks[5].kind, TokKind::kStar);
  EXPECT_EQ(toks[6].kind, TokKind::kPlus);
  EXPECT_EQ(toks[7].kind, TokKind::kMinus);
}

TEST(Lexer, Errors) {
  EXPECT_THROW(lex("SELECT 'unterminated"), std::invalid_argument);
  EXPECT_THROW(lex("SELECT @"), std::invalid_argument);
}

TEST(Parser, FullSelectShape) {
  const SelectStmt s = parse(
      "SELECT SUM(a * b) AS rev, g FROM t1, t2 "
      "WHERE a = 3 AND b BETWEEN 1 AND 5 AND c IN ('x', 'y') AND k1 = k2 "
      "GROUP BY g ORDER BY g ASC, rev DESC;");
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[0].func, AggFunc::kSum);
  EXPECT_EQ(s.items[0].expr.kind, Expr::Kind::kMul);
  EXPECT_EQ(s.items[0].alias, "rev");
  EXPECT_EQ(s.items[1].func, AggFunc::kNone);
  ASSERT_EQ(s.from.size(), 2u);
  ASSERT_EQ(s.where.size(), 4u);
  EXPECT_EQ(s.where[0].kind, Predicate::Kind::kCmp);
  EXPECT_EQ(s.where[1].kind, Predicate::Kind::kBetween);
  EXPECT_EQ(s.where[2].kind, Predicate::Kind::kIn);
  EXPECT_EQ(s.where[2].in_list.size(), 2u);
  EXPECT_EQ(s.where[3].kind, Predicate::Kind::kJoinEq);
  EXPECT_EQ(s.where[3].join_right, "k2");
  ASSERT_EQ(s.order_by.size(), 2u);
  EXPECT_FALSE(s.order_by[0].desc);
  EXPECT_TRUE(s.order_by[1].desc);
}

TEST(Parser, LiteralFirstComparisonFlips) {
  const SelectStmt s = parse("SELECT SUM(a) FROM t WHERE 10 <= b");
  ASSERT_EQ(s.where.size(), 1u);
  EXPECT_EQ(s.where[0].column, "b");
  EXPECT_EQ(s.where[0].op, CmpOp::kGe);
  EXPECT_EQ(s.where[0].v1.int_value, 10);
}

TEST(Parser, SyntaxErrors) {
  EXPECT_THROW(parse("FROM t"), std::invalid_argument);
  EXPECT_THROW(parse("SELECT SUM(a FROM t"), std::invalid_argument);
  EXPECT_THROW(parse("SELECT a FROM t WHERE a < b"), std::invalid_argument);
  EXPECT_THROW(parse("SELECT a FROM t extra junk"), std::invalid_argument);
}

TEST(Parser, AllSsbQueriesParse) {
  for (const auto& q : ssb::queries()) {
    EXPECT_NO_THROW(parse(q.sql)) << "query " << q.id;
  }
}

// ---------------------------------------------------------------------------
// Binder
// ---------------------------------------------------------------------------

rel::Schema test_schema() {
  auto dict = std::make_shared<const rel::Dictionary>(
      rel::Dictionary::from_values({"alpha", "beta", "gamma", "delta"}));
  return rel::Schema({{"k", rel::DataType::kInt, 16, nullptr},
                      {"v", rel::DataType::kInt, 20, nullptr},
                      {"w", rel::DataType::kInt, 8, nullptr},
                      {"s", rel::DataType::kString, 2, dict}});
}

TEST(Binder, BindsPredicatesGroupsAndOrder) {
  const rel::Schema schema = test_schema();
  const BoundQuery q = bind(
      parse("SELECT s, SUM(v) AS total FROM t WHERE k >= 5 AND s = 'beta' "
            "GROUP BY s ORDER BY total DESC, s"),
      schema);
  ASSERT_EQ(q.filters.size(), 2u);
  EXPECT_EQ(q.filters[0].kind, BoundPredicate::Kind::kGe);
  EXPECT_EQ(q.filters[0].attr, 0u);
  EXPECT_EQ(q.filters[1].kind, BoundPredicate::Kind::kEq);
  EXPECT_EQ(q.filters[1].v1, 1u);  // "beta"
  ASSERT_EQ(q.group_by.size(), 1u);
  EXPECT_EQ(q.group_by[0], 3u);
  EXPECT_EQ(q.agg_func, AggFunc::kSum);
  ASSERT_EQ(q.order_by.size(), 2u);
  EXPECT_TRUE(q.order_by[0].is_agg);
  EXPECT_TRUE(q.order_by[0].desc);
  EXPECT_FALSE(q.order_by[1].is_agg);
}

TEST(Binder, StringRangesFoldToCodeRanges) {
  const rel::Schema schema = test_schema();
  // 'beta'..'gamma' -> codes 1..3 ('delta' sorts between them).
  const BoundQuery q = bind(
      parse("SELECT SUM(v) FROM t WHERE s BETWEEN 'beta' AND 'gamma'"),
      schema);
  ASSERT_EQ(q.filters.size(), 1u);
  EXPECT_EQ(q.filters[0].kind, BoundPredicate::Kind::kBetween);
  EXPECT_EQ(q.filters[0].v1, 1u);
  EXPECT_EQ(q.filters[0].v2, 3u);
  // Absent bound folds to lower_bound semantics.
  const BoundQuery q2 = bind(
      parse("SELECT SUM(v) FROM t WHERE s BETWEEN 'b' AND 'c'"), schema);
  EXPECT_EQ(q2.filters[0].kind, BoundPredicate::Kind::kBetween);
  EXPECT_EQ(q2.filters[0].v1, 1u);  // beta
  EXPECT_EQ(q2.filters[0].v2, 1u);
}

TEST(Binder, StaticFolding) {
  const rel::Schema schema = test_schema();
  const BoundQuery never = bind(
      parse("SELECT SUM(v) FROM t WHERE s = 'missing'"), schema);
  EXPECT_EQ(never.filters[0].kind, BoundPredicate::Kind::kNever);
  const BoundQuery in_fold = bind(
      parse("SELECT SUM(v) FROM t WHERE s IN ('alpha', 'missing')"), schema);
  EXPECT_EQ(in_fold.filters[0].kind, BoundPredicate::Kind::kEq);
  const BoundQuery neg = bind(
      parse("SELECT SUM(v) FROM t WHERE 0 <= k"), schema);
  EXPECT_EQ(neg.filters[0].kind, BoundPredicate::Kind::kGe);
}

TEST(Binder, JoinPredicatesAreNotFilters) {
  const rel::Schema schema = test_schema();
  const BoundQuery q =
      bind(parse("SELECT SUM(v) FROM t WHERE k = w"), schema);
  EXPECT_TRUE(q.filters.empty());
}

TEST(Binder, Errors) {
  const rel::Schema schema = test_schema();
  EXPECT_THROW(bind(parse("SELECT SUM(zzz) FROM t"), schema),
               std::invalid_argument);
  EXPECT_THROW(bind(parse("SELECT v FROM t"), schema), std::invalid_argument);
  EXPECT_THROW(bind(parse("SELECT v, SUM(v) FROM t"), schema),
               std::invalid_argument);  // v not grouped
  EXPECT_THROW(bind(parse("SELECT SUM(v), SUM(w) FROM t"), schema),
               std::invalid_argument);  // two aggregates
  EXPECT_THROW(bind(parse("SELECT SUM(v) FROM t WHERE s = 3"), schema),
               std::invalid_argument);  // type mismatch
  EXPECT_THROW(bind(parse("SELECT SUM(v) FROM t ORDER BY w"), schema),
               std::invalid_argument);  // order by non-grouped
}

TEST(BoundPredicateTest, MatchesSemantics) {
  BoundPredicate p;
  p.kind = BoundPredicate::Kind::kBetween;
  p.v1 = 3;
  p.v2 = 7;
  EXPECT_FALSE(p.matches(2));
  EXPECT_TRUE(p.matches(3));
  EXPECT_TRUE(p.matches(7));
  EXPECT_FALSE(p.matches(8));
  p.kind = BoundPredicate::Kind::kIn;
  p.in_values = {2, 9};
  EXPECT_TRUE(p.matches(9));
  EXPECT_FALSE(p.matches(3));
}

TEST(BoundAggExprTest, EvalWrapsExactly) {
  BoundAggExpr e;
  e.kind = Expr::Kind::kSub;
  // 5 - 9 wraps in uint64 but casts back to the exact negative.
  EXPECT_EQ(static_cast<std::int64_t>(e.eval(5, 9)), -4);
  e.kind = Expr::Kind::kMul;
  EXPECT_EQ(e.eval(7, 6), 42u);
}

TEST(Parser, UpdateShape) {
  const UpdateStmt u = parse_statement(
      "UPDATE t SET s = 'beta' WHERE k >= 5 AND w BETWEEN 1 AND 3;").update;
  EXPECT_EQ(u.table, "t");
  EXPECT_EQ(u.column, "s");
  EXPECT_EQ(u.value.kind, Literal::Kind::kString);
  EXPECT_EQ(u.value.str_value, "beta");
  ASSERT_EQ(u.where.size(), 2u);
  EXPECT_EQ(u.where[0].kind, Predicate::Kind::kCmp);
  EXPECT_EQ(u.where[1].kind, Predicate::Kind::kBetween);

  // WHERE is optional; integer values parse.
  const UpdateStmt all = parse_statement("UPDATE t SET w = 3").update;
  EXPECT_TRUE(all.where.empty());
  EXPECT_EQ(all.value.int_value, 3);
}

TEST(Parser, ParseStatementDispatches) {
  const Statement sel = parse_statement("SELECT SUM(v) FROM t");
  EXPECT_EQ(sel.kind, Statement::Kind::kSelect);
  const Statement upd = parse_statement("UPDATE t SET w = 1 WHERE k = 2");
  EXPECT_EQ(upd.kind, Statement::Kind::kUpdate);
  // parse() remains SELECT-only.
  EXPECT_THROW(parse("UPDATE t SET w = 1"), std::invalid_argument);
}

TEST(Parser, UpdateSyntaxErrors) {
  EXPECT_THROW(parse_statement("UPDATE t w = 1"), std::invalid_argument);
  EXPECT_THROW(parse_statement("UPDATE t SET w 1"), std::invalid_argument);
  EXPECT_THROW(parse_statement("UPDATE t SET w = x"), std::invalid_argument);
  EXPECT_THROW(parse_statement("UPDATE t SET w = 1 2"), std::invalid_argument);
}

TEST(Binder, BindsUpdateThroughEncoding) {
  const rel::Schema schema = test_schema();
  const BoundUpdate u = bind_update(
      parse_statement("UPDATE t SET s = 'gamma' WHERE s = 'beta' AND k < 9")
          .update,
      schema);
  EXPECT_EQ(u.attr, 3u);
  EXPECT_EQ(u.value, 3u);  // 'gamma' sorts after 'delta'
  ASSERT_EQ(u.filters.size(), 2u);
  EXPECT_EQ(u.filters[0].kind, BoundPredicate::Kind::kEq);
  EXPECT_EQ(u.filters[0].v1, 1u);  // 'beta'
}

TEST(Binder, UpdateRejectsUnencodableValues) {
  const rel::Schema schema = test_schema();
  const auto bind_text = [&](std::string_view sql) {
    return bind_update(parse_statement(sql).update, schema);
  };
  // A string with no dictionary code is an error for SET (not kNever like
  // WHERE literals): it would write an undecodable record.
  EXPECT_THROW(bind_text("UPDATE t SET s = 'zeta'"), std::invalid_argument);
  // Type mismatches both ways.
  EXPECT_THROW(bind_text("UPDATE t SET s = 3"), std::invalid_argument);
  EXPECT_THROW(bind_text("UPDATE t SET w = 'beta'"), std::invalid_argument);
  // Out of the 8-bit packed domain of w.
  EXPECT_THROW(bind_text("UPDATE t SET w = 256"), std::invalid_argument);
  // Join predicates make no sense in this UPDATE subset.
  EXPECT_THROW(bind_text("UPDATE t SET w = 1 WHERE k = v"),
               std::invalid_argument);
  // Unknown column.
  EXPECT_THROW(bind_text("UPDATE t SET nope = 1"), std::invalid_argument);
}

// --- qualified names and the multi-table join binder -----------------------

TEST(Lexer, DotToken) {
  const auto toks = lex("lineorder.lo_orderdate");
  ASSERT_GE(toks.size(), 3u);
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[1].kind, TokKind::kDot);
  EXPECT_EQ(toks[2].kind, TokKind::kIdent);
}

TEST(Parser, QualifiedColumnsEverywhere) {
  const SelectStmt s = parse(
      "SELECT d.g, SUM(f.v * f.w) AS rev FROM f, d "
      "WHERE f.fk = d.dk AND d.g > 2 GROUP BY d.g ORDER BY d.g, rev DESC");
  EXPECT_EQ(s.items[0].expr.col_a, "d.g");
  EXPECT_EQ(s.items[1].expr.col_a, "f.v");
  EXPECT_EQ(s.items[1].expr.col_b, "f.w");
  EXPECT_EQ(s.where[0].kind, Predicate::Kind::kJoinEq);
  EXPECT_EQ(s.where[0].column, "f.fk");
  EXPECT_EQ(s.where[0].join_right, "d.dk");
  EXPECT_EQ(s.where[1].column, "d.g");
  EXPECT_EQ(s.group_by[0], "d.g");
  EXPECT_EQ(s.order_by[0].column, "d.g");
}

TEST(Parser, NonEqualityJoinPredicateRejected) {
  // Pinned message: the one the parser has always produced.
  try {
    parse("SELECT SUM(v) FROM f, d WHERE fk < dk");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("only equality joins are supported"),
              std::string::npos);
  }
}

TEST(Binder, SingleTableAcceptsQualifiedNames) {
  const rel::Schema schema = test_schema();
  const BoundQuery q =
      bind(parse("SELECT SUM(t.v) FROM t WHERE t.k >= 5"), schema);
  ASSERT_EQ(q.filters.size(), 1u);
  EXPECT_EQ(q.filters[0].attr, 0u);
  EXPECT_EQ(q.agg_expr.a, 1u);
  // The single-table binder sees only a schema, so the qualifier is
  // dropped, whatever it names: that is what lets a query written against
  // the normalized tables bind against the pre-joined relation unchanged.
  EXPECT_EQ(bind(parse("SELECT SUM(lineorder.v) FROM t"), schema).agg_expr.a,
            1u);
  EXPECT_THROW(bind(parse("SELECT SUM(t.nope) FROM t"), schema),
               std::invalid_argument);
}

/// Star over fact `f` with dims `d1` (filtered) and `d2`; `dup` is present
/// in both `f` and `d1` to exercise the ambiguity check.
struct JoinWorld {
  rel::Schema fact{{{"fk1", rel::DataType::kInt, 16, nullptr},
                    {"fk2", rel::DataType::kInt, 16, nullptr},
                    {"v", rel::DataType::kInt, 20, nullptr},
                    {"dup", rel::DataType::kInt, 8, nullptr}}};
  rel::Schema d1{{{"dk", rel::DataType::kInt, 16, nullptr},
                  {"g", rel::DataType::kInt, 8, nullptr},
                  {"dup", rel::DataType::kInt, 8, nullptr}}};
  rel::Schema d2{{{"ek", rel::DataType::kInt, 16, nullptr},
                  {"h", rel::DataType::kInt, 8, nullptr}}};
  std::vector<JoinTableRef> tables{{"f", &fact, 1000},
                                   {"d1", &d1, 10},
                                   {"d2", &d2, 20}};
};

TEST(JoinBinder, StarShapeFactDetectionAndBuildOrder) {
  JoinWorld w;
  const BoundJoin j = bind_join(
      parse("SELECT g, SUM(v) FROM f, d1, d2 "
            "WHERE fk1 = dk AND fk2 = ek AND h > 3 AND g = 1 AND v < 100 "
            "GROUP BY g ORDER BY g"),
      w.tables);
  EXPECT_EQ(j.fact, 0u);  // f is touched by every join pair
  ASSERT_EQ(j.builds.size(), 2u);
  // Both dims carry one filter; the smaller one (d1) builds first.
  EXPECT_EQ(j.builds[0].table, 1u);
  EXPECT_EQ(j.builds[1].table, 2u);
  ASSERT_EQ(j.builds[0].fact_attrs.size(), 1u);
  EXPECT_EQ(j.builds[0].fact_attrs[0], 0u);  // fk1
  EXPECT_EQ(j.builds[0].dim_attrs[0], 0u);   // dk
  // WHERE split: v < 100 on the fact, g = 1 on d1, h > 3 on d2.
  ASSERT_EQ(j.filters.size(), 3u);
  EXPECT_EQ(j.filters[0].size(), 1u);
  EXPECT_EQ(j.filters[1].size(), 1u);
  EXPECT_EQ(j.filters[2].size(), 1u);
  ASSERT_EQ(j.group_by.size(), 1u);
  EXPECT_EQ(j.group_by[0].table, 1u);
  EXPECT_EQ(j.group_by[0].attr, 1u);  // d1.g
  EXPECT_EQ(j.agg_expr.a.table, 0u);
  EXPECT_EQ(j.agg_expr.a.attr, 2u);  // f.v
}

TEST(JoinBinder, AmbiguousUnqualifiedColumn) {
  JoinWorld w;
  try {
    bind_join(parse("SELECT SUM(dup) FROM f, d1, d2 "
                    "WHERE fk1 = dk AND fk2 = ek"),
              w.tables);
    FAIL() << "expected bind error";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ambiguous column 'dup'"), std::string::npos);
    EXPECT_NE(what.find("qualify it"), std::string::npos);
  }
  // Qualifying resolves it.
  const BoundJoin j = bind_join(parse("SELECT SUM(f.dup) FROM f, d1, d2 "
                                      "WHERE fk1 = dk AND fk2 = ek"),
                                w.tables);
  EXPECT_EQ(j.agg_expr.a.table, 0u);
  EXPECT_EQ(j.agg_expr.a.attr, 3u);
}

// One routine binds the SELECT list, GROUP BY and ORDER BY for both
// binders: over the pre-joined schema and over the FROM list, the same text
// binds to the same aggregate and ordering, and fails with the same message.
TEST(JoinBinder, SelectTailMatchesSingleTableBinder) {
  JoinWorld w;
  const rel::Schema joined{{{"fk1", rel::DataType::kInt, 16, nullptr},
                            {"fk2", rel::DataType::kInt, 16, nullptr},
                            {"v", rel::DataType::kInt, 20, nullptr},
                            {"dk", rel::DataType::kInt, 16, nullptr},
                            {"g", rel::DataType::kInt, 8, nullptr},
                            {"ek", rel::DataType::kInt, 16, nullptr},
                            {"h", rel::DataType::kInt, 8, nullptr}}};
  const std::string from = " FROM f, d1, d2 WHERE fk1 = dk AND fk2 = ek";
  for (const std::string& text :
       {"SELECT g, h, SUM(v * fk1) AS x" + from +
            " GROUP BY g, h ORDER BY x DESC, h",
        "SELECT MIN(v) AS m" + from,
        "SELECT g, COUNT(*) AS c" + from + " GROUP BY g ORDER BY g DESC",
        "SELECT h, MAX(v - fk2)" + from + " GROUP BY h ORDER BY h",
        "SELECT SUM(v + g) AS s" + from}) {
    const SelectStmt stmt = parse(text);
    const BoundQuery q = bind(stmt, joined);
    const BoundJoin j = bind_join(stmt, w.tables);
    EXPECT_EQ(q.agg_func, j.agg_func) << text;
    EXPECT_EQ(q.agg_expr.kind, j.agg_expr.kind) << text;
    EXPECT_EQ(q.agg_alias, j.agg_alias) << text;
    ASSERT_EQ(q.group_by.size(), j.group_by.size()) << text;
    for (std::size_t i = 0; i < q.group_by.size(); ++i) {
      EXPECT_EQ(joined.attribute(q.group_by[i]).name,
                w.tables[j.group_by[i].table]
                    .schema->attribute(j.group_by[i].attr)
                    .name)
          << text;
    }
    ASSERT_EQ(q.order_by.size(), j.order_by.size()) << text;
    for (std::size_t i = 0; i < q.order_by.size(); ++i) {
      EXPECT_EQ(q.order_by[i].is_agg, j.order_by[i].is_agg) << text;
      EXPECT_EQ(q.order_by[i].group_pos, j.order_by[i].group_pos) << text;
      EXPECT_EQ(q.order_by[i].desc, j.order_by[i].desc) << text;
    }
  }

  const auto message = [](const auto& bind_fn) {
    try {
      bind_fn();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("nothing thrown");
  };
  for (const auto& [text, error] :
       std::vector<std::pair<std::string, std::string>>{
           {"SELECT g, SUM(v)" + from, "column 'g' is not in GROUP BY"},
           {"SELECT g, SUM(v) AS s" + from + " GROUP BY g ORDER BY h",
            "ORDER BY column 'h' is not in GROUP BY"},
           {"SELECT SUM(v), MIN(v)" + from,
            "only one aggregate per query is supported"},
           {"SELECT g" + from + " GROUP BY g",
            "query must contain an aggregate"}}) {
    const SelectStmt stmt = parse(text);
    const std::string single = message([&] { bind(stmt, joined); });
    EXPECT_EQ(single, "SQL bind error: " + error) << text;
    EXPECT_EQ(message([&] { bind_join(stmt, w.tables); }), single) << text;
  }
}

TEST(JoinBinder, UnknownTableQualifier) {
  JoinWorld w;
  try {
    bind_join(parse("SELECT SUM(v) FROM f, d1, d2 "
                    "WHERE fk1 = dk AND fk2 = ek AND nope.g = 1"),
              w.tables);
    FAIL() << "expected bind error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown table 'nope'"),
              std::string::npos);
  }
}

TEST(JoinBinder, RejectsNonStarShapes) {
  JoinWorld w;
  // No join predicate at all: cross join.
  EXPECT_THROW(bind_join(parse("SELECT SUM(v) FROM f, d1, d2 "
                               "WHERE fk1 = dk"),
                         w.tables),
               std::invalid_argument);
  // Triangle (fact-dim edges plus a dim-dim edge): no table joins all.
  EXPECT_THROW(bind_join(parse("SELECT SUM(v) FROM f, d1, d2 "
                               "WHERE fk1 = dk AND fk2 = ek AND g = h"),
                         w.tables),
               std::invalid_argument);
  // Same-table "join".
  EXPECT_THROW(bind_join(parse("SELECT SUM(v) FROM f, d1, d2 "
                               "WHERE fk1 = fk2 AND fk1 = dk AND fk2 = ek"),
                         w.tables),
               std::invalid_argument);
  // Duplicate FROM name.
  std::vector<JoinTableRef> dup = {{"f", &w.fact, 1000}, {"f", &w.fact, 1000}};
  EXPECT_THROW(
      bind_join(parse("SELECT SUM(v) FROM f, f WHERE fk1 = fk2"), dup),
      std::invalid_argument);
}

TEST(JoinBinder, RejectsIncomparableJoinKeyEncodings) {
  // String keys joined across different dictionaries compare codes from
  // unrelated code spaces — refuse at bind time.
  auto dict_a = std::make_shared<const rel::Dictionary>(
      rel::Dictionary::from_values({"a", "b"}));
  auto dict_b = std::make_shared<const rel::Dictionary>(
      rel::Dictionary::from_values({"a", "b"}));
  rel::Schema fact{{{"fk", rel::DataType::kString, 2, dict_a},
                    {"v", rel::DataType::kInt, 8, nullptr}}};
  rel::Schema dim{{{"dk", rel::DataType::kString, 2, dict_b},
                   {"g", rel::DataType::kInt, 8, nullptr}}};
  std::vector<JoinTableRef> tables = {{"f", &fact, 10}, {"d", &dim, 5}};
  try {
    bind_join(parse("SELECT SUM(v) FROM f, d WHERE fk = dk"), tables);
    FAIL() << "expected bind error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("incomparable encodings"),
              std::string::npos);
  }
  // Same dictionary object: fine.
  rel::Schema dim_shared{{{"dk", rel::DataType::kString, 2, dict_a},
                          {"g", rel::DataType::kInt, 8, nullptr}}};
  std::vector<JoinTableRef> shared = {{"f", &fact, 10}, {"d", &dim_shared, 5}};
  EXPECT_EQ(
      bind_join(parse("SELECT SUM(v) FROM f, d WHERE fk = dk"), shared).fact,
      0u);
}

}  // namespace
}  // namespace bbpim::sql
