// Tests for the multi-table join path: normalized SSB flights 1-4 must be
// row-identical to the pre-joined execution (the acceptance bar of the
// normalized schema), on the reference backend for all 13 queries and on
// the one-xb PIM engine end to end. Plus the dimension stage's shared
// schedule, the skipped fact scan of an empty join, the host hash join's
// duplicate-key cross product, empty build sides, the Database-scope plan
// cache, EXPLAIN of the join tree, the backends that must refuse, two-xb
// joins, and the backend matrix over every statement shape. Plus
// the group index every host-side fold shares (TupleIndex, GroupFold).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "db/db.hpp"
#include "engine/filter_compiler.hpp"
#include "engine/group_index.hpp"
#include "engine/hash_join.hpp"
#include "engine_test_util.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/names.hpp"
#include "ssb/queries.hpp"

namespace bbpim {
namespace {

/// One SSB world, both catalogs: the normalized star schema (all five
/// tables registered -> join path) and the paper's pre-joined relation (only
/// it registered -> seed path).
struct JoinWorld {
  ssb::SsbData data;
  rel::Table prejoined;
  db::Database normalized;
  db::Database prejoined_db;

  explicit JoinWorld(double scale_factor) {
    ssb::SsbConfig cfg;
    cfg.scale_factor = scale_factor;
    data = ssb::generate(cfg);
    prejoined = ssb::prejoin_ssb(data);
    normalized.attach_table(data.lineorder);
    normalized.attach_table(data.date);
    normalized.attach_table(data.customer);
    normalized.attach_table(data.supplier);
    normalized.attach_table(data.part);
    prejoined_db.attach_table(prejoined);
  }
};

/// The world at a tiny scale factor, generated once for the whole binary.
JoinWorld& world() {
  static JoinWorld w(0.01);
  return w;
}

/// The world at SF 0.1 (600,000 fact rows, ~30 records per page-row line),
/// the scale of BENCH_join_speed.json: a semijoin pays there only when it
/// leaves whole lines without survivors.
JoinWorld& line_scale_world() {
  static JoinWorld w(0.1);
  return w;
}

/// A star join run step by step through the engine's planner, as
/// Session::execute_join runs it: the dimension scans, the plan
/// (engine::plan_star_join), the fact scan it asks for, and the finished
/// join (engine::finish_star_join).
struct JoinRun {
  engine::StarJoin join;
  engine::QueryOutput out;
};

JoinRun run_join(db::Session& session, db::BackendKind backend,
                 const sql::BoundJoin& jp) {
  const auto attrs = engine::join_scan_attrs(jp);
  std::vector<engine::ScanOutput> scans(jp.table_names.size());
  std::vector<const rel::Table*> tables;
  for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
    tables.push_back(&session.database().table(jp.table_names[t]));
    if (t == jp.fact) continue;
    scans[t] = session.executor(backend, jp.table_names[t])
                   .execute_scan(jp.filters[t], attrs[t], {});
  }
  const std::string& fact = jp.table_names[jp.fact];
  const engine::PimStore* store = nullptr;
  if (const auto kind = db::engine_kind_of(backend)) {
    store = &session.pim_engine(*kind, fact).store();
  }
  JoinRun run{engine::plan_star_join(jp, std::move(scans), tables, store,
                                     session.options().host),
              {}};
  if (run.join.scans_fact()) {
    run.join.scans[jp.fact] = session.executor(backend, fact).execute_scan(
        run.join.fact_filters, attrs[jp.fact], {});
  }
  run.out = engine::finish_star_join(jp, run.join, session.options().host);
  return run;
}

TEST(HashJoin, AllQueriesMatchPrejoinedOnReference) {
  JoinWorld& w = world();
  db::Session join_session(w.normalized);
  db::Session pre_session(w.prejoined_db);
  for (const ssb::SsbQuery& q : ssb::queries()) {
    const db::ResultSet joined =
        join_session.execute(q.sql, db::BackendKind::kReference);
    const db::ResultSet pre =
        pre_session.execute(q.sql, db::BackendKind::kReference);
    EXPECT_EQ(joined.rows(), pre.rows()) << "q" << q.id;
    // One pinned version per FROM table, all at the unmutated version 0.
    EXPECT_GE(joined.table_versions().size(), 2u) << "q" << q.id;
    for (const auto& [name, version] : joined.table_versions()) {
      EXPECT_EQ(version, 0u) << "q" << q.id << " table " << name;
    }
    EXPECT_TRUE(pre.table_versions().empty()) << "q" << q.id;
  }
}

TEST(HashJoin, AllQueriesMatchReferenceOnOneXbPim) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  for (const ssb::SsbQuery& q : ssb::queries()) {
    const db::ResultSet pim = session.execute(q.sql, db::BackendKind::kOneXb);
    const db::ResultSet ref =
        session.execute(q.sql, db::BackendKind::kReference);
    EXPECT_EQ(pim.rows(), ref.rows()) << "q" << q.id;
    // The PIM arm models its per-table scans; cost must be present.
    EXPECT_GT(pim.stats().total_ns, 0.0) << "q" << q.id;
    EXPECT_GT(pim.stats().phases.filter, 0.0) << "q" << q.id;
  }
}

/// One text of the key-shape world with what its nested-loop oracle needs:
/// equality pairs (dimension table, fact attr, dimension attr) with tables
/// numbered as in the oracle's table list (0 = the fact), one optional
/// `dim_attr < lt` filter on a dimension, the grouping columns and the
/// aggregate.
struct OracleText {
  using Col = std::pair<std::size_t, std::size_t>;  ///< (table, attr)
  std::string sql;
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> eq;
  std::optional<std::tuple<std::size_t, std::size_t, std::uint64_t>> lt;
  std::vector<Col> group;
  sql::AggFunc agg = sql::AggFunc::kCount;
  Col value{0, 0};
};

/// Row-by-row oracle: every combination of one row per table that meets
/// every equality pair and the filter, folded per group in key order (the
/// order finalize_rows gives rows without ORDER BY or ordered by their keys).
std::vector<engine::ResultRow> nested_loop(
    const std::vector<const rel::Table*>& tables, const OracleText& q) {
  std::map<engine::GroupKey, std::int64_t> groups;
  std::vector<std::size_t> row(tables.size(), 0);
  const auto value = [&](const OracleText::Col& c) {
    return tables[c.first]->value(row[c.first], c.second);
  };
  std::function<void(std::size_t)> walk = [&](std::size_t t) {
    if (t < tables.size()) {
      const bool joined =
          t == 0 || std::any_of(q.eq.begin(), q.eq.end(), [&](const auto& e) {
            return std::get<0>(e) == t;
          });
      if (!joined) return walk(t + 1);
      for (row[t] = 0; row[t] < tables[t]->row_count(); ++row[t]) {
        bool ok = !q.lt || std::get<0>(*q.lt) != t ||
                  value({t, std::get<1>(*q.lt)}) < std::get<2>(*q.lt);
        for (const auto& [d, fa, da] : q.eq) {
          ok = ok && (d != t || value({0, fa}) == value({t, da}));
        }
        if (ok) walk(t + 1);
      }
      return;
    }
    engine::GroupKey key;
    for (const OracleText::Col& c : q.group) key.push_back(value(c));
    const auto v = static_cast<std::int64_t>(
        q.agg == sql::AggFunc::kCount ? 1 : value(q.value));
    const auto [it, fresh] = groups.try_emplace(key, v);
    if (fresh) return;
    if (q.agg == sql::AggFunc::kMin) {
      it->second = std::min(it->second, v);
    } else if (q.agg == sql::AggFunc::kMax) {
      it->second = std::max(it->second, v);
    } else {
      it->second += v;
    }
  };
  walk(0);
  std::vector<engine::ResultRow> rows;
  for (const auto& [key, v] : groups) rows.push_back({key, v});
  return rows;
}

TEST(HashJoin, DuplicateBuildKeysYieldCrossProduct) {
  // A "dimension" with duplicate keys: each matching fact row must join
  // with every duplicate (odometer over the match lists).
  rel::Schema fact_schema{{{"fk", rel::DataType::kInt, 8, nullptr},
                           {"v", rel::DataType::kInt, 8, nullptr}}};
  rel::Table fact(fact_schema, "fact");
  fact.append_row(std::vector<std::uint64_t>{1, 10});
  fact.append_row(std::vector<std::uint64_t>{2, 20});

  rel::Schema dim_schema{{{"dk", rel::DataType::kInt, 8, nullptr},
                          {"w", rel::DataType::kInt, 8, nullptr}}};
  rel::Table dim(dim_schema, "dim");
  dim.append_row(std::vector<std::uint64_t>{1, 1});
  dim.append_row(std::vector<std::uint64_t>{1, 2});  // duplicate key 1
  dim.append_row(std::vector<std::uint64_t>{2, 3});

  // Key shapes beyond SSB's unique single-column keys, with duplicates on
  // both dimensions: `ndim` joins on a composite key that packs into one
  // word, `wdim` on two 40-bit columns whose packed width (80 bits) takes
  // the wide fallback, and its 40-bit tag grouped with the fact's 40-bit
  // s_g forms an 80-bit group key.
  const std::uint64_t big = 1ULL << 39;
  rel::Schema sale_schema{{{"s_a", rel::DataType::kInt, 40, nullptr},
                           {"s_b", rel::DataType::kInt, 40, nullptr},
                           {"s_c", rel::DataType::kInt, 8, nullptr},
                           {"s_d", rel::DataType::kInt, 8, nullptr},
                           {"s_g", rel::DataType::kInt, 40, nullptr},
                           {"s_v", rel::DataType::kInt, 10, nullptr}}};
  rel::Table sale(sale_schema, "sale");
  Rng rng(7);
  for (int r = 0; r < 300; ++r) {
    sale.append_row(std::vector<std::uint64_t>{
        big + rng.next_below(5), big + rng.next_below(4), rng.next_below(10),
        rng.next_below(4), big + rng.next_below(6), rng.next_below(1000)});
  }
  rel::Schema ndim_schema{{{"n_c", rel::DataType::kInt, 8, nullptr},
                           {"n_d", rel::DataType::kInt, 8, nullptr},
                           {"n_t", rel::DataType::kInt, 8, nullptr}}};
  rel::Table ndim(ndim_schema, "ndim");
  rel::Schema wdim_schema{{{"w_a", rel::DataType::kInt, 40, nullptr},
                           {"w_b", rel::DataType::kInt, 40, nullptr},
                           {"w_t", rel::DataType::kInt, 40, nullptr}}};
  rel::Table wdim(wdim_schema, "wdim");
  for (int r = 0; r < 12; ++r) {
    // Keys repeat (12 rows over 10 and 6 key pairs) and the fact holds
    // pairs no dimension row has, s_c codes of 8 and 9 among them: wider
    // than n_c's 3 bits, they would alias into n_d's field if packed.
    ndim.append_row(std::vector<std::uint64_t>{
        static_cast<std::uint64_t>(r % 5), static_cast<std::uint64_t>(r % 2),
        rng.next_below(7)});
    wdim.append_row(std::vector<std::uint64_t>{
        big + static_cast<std::uint64_t>(r % 3),
        big + static_cast<std::uint64_t>(r % 2), big + rng.next_below(6)});
  }
  const std::vector<const rel::Table*> oracle_tables = {&sale, &ndim, &wdim};

  db::Database database;
  database.register_table(std::move(fact));
  database.register_table(std::move(dim));
  database.register_table(sale);
  database.register_table(ndim);
  database.register_table(wdim);
  db::Session session(database);

  // fk=1 matches twice, fk=2 once: SUM(v) = 10 + 10 + 20 = 40.
  const db::ResultSet rs = session.execute(
      "SELECT SUM(v) AS s FROM fact, dim WHERE fk = dk",
      db::BackendKind::kReference);
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_EQ(rs.integer(0, 0), 40);

  // Grouping on the duplicate side sees both duplicate rows.
  const db::ResultSet grouped = session.execute(
      "SELECT w, SUM(v) AS s FROM fact, dim WHERE fk = dk GROUP BY w "
      "ORDER BY w",
      db::BackendKind::kReference);
  ASSERT_EQ(grouped.row_count(), 3u);
  EXPECT_EQ(grouped.integer(0, 0), 1);
  EXPECT_EQ(grouped.integer(0, 1), 10);
  EXPECT_EQ(grouped.integer(1, 0), 2);
  EXPECT_EQ(grouped.integer(1, 1), 10);
  EXPECT_EQ(grouped.integer(2, 0), 3);
  EXPECT_EQ(grouped.integer(2, 1), 20);

  using sql::AggFunc;
  const std::string n_pair = "s_c = n_c AND s_d = n_d";
  const std::string w_pair = "s_a = w_a AND s_b = w_b";
  const std::tuple<std::size_t, std::size_t, std::size_t> nc{1, 2, 0},
      nd{1, 3, 1}, wa{2, 0, 0}, wb{2, 1, 1};
  const std::vector<OracleText> texts = {
      {"SELECT SUM(s_v) AS x FROM sale, ndim WHERE " + n_pair,
       {nc, nd}, {}, {}, AggFunc::kSum, {0, 5}},
      {"SELECT n_t, MIN(s_v) AS x FROM sale, ndim WHERE " + n_pair +
           " GROUP BY n_t ORDER BY n_t",
       {nc, nd}, {}, {{1, 2}}, AggFunc::kMin, {0, 5}},
      {"SELECT w_t, MAX(s_v) AS x FROM sale, wdim WHERE " + w_pair +
           " GROUP BY w_t",
       {wa, wb}, {}, {{2, 2}}, AggFunc::kMax, {0, 5}},
      {"SELECT n_t, w_t, COUNT(*) AS x FROM sale, ndim, wdim WHERE " +
           n_pair + " AND " + w_pair + " GROUP BY n_t, w_t",
       {nc, nd, wa, wb}, {}, {{1, 2}, {2, 2}}, AggFunc::kCount, {0, 0}},
      {"SELECT w_t, s_g, MIN(s_v) AS x FROM sale, ndim, wdim WHERE " +
           n_pair + " AND " + w_pair + " GROUP BY w_t, s_g",
       {nc, nd, wa, wb}, {}, {{2, 2}, {0, 4}}, AggFunc::kMin, {0, 5}},
      {"SELECT s_g, n_t, MAX(s_v) AS x FROM sale, ndim, wdim WHERE " +
           n_pair + " AND " + w_pair + " GROUP BY s_g, n_t ORDER BY s_g, n_t",
       {nc, nd, wa, wb}, {}, {{0, 4}, {1, 2}}, AggFunc::kMax, {0, 5}},
      {"SELECT n_t, SUM(s_v) AS x FROM sale, ndim WHERE s_c = n_c AND n_t < 4 "
       "GROUP BY n_t ORDER BY n_t",
       {nc}, std::tuple<std::size_t, std::size_t, std::uint64_t>{1, 2, 4},
       {{1, 2}}, AggFunc::kSum, {0, 5}},
  };
  for (const OracleText& t : texts) {
    const std::vector<engine::ResultRow> want = nested_loop(oracle_tables, t);
    ASSERT_FALSE(want.empty()) << t.sql;
    for (const db::BackendKind backend :
         {db::BackendKind::kReference, db::BackendKind::kOneXb}) {
      EXPECT_EQ(session.execute(t.sql, backend).rows(), want)
          << t.sql << " on " << db::backend_name(backend);
    }
  }
}

TEST(GroupIndex, TupleIndexGrowsPastCapacityAndKeepsEarlierIds) {
  engine::TupleIndex index({1023, 1023}, 4);
  ASSERT_TRUE(index.packed());
  const auto tuple = [](std::uint64_t n) {
    return engine::GroupKey{n % 1000, n / 1000};
  };
  for (std::uint64_t n = 0; n < 3000; ++n) {
    ASSERT_EQ(index.insert(tuple(n)), n);
    ASSERT_EQ(index.insert(tuple(n / 2)), n / 2);  // an earlier tuple
  }
  for (std::uint32_t n = 0; n < 3000; ++n) {
    EXPECT_EQ(index.find(tuple(n)), n);
    EXPECT_EQ(index.key(n), tuple(n));
  }
}

TEST(GroupIndex, FieldAboveItsMaximumMissesWithoutAliasing) {
  // Fields of 2 and 3 bits: {5, 2} would pack as 5 | 2 << 2 = 13, the word
  // of {1, 3}, were the maximum not checked.
  engine::TupleIndex index({3, 7});
  ASSERT_TRUE(index.packed());
  EXPECT_EQ(index.insert(engine::GroupKey{1, 3}), 0u);
  EXPECT_EQ(index.find(engine::GroupKey{5, 2}), engine::TupleIndex::kAbsent);
  EXPECT_EQ(index.find(engine::GroupKey{1, 8}), engine::TupleIndex::kAbsent);
  EXPECT_EQ(index.find(engine::GroupKey{1, 3}), 0u);
  EXPECT_EQ(index.insert(engine::GroupKey{1, 4}), 1u);
}

TEST(GroupIndex, KeyRoundTripsAtFieldMaxima) {
  // A zero-width field on both sides of a full 64-bit one: the last field
  // sits at shift 64.
  const std::uint64_t all = ~0ULL;
  engine::TupleIndex index({0, all, 0});
  ASSERT_TRUE(index.packed());
  const std::vector<engine::GroupKey> tuples = {
      {0, all, 0}, {0, 0, 0}, {0, all - 1, 0}, {0, 1ULL << 63, 0}};
  for (std::uint32_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(index.insert(tuples[i]), i);
  }
  for (std::uint32_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(index.key(i), tuples[i]);
    EXPECT_EQ(index.find(tuples[i]), i);
  }
  EXPECT_EQ(index.find(engine::GroupKey{1, all, 0}),
            engine::TupleIndex::kAbsent);
}

TEST(GroupIndex, EightyBitTupleTakesTheWideFallback) {
  const std::uint64_t max40 = engine::width_max(40);
  engine::TupleIndex index({max40, max40});
  EXPECT_FALSE(index.packed());
  const engine::GroupKey a{max40, 1}, b{1, max40}, c{max40, max40};
  EXPECT_EQ(index.insert(a), 0u);
  EXPECT_EQ(index.insert(b), 1u);
  EXPECT_EQ(index.insert(a), 0u);
  EXPECT_EQ(index.insert(c), 2u);
  EXPECT_EQ(index.find(b), 1u);
  EXPECT_EQ(index.find(engine::GroupKey{max40 + 1, 1}),
            engine::TupleIndex::kAbsent);
  EXPECT_EQ(index.key(2), c);
  EXPECT_TRUE(
      engine::TupleIndex({engine::width_max(32), engine::width_max(32)})
          .packed());
}

TEST(GroupIndex, MergeOfPartialsEqualsOneFold) {
  using sql::AggFunc;
  const std::uint64_t big = 1ULL << 39;
  for (const bool wide : {false, true}) {
    const std::uint64_t max = engine::width_max(wide ? 40 : 4);
    const std::uint64_t base = wide ? big : 0;
    Rng rng(wide ? 3 : 2);
    std::vector<std::pair<engine::GroupKey, std::int64_t>> input;
    for (int i = 0; i < 500; ++i) {
      input.push_back({{base + rng.next_below(6), base + rng.next_below(5)},
                       static_cast<std::int64_t>(rng.next_below(2000)) - 1000});
    }
    for (const AggFunc func :
         {AggFunc::kSum, AggFunc::kMin, AggFunc::kMax, AggFunc::kCount}) {
      engine::GroupFold whole(func, {max, max});
      engine::GroupFold first(func, {max, max});
      engine::GroupFold second(func, {max, max});
      ASSERT_EQ(whole.index().packed(), !wide);
      for (std::size_t i = 0; i < input.size(); ++i) {
        const auto& [key, v0] = input[i];
        const std::int64_t v = func == AggFunc::kCount ? 1 : v0;
        whole.add(key, v);
        (i < 230 ? first : second).add(key, v);
      }
      first.merge(second);
      EXPECT_EQ(first.rows(), whole.rows())
          << (wide ? "wide" : "packed") << " func "
          << static_cast<int>(func);
      EXPECT_EQ(whole.size(), 30u);
    }
  }
}

TEST(HashJoin, EmptyBuildSideYieldsEmptyJoin) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  // No date row has d_year = 1900: the build side is empty, every probe
  // misses, and the ungrouped aggregate returns the single zero row the
  // single-table engines produce for an empty selection.
  const db::ResultSet rs = session.execute(
      "SELECT SUM(lo_extendedprice) AS s FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey AND d_year = 1900",
      db::BackendKind::kReference);
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_EQ(rs.integer(0, 0), 0);
}

// The aggregate shapes the 13 SSB texts never use go through the same
// binder tail, fold and ORDER BY sort on both catalogs: the host hash join
// over normalized tables and the PIM engine over the pre-joined relation
// must return identical rows.
TEST(HashJoin, AggregateShapesMatchPrejoinedOnOneXbPim) {
  JoinWorld& w = world();
  db::Session join_session(w.normalized);
  db::Session pre_session(w.prejoined_db);
  const std::string date_join =
      " FROM lineorder, date WHERE lo_orderdate = d_datekey";
  const std::vector<std::string> texts = {
      "SELECT d_year, MIN(lo_revenue) AS m" + date_join +
          " GROUP BY d_year ORDER BY d_year",
      "SELECT c_region, MAX(lo_quantity) AS m FROM lineorder, customer "
      "WHERE lo_custkey = c_custkey GROUP BY c_region",
      "SELECT s_nation, COUNT(*) AS c FROM lineorder, supplier "
      "WHERE lo_suppkey = s_suppkey AND s_region = 'ASIA' "
      "GROUP BY s_nation ORDER BY c DESC",
      "SELECT SUM(lo_revenue) AS s" + date_join + " AND d_year = 1900",
      "SELECT MIN(lo_revenue) AS m" + date_join + " AND d_year = 1900",
      "SELECT COUNT(*) AS c" + date_join + " AND d_year = 1900",
      // Every quantity's MAX(lo_discount) is the top discount: the DESC
      // sort ties on the aggregate and falls through to the group key.
      "SELECT lo_quantity, MAX(lo_discount) AS m" + date_join +
          " GROUP BY lo_quantity ORDER BY m DESC",
  };
  for (const std::string& sql : texts) {
    const db::ResultSet joined =
        join_session.execute(sql, db::BackendKind::kOneXb);
    const db::ResultSet pre = pre_session.execute(sql, db::BackendKind::kOneXb);
    EXPECT_EQ(joined.rows(), pre.rows()) << sql;
    EXPECT_EQ(joined.rows(),
              join_session.execute(sql, db::BackendKind::kReference).rows())
        << sql;
    EXPECT_FALSE(joined.rows().empty()) << sql;
  }
  // An empty selection without GROUP BY is one row holding 0.
  for (std::size_t i = 3; i < 6; ++i) {
    const db::ResultSet rs =
        join_session.execute(texts[i], db::BackendKind::kOneXb);
    ASSERT_EQ(rs.row_count(), 1u) << texts[i];
    EXPECT_EQ(rs.integer(0, 0), 0) << texts[i];
  }
  const db::ResultSet tied =
      join_session.execute(texts.back(), db::BackendKind::kOneXb);
  ASSERT_GT(tied.row_count(), 2u);
  const std::vector<engine::ResultRow>& rows = tied.rows();
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].agg, rows[0].agg);  // all tied...
    EXPECT_LT(rows[i - 1].group, rows[i].group);  // ...so keys ascend
  }
}

TEST(HashJoin, SemijoinReductionNeverCostsMoreThanThePlainPlan) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  const db::BackendKind backend = db::BackendKind::kOneXb;
  // The texts whose filtered dimension keys (one key range each, as the
  // keys follow the hierarchies) pay for the fact scan to take them in PIM.
  // 3.1 is reduced at this scale and at SF 0.1
  // (SemijoinPrefixPaysJointlyOrNotAtAll).
  const std::vector<std::string> reduced = {"1.1", "1.2", "1.3", "2.1",
                                            "2.2", "2.3", "3.1", "3.2",
                                            "3.3", "3.4", "4.1", "4.2",
                                            "4.3"};
  for (const ssb::SsbQuery& q : ssb::queries()) {
    const db::PreparedStatement st = session.prepare(q.sql);
    const sql::BoundJoin& jp = st.join();
    const std::vector<std::vector<std::size_t>> attrs =
        engine::join_scan_attrs(jp);
    // The plain plan from public calls: every table scanned with its own
    // filters, the host join over all survivors. Costs add up in the
    // session's order (dimensions, then the fact) so that a text the cost
    // model leaves alone compares equal to the last bit.
    std::vector<engine::JoinScanInput> inputs(jp.table_names.size());
    std::vector<engine::QueryStats> scans(jp.table_names.size());
    for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
      engine::ScanOutput scan =
          session.executor(backend, jp.table_names[t])
              .execute_scan(jp.filters[t], attrs[t], {});
      scans[t] = scan.stats;
      inputs[t].columns = std::move(scan.columns);
    }
    std::vector<std::size_t> order;
    for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
      if (t != jp.fact) order.push_back(t);
    }
    order.push_back(jp.fact);
    double plain_ns = 0;
    double plain_j = 0;
    for (const std::size_t t : order) {
      plain_ns += scans[t].total_ns;
      plain_j += scans[t].energy_j;
    }
    const engine::JoinOutput plain =
        engine::hash_join_execute(jp, inputs, session.options().host);
    plain_ns +=
        plain.stats.build_ns + plain.stats.probe_ns + plain.stats.finalize_ns;

    const db::ResultSet rs = st.execute(backend);
    EXPECT_EQ(rs.rows(), plain.rows) << "q" << q.id;
    EXPECT_LE(rs.stats().total_ns, plain_ns) << "q" << q.id;
    EXPECT_LE(rs.stats().energy_j, plain_j) << "q" << q.id;
    const std::size_t plain_records = scans[jp.fact].selected_records;
    if (std::find(reduced.begin(), reduced.end(), q.id) != reduced.end()) {
      EXPECT_LT(rs.stats().selected_records, plain_records) << "q" << q.id;
    } else {
      EXPECT_LE(rs.stats().selected_records, plain_records) << "q" << q.id;
    }
    // The fact scans last, yet versions stay in FROM order.
    ASSERT_EQ(rs.table_versions().size(), jp.table_names.size()) << q.id;
    for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
      EXPECT_EQ(rs.table_versions()[t].first, jp.table_names[t]) << q.id;
    }
  }
}

// At SF 0.1 a page-row line is read unless all ~30 of its records miss, so
// the fact scan prices candidates as prefixes, ranked by selectivity per
// gate cycle. Q2.1's supplier candidate (s_region, ~20% of the keys) is
// faster alone but saves too few lines for its energy; its part candidate
// (p_category, ~6%) pays alone, and together they leave ~1% of the records
// and pay more. Q3.1 takes all three of its key ranges: with LSB-first
// comparators the prefix costs less energy than the plain scan, which
// reads back every fact row. A p_color filter selects ~1% of
// the parts, scattered: its long IN list is more selective than Q1.1's year
// range yet costs far more gate cycles, so it ranks behind the range
// instead of blocking it.
TEST(HashJoin, SemijoinPrefixPaysJointlyOrNotAtAll) {
  JoinWorld& w = line_scale_world();
  db::Session session(w.normalized);
  const db::BackendKind backend = db::BackendKind::kOneXb;
  struct Priced {
    std::vector<sql::BoundPredicate> filters;  ///< the fact's own
    std::vector<engine::SemijoinCandidate> candidates;
    std::vector<std::size_t> attrs;
    std::size_t builds = 0;
    std::size_t fact_rows = 0;
  };
  const auto priced = [&](std::string_view sql) {
    const db::PreparedStatement st = session.prepare(sql);
    const sql::BoundJoin& jp = st.join();
    return Priced{jp.filters[jp.fact],
                  run_join(session, backend, jp).join.candidates,
                  engine::join_scan_attrs(jp)[jp.fact], jp.builds.size(),
                  w.normalized.table(jp.table_names[jp.fact]).row_count()};
  };
  const engine::PimStore& fact_store =
      session.pim_engine(engine::EngineKind::kOneXb, "lineorder").store();
  db::Executor& fact = session.executor(backend, "lineorder");
  const rel::Schema& lo = w.data.lineorder.schema();
  const auto fk = [&](const engine::SemijoinCandidate& c) {
    return lo.attribute(c.predicate.attr).name;
  };
  // The foreign keys whose candidates the fact scan takes, sorted.
  const auto takes = [&](const Priced& p,
                         std::vector<engine::SemijoinCandidate> offered) {
    std::vector<std::string> taken;
    const auto f =
        engine::semijoin_prefix(p.filters, offered, p.attrs, p.builds,
                                fact_store, session.options().host);
    for (std::size_t i = p.filters.size(); i < f.size(); ++i) {
      taken.push_back(lo.attribute(f[i].attr).name);
    }
    std::sort(taken.begin(), taken.end());
    return taken;
  };

  const Priced q21 = priced(ssb::query("2.1").sql);
  const engine::SemijoinCandidate* supp = nullptr;
  const engine::SemijoinCandidate* part = nullptr;
  for (const engine::SemijoinCandidate& c : q21.candidates) {
    if (fk(c) == "lo_suppkey") supp = &c;
    if (fk(c) == "lo_partkey") part = &c;
  }
  ASSERT_NE(supp, nullptr);
  ASSERT_NE(part, nullptr);
  EXPECT_LT(part->key_fraction, supp->key_fraction);
  EXPECT_TRUE(takes(q21, {*supp}).empty());
  EXPECT_EQ(takes(q21, {*part}), std::vector<std::string>{"lo_partkey"});
  const std::vector<std::string> both = {"lo_partkey", "lo_suppkey"};
  EXPECT_EQ(takes(q21, {*supp, *part}), both);
  // The session's fact scan takes both and reads back only their survivors.
  EXPECT_EQ(takes(q21, q21.candidates), both);
  const db::ResultSet rs21 = session.execute(ssb::query("2.1").sql, backend);
  EXPECT_LT(rs21.stats().selected_records, q21.fact_rows / 50);

  const Priced q31 = priced(ssb::query("3.1").sql);
  const std::vector<std::string> all3 = {"lo_custkey", "lo_orderdate",
                                         "lo_suppkey"};
  EXPECT_EQ(takes(q31, q31.candidates), all3);
  std::vector<sql::BoundPredicate> all = q31.filters;
  for (const engine::SemijoinCandidate& c : q31.candidates) {
    all.push_back(c.predicate);
  }
  EXPECT_LT(fact.execute_scan(all, q31.attrs, {}).stats.energy_j,
            fact.execute_scan(q31.filters, q31.attrs, {}).stats.energy_j);
  const db::ResultSet rs31 = session.execute(ssb::query("3.1").sql, backend);
  EXPECT_EQ(rs31.stats().selected_records, 17939u);

  const Priced color = priced(
      "SELECT SUM(lo_revenue) AS r FROM lineorder, part, date "
      "WHERE lo_partkey = p_partkey AND lo_orderdate = d_datekey "
      "AND d_year = 1993 AND lo_discount BETWEEN 1 AND 3 "
      "AND lo_quantity < 25 AND p_color = '" +
      ssb::part_colors().front() + "'");
  ASSERT_EQ(color.candidates.size(), 2u);
  const engine::SemijoinCandidate* list = &color.candidates[0];
  const engine::SemijoinCandidate* year = &color.candidates[1];
  if (fk(*list) != "lo_partkey") std::swap(list, year);
  EXPECT_EQ(list->predicate.kind, sql::BoundPredicate::Kind::kIn);
  EXPECT_EQ(year->predicate.kind, sql::BoundPredicate::Kind::kBetween);
  EXPECT_LT(list->key_fraction, year->key_fraction);
  EXPECT_TRUE(takes(color, {*list}).empty());
  EXPECT_EQ(takes(color, color.candidates),
            std::vector<std::string>{"lo_orderdate"});
}

TEST(HashJoin, SemijoinCandidatesTakeTheCheapestPredicateForm) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  // The candidate of the first build side of `sql`, from reference scans.
  const auto first_candidate = [&](const std::string& sql) {
    const db::PreparedStatement st = session.prepare(sql);
    const sql::BoundJoin& jp = st.join();
    const auto candidates =
        run_join(session, db::BackendKind::kReference, jp).join.candidates;
    EXPECT_EQ(candidates.size(), jp.builds.size());
    return candidates.front();
  };
  using Kind = sql::BoundPredicate::Kind;
  // One year of dense day keys: a single range.
  const engine::SemijoinCandidate year =
      first_candidate(std::string(ssb::query("1.1").sql));
  EXPECT_EQ(year.predicate.kind, Kind::kBetween);
  EXPECT_EQ(year.predicate.v2 - year.predicate.v1 + 1, 365u);
  EXPECT_DOUBLE_EQ(year.key_fraction,
                   365.0 / static_cast<double>(w.data.date.row_count()));
  // Supplier keys follow (region, nation, city): one region is one range.
  const engine::SemijoinCandidate region = first_candidate(
      "SELECT SUM(lo_revenue) AS r FROM lineorder, supplier "
      "WHERE lo_suppkey = s_suppkey AND s_region = 'AMERICA'");
  EXPECT_EQ(region.predicate.kind, Kind::kBetween);
  EXPECT_LT(region.predicate.v1, region.predicate.v2);
  // Cities of two regions with a third between them: scattered keys, a
  // membership list.
  const engine::SemijoinCandidate cities = first_candidate(
      "SELECT SUM(lo_revenue) AS r FROM lineorder, supplier "
      "WHERE lo_suppkey = s_suppkey AND s_city IN ('" +
      ssb::city_name(0) + "', '" + ssb::city_name(2) + "')");
  EXPECT_EQ(ssb::city_region(0) + 2, ssb::city_region(2));
  EXPECT_EQ(cities.predicate.kind, Kind::kIn);
  EXPECT_TRUE(std::is_sorted(cities.predicate.in_values.begin(),
                             cities.predicate.in_values.end()));
  // No survivors: statically false.
  const engine::SemijoinCandidate none = first_candidate(
      "SELECT SUM(lo_revenue) AS r FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey AND d_year = 1900");
  EXPECT_EQ(none.predicate.kind, Kind::kNever);
  EXPECT_EQ(none.key_fraction, 0.0);
}

TEST(HashJoin, EmptyDimensionSkipsFactReadback) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  const db::BackendKind backend = db::BackendKind::kOneXb;
  // A group-free text whose date filter keeps no day, and Q3.3, whose
  // supplier city pair selects no supplier at this scale: the inner join
  // is empty, so the fact is never scanned. Nothing of lineorder is
  // filtered, read back or probed, yet its version is still pinned.
  const std::string group_free =
      "SELECT SUM(lo_extendedprice) AS s FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey AND d_year = 1900";
  const std::string grouped(ssb::query("3.3").sql);
  for (const std::string& sql : {group_free, grouped}) {
    SCOPED_TRACE(sql);
    const db::PreparedStatement st = session.prepare(sql);
    const sql::BoundJoin& jp = st.join();
    const JoinRun run = run_join(session, backend, jp);
    ASSERT_FALSE(run.join.scans_fact());
    std::vector<engine::ScanOutput> dims;
    for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
      if (t != jp.fact) dims.push_back(run.join.scans[t]);
    }
    const engine::QueryStats stage = engine::price_concurrent_scans(
        dims, session.options().host, session.options().pim);
    // The plan's stage is that pricing, its total booked as dims_ns.
    engine::QueryStats planned = stage;
    planned.dims_ns = stage.total_ns;
    EXPECT_TRUE(engine::stats_equal(run.join.stage, planned,
                                    {engine::StatClass::kCost}));

    const db::ResultSet rs = st.execute(backend);
    EXPECT_EQ(rs.rows(), run.out.rows);
    EXPECT_EQ(rs.rows(), session.execute(sql, db::BackendKind::kReference)
                             .rows());
    if (jp.has_group_by()) {
      EXPECT_EQ(rs.row_count(), 0u);
    } else {
      ASSERT_EQ(rs.row_count(), 1u);
      EXPECT_EQ(rs.integer(0, 0), 0);
    }
    // The dimension stage is all the PIM work there is.
    EXPECT_EQ(rs.stats().selected_records, 0u);
    EXPECT_EQ(rs.stats().pim_requests, stage.pim_requests);
    EXPECT_EQ(rs.stats().energy_j, stage.energy_j);
    EXPECT_EQ(rs.stats().host_lines, stage.host_lines);
    EXPECT_EQ(rs.stats().dims_ns, stage.total_ns);
    ASSERT_EQ(rs.table_versions().size(), jp.table_names.size());
    for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
      EXPECT_EQ(rs.table_versions()[t].first, jp.table_names[t]);
    }
    EXPECT_EQ(rs.table_versions()[jp.fact].first, "lineorder");
  }
}

// A skipped fact scan still reports the version the join pinned. The
// database is its own (the shared worlds stay at version 0): one UPDATE
// commits to lineorder, then a join whose date side keeps no day skips the
// fact scan. It must report lineorder at version 1 and the dimension at 0.
TEST(HashJoin, SkippedFactScanReportsPinnedVersion) {
  const ssb::SsbData& data = world().data;
  db::Database database;
  database.attach_table(data.lineorder);
  database.attach_table(data.date);
  db::Session session(database);
  const db::BackendKind backend = db::BackendKind::kOneXb;
  const db::ResultSet update = session.execute(
      "UPDATE lineorder SET lo_discount = 0 WHERE lo_discount = 10", backend);
  ASSERT_GT(update.updated_records(), 0u);
  ASSERT_EQ(update.data_version(), 1u);

  const db::PreparedStatement st = session.prepare(
      "SELECT SUM(lo_extendedprice) AS s FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey AND d_year = 1900");
  const sql::BoundJoin& jp = st.join();
  const JoinRun run = run_join(session, backend, jp);
  ASSERT_FALSE(run.join.scans_fact());
  EXPECT_EQ(run.join.scans[jp.fact].data_version, 1u);

  const db::ResultSet rs = st.execute(backend);
  EXPECT_EQ(rs.stats().selected_records, 0u);
  EXPECT_EQ(rs.data_version(), 1u);
  ASSERT_EQ(rs.table_versions().size(), jp.table_names.size());
  for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
    SCOPED_TRACE(jp.table_names[t]);
    EXPECT_EQ(rs.table_versions()[t].first, jp.table_names[t]);
    EXPECT_EQ(rs.table_versions()[t].second, t == jp.fact ? 1u : 0u);
  }
}

// A join with one dimension has a stage of one scan, which prices exactly
// as that scan ran alone: the join's stats are its scans and its host join
// added up back to back, to the last bit.
TEST(HashJoin, OneDimensionJoinPricesAsItsScansInTurn) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  const db::BackendKind backend = db::BackendKind::kOneXb;
  for (const char* id : {"1.1", "1.2", "1.3"}) {
    SCOPED_TRACE(id);
    const db::PreparedStatement st = session.prepare(ssb::query(id).sql);
    const sql::BoundJoin& jp = st.join();
    const JoinRun run = run_join(session, backend, jp);
    ASSERT_EQ(jp.table_names.size(), 2u);
    const std::span<const engine::ScanOutput> dims(&run.join.scans[1 - jp.fact],
                                                   1);
    const engine::QueryStats& dim = dims.front().stats;
    EXPECT_TRUE(engine::stats_equal(
        engine::price_concurrent_scans(dims, session.options().host,
                                       session.options().pim),
        dim, {engine::StatClass::kCost}));
    EXPECT_EQ(run.join.stage.dims_ns, dim.total_ns);

    // The join rebuilt by hand: the fact scan over the prefix the pricing
    // entry picks from the plan's candidates, then the host join alone.
    const auto attrs = engine::join_scan_attrs(jp);
    const engine::PimStore& fact_store =
        session.pim_engine(engine::EngineKind::kOneXb, "lineorder").store();
    std::vector<engine::ScanOutput> scans = run.join.scans;
    scans[jp.fact] = session.executor(backend, "lineorder")
                         .execute_scan(engine::semijoin_prefix(
                                           jp.filters[jp.fact],
                                           run.join.candidates, attrs[jp.fact],
                                           jp.builds.size(), fact_store,
                                           session.options().host),
                                       attrs[jp.fact], {});
    const engine::QueryStats& fact = scans[jp.fact].stats;
    EXPECT_EQ(run.join.scans[jp.fact].row_ids, scans[jp.fact].row_ids);
    const engine::JoinOutput joined =
        engine::hash_join_execute(jp, scans, session.options().host);
    engine::QueryStats host;
    host.phases.host_gb = joined.stats.build_ns + joined.stats.probe_ns;
    host.phases.finalize = joined.stats.finalize_ns;
    host.total_ns = host.phases.host_gb + host.phases.finalize;
    // The join adds its stages up in turn: the dimension, the fact scan,
    // then the host build, probe and finalize.
    engine::QueryStats want;
    want.merge(dim, false);
    want.merge(fact, true);
    want.merge(host, false);
    want.dims_ns = dim.total_ns;
    EXPECT_EQ(run.out.stats.phases.filter,
              dim.phases.filter + fact.phases.filter);
    EXPECT_EQ(run.out.stats.energy_j, dim.energy_j + fact.energy_j);
    EXPECT_GT(run.out.stats.phases.host_gb,
              dim.phases.host_gb + fact.phases.host_gb);

    const db::ResultSet rs = st.execute(backend);
    EXPECT_EQ(rs.rows(), joined.rows);
    EXPECT_EQ(run.out.rows, joined.rows);
    EXPECT_TRUE(engine::stats_equal(
        rs.stats(), want,
        {engine::StatClass::kCost, engine::StatClass::kPlan}));
    EXPECT_TRUE(engine::stats_equal(
        run.out.stats, want,
        {engine::StatClass::kCost, engine::StatClass::kPlan}));
  }
}

// Several dimensions share one stage: every phase is scheduled once over
// the union of their pages and pays one barrier, so the stage ends sooner
// than the scans back to back but no sooner than the slowest scan alone.
// Work, energy and wear are the scans' own, and a stage of one scan prices
// exactly as the scan alone, with pruned pages too.
TEST(HashJoin, DimensionScansPriceAsOneConcurrentStage) {
  JoinWorld& w = world();
  for (const bool prune : {false, true}) {
    db::SessionOptions opts;
    opts.host.prune = prune;
    db::Session session(w.normalized, opts);
    const db::BackendKind backend = db::BackendKind::kOneXb;
    {
      for (const char* id : {"2.1", "3.1", "4.1", "4.3"}) {
        SCOPED_TRACE(std::string(id) + (prune ? ", pruned" : ""));
        const db::PreparedStatement st = session.prepare(ssb::query(id).sql);
        const sql::BoundJoin& jp = st.join();
        const JoinRun run = run_join(session, backend, jp);
        std::vector<engine::ScanOutput> dims;
        for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
          if (t != jp.fact) dims.push_back(run.join.scans[t]);
        }
        ASSERT_GE(dims.size(), 2u);
        const auto stage_of = [&](std::span<const engine::ScanOutput> scans) {
          return engine::price_concurrent_scans(scans, opts.host, opts.pim);
        };
        const engine::QueryStats& stage = run.join.stage;
        EXPECT_EQ(stage.total_ns, stage_of(dims).total_ns);
        engine::QueryStats in_turn;
        double slowest = 0;
        for (const engine::ScanOutput& scan : dims) {
          EXPECT_TRUE(engine::stats_equal(stage_of({&scan, 1}), scan.stats,
                                          {engine::StatClass::kCost}));
          in_turn.merge(scan.stats, false);
          slowest = std::max(slowest, scan.stats.total_ns);
        }
        EXPECT_LT(stage.total_ns, in_turn.total_ns);
        EXPECT_GE(stage.total_ns, slowest);
        // A phase every scan runs pays its barrier once, not once per scan.
        const double saved_barriers =
            static_cast<double>(dims.size() - 1) *
            opts.host.phase_overhead_ns;
        EXPECT_LE(stage.total_ns, in_turn.total_ns - saved_barriers);
        EXPECT_EQ(stage.energy_j, in_turn.energy_j);
        EXPECT_EQ(stage.pim_requests, in_turn.pim_requests);
        EXPECT_EQ(stage.host_lines, in_turn.host_lines);
        EXPECT_EQ(stage.wear_row_writes, in_turn.wear_row_writes);
        EXPECT_EQ(st.execute(backend).stats().dims_ns, stage.total_ns);
      }
    }
  }
}

// The SSB dimensions are too narrow to split over two crossbars, so two-xb
// scans of synthetic relations check the transfer's three phases: each
// scan alone prices as it ran, and two scans share their transfer.
TEST(HashJoin, TwoXbScansShareTheirTransferPhases) {
  testutil::EngineFixture a(engine::EngineKind::kTwoXb, 900, 31);
  testutil::EngineFixture b(engine::EngineKind::kTwoXb, 500, 7);
  const std::string sql =
      "SELECT COUNT(*) FROM t WHERE f_key < 2400 AND d_tag <= 4";
  const std::vector<engine::ScanOutput> scans = {
      a.engine->execute_scan(a.bind_sql(sql).filters, {1, 4}, {}),
      b.engine->execute_scan(b.bind_sql(sql).filters, {1, 4}, {})};
  const auto stage_of = [&](std::span<const engine::ScanOutput> s) {
    return engine::price_concurrent_scans(s, a.hcfg, a.cfg);
  };
  for (const engine::ScanOutput& scan : scans) {
    EXPECT_GT(scan.stats.phases.transfer, 0.0);
    EXPECT_TRUE(engine::stats_equal(stage_of({&scan, 1}), scan.stats,
                                    {engine::StatClass::kCost}));
  }
  const engine::QueryStats stage = stage_of(scans);
  EXPECT_LT(stage.phases.transfer,
            scans[0].stats.phases.transfer + scans[1].stats.phases.transfer);
  EXPECT_GE(stage.phases.transfer, std::max(scans[0].stats.phases.transfer,
                                            scans[1].stats.phases.transfer));
  EXPECT_LT(stage.total_ns, scans[0].stats.total_ns + scans[1].stats.total_ns);
}

// Semijoin pricing compiles its candidates and prefixes through each
// store's filter cache: after one pass over the 13 texts a second pass
// compiles nothing, and its cache hits exceed the scans' own lookups by
// the pricing's.
TEST(HashJoin, WarmRepeatPricesSemijoinsFromTheFilterCache) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  const db::BackendKind backend = db::BackendKind::kOneXb;
  for (const ssb::SsbQuery& q : ssb::queries()) session.execute(q.sql, backend);
  const auto cache_counts = [&] {
    std::size_t hits = 0;
    std::size_t misses = 0;
    for (const char* table :
         {"lineorder", "date", "customer", "supplier", "part"}) {
      const engine::FilterCache& cache =
          session.pim_engine(engine::EngineKind::kOneXb, table)
              .store()
              .filter_cache();
      hits += cache.hit_count();
      misses += cache.miss_count();
    }
    return std::pair{hits, misses};
  };
  const auto [hits_before, misses_before] = cache_counts();
  std::size_t scan_hits = 0;
  for (const ssb::SsbQuery& q : ssb::queries()) {
    const db::ResultSet rs = session.execute(q.sql, backend);
    EXPECT_EQ(rs.stats().filter_cache_misses, 0u) << "q" << q.id;
    scan_hits += rs.stats().filter_cache_hits;
  }
  const auto [hits_after, misses_after] = cache_counts();
  EXPECT_EQ(misses_after, misses_before);
  EXPECT_GT(hits_after - hits_before, scan_hits);
}

TEST(HashJoin, QualifiedColumnsRunOnBothCatalogs) {
  JoinWorld& w = world();
  // Fully qualified text: binds through the join planner on the normalized
  // catalog and through the qualifier-dropping single-table binder on the
  // pre-joined one — same rows either way.
  const std::string sql =
      "SELECT d_year, SUM(lineorder.lo_extendedprice) AS rev "
      "FROM lineorder, date "
      "WHERE lineorder.lo_orderdate = date.d_datekey "
      "AND date.d_year = 1993 AND lineorder.lo_discount BETWEEN 1 AND 3 "
      "GROUP BY d_year ORDER BY d_year";
  db::Session join_session(w.normalized);
  db::Session pre_session(w.prejoined_db);
  const db::ResultSet joined =
      join_session.execute(sql, db::BackendKind::kReference);
  const db::ResultSet pre =
      pre_session.execute(sql, db::BackendKind::kReference);
  EXPECT_EQ(joined.rows(), pre.rows());
  ASSERT_GE(joined.row_count(), 1u);
}

TEST(HashJoin, DatabasePlanCacheSharesAcrossSessions) {
  JoinWorld& w = world();
  db::Database database;
  database.attach_table(w.data.lineorder);
  database.attach_table(w.data.date);
  const std::string sql = std::string(ssb::query("1.1").sql);

  db::Session s1(database);
  db::Session s2(database);
  const std::uint64_t hits_before = database.plan_cache_hits();
  s1.prepare(sql);
  EXPECT_EQ(database.plan_cache_size(), 1u);
  s2.prepare(sql);  // second session: Database-cache hit, no rebind
  EXPECT_EQ(database.plan_cache_size(), 1u);
  EXPECT_EQ(database.plan_cache_hits(), hits_before + 1);
  // Re-preparing in the same session is a Database-cache hit too (the
  // Database cache is the only plan cache).
  s2.prepare(sql);
  EXPECT_EQ(database.plan_cache_hits(), hits_before + 2);

  // Catalog mutation invalidates: the next prepare rebinds.
  database.attach_table(w.data.customer);
  s1.prepare(sql);
  EXPECT_EQ(database.plan_cache_size(), 1u);
  EXPECT_EQ(database.plan_cache_hits(), hits_before + 2);
}

TEST(HashJoin, JoinReportsWearOfItsScans) {
  JoinWorld& w = world();
  db::SessionOptions opts;
  opts.host.prune = true;  // exercises the classification memo
  db::Session session(w.normalized, opts);
  for (const char* id : {"2.1", "3.1", "4.1"}) {
    const std::string sql = std::string(ssb::query(id).sql);
    const db::PreparedStatement st = session.prepare(sql);
    const sql::BoundJoin& jp = st.join();
    // Warm-up: afterwards every scan below classifies from the memo.
    st.execute(db::BackendKind::kOneXb);
    // Wear merges as the max over the per-table scans the join runs (each
    // scan is its own device epoch): the dimensions with their own filters,
    // then the fact with the semijoin predicates its plan takes. The
    // classification memo hits add up.
    std::uint64_t want_wear = 0;
    std::size_t want_memo = 0;
    for (const engine::ScanOutput& scan :
         run_join(session, db::BackendKind::kOneXb, jp).join.scans) {
      want_wear = std::max(want_wear, scan.stats.wear_row_writes);
      want_memo += scan.stats.classification_memo_hits;
    }
    const db::ResultSet rs = st.execute(db::BackendKind::kOneXb);
    EXPECT_GT(rs.stats().wear_row_writes, 0u) << "q" << id;
    EXPECT_EQ(rs.stats().wear_row_writes, want_wear) << "q" << id;
    EXPECT_GT(want_memo, 0u) << "q" << id;
    EXPECT_EQ(rs.stats().classification_memo_hits, want_memo) << "q" << id;
  }
}

TEST(HashJoin, ExplainRendersJoinTreeAndPerTableScans) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  const std::string plan = session.explain(std::string(ssb::query("3.1").sql),
                                           db::BackendKind::kOneXb);
  EXPECT_NE(plan.find("join plan: star over fact 'lineorder'"),
            std::string::npos);
  EXPECT_NE(plan.find("BUILD date"), std::string::npos);
  EXPECT_NE(plan.find("PROBE lineorder"), std::string::npos);
  EXPECT_NE(plan.find("SEMIJOIN: the lineorder scan may receive a run-time "
                      "predicate on lineorder.lo_orderdate"),
            std::string::npos);
  EXPECT_NE(plan.find("decided by cost"), std::string::npos);
  EXPECT_NE(plan.find("-- scan customer --"), std::string::npos);
  EXPECT_NE(plan.find("ZONE MAP"), std::string::npos);
  EXPECT_NE(plan.find("GROUP BY:"), std::string::npos);
  // The stages that run, in order: Q3.1's dimensions, then its fact scan
  // with the semijoin prefix it takes at this scale, then the host join.
  const std::size_t dims = plan.find(
      "STAGE 1, dimension scans as one concurrent stage (modeled ");
  const std::size_t fact = plan.find(
      "STAGE 2, fact scan lineorder (60000 rows, 0 filter(s), 3 semijoin(s)): "
      "lineorder.lo_suppkey lineorder.lo_custkey lineorder.lo_orderdate\n");
  const std::size_t host = plan.find(
      "STAGE 3, host join: PROBE lineorder survivors cascade through 3 build "
      "side(s)");
  EXPECT_LT(dims, fact);
  EXPECT_LT(fact, host);
  EXPECT_NE(host, std::string::npos);
  EXPECT_LT(host, plan.find("-- scan lineorder --"));

  // Q3.3's supplier city pair selects no supplier: no fact scan runs.
  const std::string empty = session.explain(
      std::string(ssb::query("3.3").sql), db::BackendKind::kOneXb);
  EXPECT_NE(empty.find("STAGE 2, host join: no fact scan, build side "
                       "supplier has no survivors, so the join is empty"),
            std::string::npos);
  EXPECT_EQ(empty.find("STAGE 2, fact scan"), std::string::npos);
  EXPECT_EQ(empty.find("STAGE 3"), std::string::npos);
  EXPECT_EQ(empty.find("PROBE lineorder"), std::string::npos);
  // The host baselines have no physical plan to render.
  EXPECT_THROW(session.explain(std::string(ssb::query("3.1").sql),
                               db::BackendKind::kReference),
               std::invalid_argument);
}

TEST(HashJoin, ColumnarBackendRefusesJoins) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  EXPECT_THROW(session.execute(std::string(ssb::query("1.1").sql),
                               db::BackendKind::kColumnar),
               std::invalid_argument);
}

// Two-xb splits a relation by provenance, and the normalized tables carry
// no dimension attribute: each loads as one part and runs on the one-xb
// executor. So every two-xb star join returns the pre-joined rows, with
// the one-xb join's modeled cost and plan to the last bit.
TEST(HashJoin, TwoXbJoinsRunAsOnePartJoins) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  db::Session pre_session(w.prejoined_db);
  for (const ssb::SsbQuery& q : ssb::queries()) {
    SCOPED_TRACE(q.id);
    const db::ResultSet two = session.execute(q.sql, db::BackendKind::kTwoXb);
    const db::ResultSet one = session.execute(q.sql, db::BackendKind::kOneXb);
    EXPECT_EQ(two.rows(),
              pre_session.execute(q.sql, db::BackendKind::kOneXb).rows());
    EXPECT_TRUE(engine::stats_equal(
        two.stats(), one.stats(),
        {engine::StatClass::kCost, engine::StatClass::kPlan}));
  }
}

// The backend matrix: every backend on each statement shape (a SELECT on
// the pre-joined relation, a GROUP BY on a table with no dimension
// attribute, a star join, an UPDATE) returns the reference rows, or
// refuses with std::invalid_argument before any scan runs.
TEST(BackendMatrix, EveryCellAnswersOrRefuses) {
  JoinWorld& w = world();
  db::Session join_session(w.normalized);
  db::Session pre_session(w.prejoined_db);
  const std::string star(ssb::query("2.1").sql);
  const std::string plain =
      "SELECT lo_discount, SUM(lo_revenue) AS r FROM lineorder "
      "WHERE lo_quantity < 25 GROUP BY lo_discount";
  const std::string rename =
      "UPDATE ssb_prejoined SET s_city = 'UNITED ST9' "
      "WHERE s_city = 'UNITED ST0'";
  const std::string count = "SELECT COUNT(*) FROM ssb_prejoined WHERE s_city ";
  const db::BackendKind ref = db::BackendKind::kReference;
  const auto single_rows = pre_session.execute(star, ref).rows();
  const auto plain_rows = join_session.execute(plain, ref).rows();
  const auto join_rows = join_session.execute(star, ref).rows();
  const std::int64_t st0 =
      pre_session.execute(count + "= 'UNITED ST0'", ref).integer(0, 0);
  const std::int64_t st0_st9 =
      pre_session.execute(count + "IN ('UNITED ST0', 'UNITED ST9')", ref)
          .integer(0, 0);
  ASSERT_GT(st0, 0);

  for (const db::BackendKind backend :
       {db::BackendKind::kOneXb, db::BackendKind::kTwoXb,
        db::BackendKind::kPimdb, db::BackendKind::kColumnar, ref}) {
    SCOPED_TRACE(db::backend_name(backend));
    EXPECT_EQ(pre_session.execute(star, backend).rows(), single_rows);
    EXPECT_EQ(join_session.execute(plain, backend).rows(), plain_rows);
    if (backend == db::BackendKind::kColumnar) {
      EXPECT_THROW(join_session.execute(star, backend), std::invalid_argument);
    } else {
      EXPECT_EQ(join_session.execute(star, backend).rows(), join_rows);
    }

    // UPDATE, on a database of its own: the shared worlds stay unmutated.
    db::Database database;
    database.attach_table(w.prejoined);
    db::Session session(database);
    // Fact predicate, dimension target: refused on every backend.
    EXPECT_THROW(session.execute("UPDATE ssb_prejoined SET s_city = "
                                 "'UNITED ST9' WHERE lo_discount = 1",
                                 backend),
                 std::invalid_argument);
    if (!db::engine_kind_of(backend)) {
      EXPECT_THROW(session.execute(rename, backend), std::invalid_argument);
      continue;
    }
    EXPECT_EQ(session.execute(rename, backend).updated_records(),
              static_cast<std::size_t>(st0));
    EXPECT_EQ(session.execute(count + "= 'UNITED ST0'", backend).integer(0, 0),
              0);
    EXPECT_EQ(session.execute(count + "= 'UNITED ST9'", backend).integer(0, 0),
              st0_st9);
  }
}

TEST(HashJoin, PreparedStatementAccessors) {
  JoinWorld& w = world();
  db::Session session(w.normalized);
  db::PreparedStatement st = session.prepare(std::string(ssb::query("2.1").sql));
  EXPECT_TRUE(st.is_join());
  EXPECT_FALSE(st.is_update());
  EXPECT_EQ(st.target().name(), "lineorder");  // join fact
  EXPECT_EQ(st.join().table_names.size(), 4u);
  EXPECT_THROW(st.bound(), std::logic_error);

  db::Session pre_session(w.prejoined_db);
  db::PreparedStatement single =
      pre_session.prepare(std::string(ssb::query("2.1").sql));
  EXPECT_FALSE(single.is_join());
  EXPECT_THROW(single.join(), std::logic_error);
}

}  // namespace
}  // namespace bbpim
