// End-to-end correctness of the PIM query executor.
//
// Every engine variant (one-xb, two-xb, pimdb) must produce exactly the
// reference executor's rows for every query shape — no-group-by, group-by
// with any forced pim/host split (k = 0, 1, all), SUM over columns,
// products, differences, COUNT, MIN, MAX. Cost accounting sanity (positive
// phase times, energy categories, wear) is asserted alongside, and the
// host-gb page walk folds packed and 80-bit keys alike at any thread count.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "baseline/reference.hpp"
#include "engine_test_util.hpp"

namespace bbpim::engine {
namespace {

using baseline::scan_execute;
using testutil::EngineFixture;

void expect_same_rows(const std::vector<ResultRow>& got,
                      const std::vector<ResultRow>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].group, want[i].group) << what << " row " << i;
    EXPECT_EQ(got[i].agg, want[i].agg) << what << " row " << i;
  }
}

struct EngineCase {
  EngineKind kind;
  std::size_t force_k;
};

class AllEnginesAllSplits : public ::testing::TestWithParam<EngineCase> {};

TEST_P(AllEnginesAllSplits, GroupByMatchesReference) {
  const auto [kind, force_k] = GetParam();
  EngineFixture fx(kind, 900, 31);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT f_gid, SUM(f_val) AS total FROM t WHERE f_key < 2048 "
      "GROUP BY f_gid ORDER BY f_gid");
  ExecOptions opts;
  opts.force_k = force_k;
  const QueryOutput out = fx.engine->execute(q, opts);
  const auto ref = scan_execute(*fx.table, q);
  expect_same_rows(out.rows, ref.rows,
                   std::string(engine_kind_name(kind)) + " k=" +
                       std::to_string(force_k));
  EXPECT_EQ(out.stats.selected_records, ref.selected_records);
  EXPECT_EQ(out.stats.pim_subgroups, std::min(force_k, out.stats.total_subgroups));
}

INSTANTIATE_TEST_SUITE_P(
    Splits, AllEnginesAllSplits,
    ::testing::Values(EngineCase{EngineKind::kOneXb, 0},
                      EngineCase{EngineKind::kOneXb, 1},
                      EngineCase{EngineKind::kOneXb, 3},
                      EngineCase{EngineKind::kOneXb, 100},
                      EngineCase{EngineKind::kTwoXb, 0},
                      EngineCase{EngineKind::kTwoXb, 2},
                      EngineCase{EngineKind::kTwoXb, 100},
                      EngineCase{EngineKind::kPimdb, 0},
                      EngineCase{EngineKind::kPimdb, 2},
                      EngineCase{EngineKind::kPimdb, 100}));

TEST(QueryEngine, NoGroupBySumProduct) {
  // SUM(a*b) exercises the per-multiplier-bit decomposition passes.
  for (const EngineKind kind :
       {EngineKind::kOneXb, EngineKind::kTwoXb, EngineKind::kPimdb}) {
    EngineFixture fx(kind, 700, 32);
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT SUM(f_val * f_val2) AS x FROM t WHERE f_gid BETWEEN 1 AND 5");
    const QueryOutput out = fx.engine->execute(q);
    const auto ref = scan_execute(*fx.table, q);
    expect_same_rows(out.rows, ref.rows, engine_kind_name(kind));
  }
}

TEST(QueryEngine, NoGroupByDifference) {
  EngineFixture fx(EngineKind::kOneXb, 500, 33);
  // f_val - f_val2 can go negative per record; SUM must still be exact.
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT SUM(f_val - f_val2) AS x FROM t WHERE f_key >= 100");
  const QueryOutput out = fx.engine->execute(q);
  expect_same_rows(out.rows, scan_execute(*fx.table, q).rows, "sub");
}

TEST(QueryEngine, GroupByProductDecompositionWithGroups) {
  EngineFixture fx(EngineKind::kOneXb, 800, 34);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT f_gid, SUM(f_val * f_val2) AS x FROM t WHERE f_key < 3000 "
      "GROUP BY f_gid ORDER BY f_gid");
  for (const std::size_t k : {std::size_t{0}, std::size_t{2}, std::size_t{100}}) {
    ExecOptions opts;
    opts.force_k = k;
    const QueryOutput out = fx.engine->execute(q, opts);
    expect_same_rows(out.rows, scan_execute(*fx.table, q).rows,
                     "mul k=" + std::to_string(k));
  }
}

TEST(QueryEngine, CountMinMax) {
  EngineFixture fx(EngineKind::kOneXb, 600, 35);
  {
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT f_gid, COUNT(*) AS c FROM t WHERE f_val < 600 "
        "GROUP BY f_gid ORDER BY f_gid");
    ExecOptions opts;
    opts.force_k = 2;
    expect_same_rows(fx.engine->execute(q, opts).rows,
                     scan_execute(*fx.table, q).rows, "count");
  }
  {
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT f_gid, MIN(f_val) AS m FROM t WHERE f_key < 3500 "
        "GROUP BY f_gid ORDER BY f_gid");
    ExecOptions opts;
    opts.force_k = 100;
    expect_same_rows(fx.engine->execute(q, opts).rows,
                     scan_execute(*fx.table, q).rows, "min");
  }
  {
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT f_gid, MAX(f_val) AS m FROM t GROUP BY f_gid ORDER BY f_gid");
    ExecOptions opts;
    opts.force_k = 0;
    expect_same_rows(fx.engine->execute(q, opts).rows,
                     scan_execute(*fx.table, q).rows, "max");
  }
}

TEST(QueryEngine, EmptySelection) {
  EngineFixture fx(EngineKind::kOneXb, 400, 36);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT f_gid, SUM(f_val) AS s FROM t WHERE f_key < 0 "
      "GROUP BY f_gid ORDER BY f_gid");
  ExecOptions opts;
  opts.force_k = 0;
  const QueryOutput out = fx.engine->execute(q, opts);
  EXPECT_TRUE(out.rows.empty());
  EXPECT_EQ(out.stats.selected_records, 0u);

  const sql::BoundQuery q2 =
      fx.bind_sql("SELECT SUM(f_val) AS s FROM t WHERE f_key < 0");
  const QueryOutput out2 = fx.engine->execute(q2);
  ASSERT_EQ(out2.rows.size(), 1u);  // no-group-by always yields one row
  EXPECT_EQ(out2.rows[0].agg, 0);
}

TEST(QueryEngine, OrderByAggDescending) {
  EngineFixture fx(EngineKind::kOneXb, 800, 37);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT f_gid, d_tag, SUM(f_val) AS s FROM t WHERE f_key < 3000 "
      "GROUP BY f_gid, d_tag ORDER BY d_tag ASC, s DESC");
  ExecOptions opts;
  opts.force_k = 0;
  const QueryOutput out = fx.engine->execute(q, opts);
  expect_same_rows(out.rows, scan_execute(*fx.table, q).rows, "order");
  for (std::size_t i = 1; i < out.rows.size(); ++i) {
    const auto& a = out.rows[i - 1];
    const auto& b = out.rows[i];
    ASSERT_LE(a.group[1], b.group[1]);
    if (a.group[1] == b.group[1]) {
      ASSERT_GE(a.agg, b.agg);
    }
  }
}

TEST(QueryEngine, AccountingSanity) {
  EngineFixture fx(EngineKind::kOneXb, 900, 38);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT f_gid, SUM(f_val) AS s FROM t WHERE f_key < 2048 "
      "GROUP BY f_gid ORDER BY f_gid");
  ExecOptions opts;
  opts.force_k = 2;
  const QueryOutput out = fx.engine->execute(q, opts);
  const QueryStats& st = out.stats;
  EXPECT_GT(st.total_ns, 0.0);
  EXPECT_NEAR(st.total_ns, st.phases.total(), 1e-6);
  EXPECT_GT(st.phases.filter, 0.0);
  EXPECT_GT(st.phases.sample, 0.0);
  EXPECT_GT(st.phases.pim_gb, 0.0);
  EXPECT_GT(st.phases.host_gb, 0.0);
  EXPECT_GT(st.energy_j, 0.0);
  EXPECT_GT(st.energy_logic_j, 0.0);
  EXPECT_GT(st.energy_read_j, 0.0);
  EXPECT_NEAR(st.energy_j,
              st.energy_logic_j + st.energy_read_j + st.energy_write_j +
                  st.energy_controller_j + st.energy_agg_circuit_j,
              st.energy_j * 1e-9);
  EXPECT_GT(st.peak_chip_w, 0.0);
  EXPECT_GT(st.wear_row_writes, 0u);
  EXPECT_GT(st.pim_requests, 0u);
  EXPECT_GT(st.host_lines, 0u);
  EXPECT_NEAR(st.selectivity,
              static_cast<double>(st.selected_records) / 900.0, 1e-12);
}

TEST(QueryEngine, PimdbCostsMoreThanCircuit) {
  // Same query, same forced split: the bit-serial baseline must burn more
  // aggregation time, energy, and wear than the aggregation circuit.
  const sql::BoundQuery* q_ptr = nullptr;
  QueryStats one, pimdb;
  {
    EngineFixture fx(EngineKind::kOneXb, 900, 39);
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT f_gid, SUM(f_val) AS s FROM t GROUP BY f_gid ORDER BY f_gid");
    (void)q_ptr;
    ExecOptions opts;
    opts.force_k = 5;
    opts.skip_host_gb = true;
    one = fx.engine->execute(q, opts).stats;
  }
  {
    EngineFixture fx(EngineKind::kPimdb, 900, 39);
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT f_gid, SUM(f_val) AS s FROM t GROUP BY f_gid ORDER BY f_gid");
    ExecOptions opts;
    opts.force_k = 5;
    opts.skip_host_gb = true;
    pimdb = fx.engine->execute(q, opts).stats;
  }
  EXPECT_GT(pimdb.phases.pim_gb, one.phases.pim_gb);
  EXPECT_GT(pimdb.energy_logic_j, one.energy_logic_j);
  EXPECT_GT(pimdb.wear_row_writes, one.wear_row_writes);
}

TEST(QueryEngine, TwoXbPaysTransferOverhead) {
  QueryStats one, two;
  {
    EngineFixture fx(EngineKind::kOneXb, 900, 40);
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT d_tag, SUM(f_val) AS s FROM t WHERE f_key < 2048 "
        "GROUP BY d_tag ORDER BY d_tag");
    ExecOptions opts;
    opts.force_k = 2;
    one = fx.engine->execute(q, opts).stats;
  }
  {
    EngineFixture fx(EngineKind::kTwoXb, 900, 40);
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT d_tag, SUM(f_val) AS s FROM t WHERE f_key < 2048 "
        "GROUP BY d_tag ORDER BY d_tag");
    ExecOptions opts;
    opts.force_k = 2;
    two = fx.engine->execute(q, opts).stats;
  }
  EXPECT_DOUBLE_EQ(one.phases.transfer, 0.0);
  EXPECT_GT(two.phases.transfer, 0.0);
  EXPECT_GT(two.total_ns, one.total_ns);
}

TEST(QueryEngine, HostGbPageWalkFoldsWideAndPackedKeys) {
  // force_k = 0 leaves every group to host-gb's page walk. g_a and g_b are
  // 40-bit codes, so grouping on both folds an 80-bit key (the group
  // index's wide fallback); n_a and n_b pack into one word.
  const std::uint64_t big = 1ULL << 39;
  rel::Schema schema{{{"g_a", rel::DataType::kInt, 40, nullptr},
                      {"g_b", rel::DataType::kInt, 40, nullptr},
                      {"n_a", rel::DataType::kInt, 3, nullptr},
                      {"n_b", rel::DataType::kInt, 4, nullptr},
                      {"f_key", rel::DataType::kInt, 8, nullptr},
                      {"f_val", rel::DataType::kInt, 10, nullptr}}};
  rel::Table t(schema, "t");
  Rng rng(43);
  for (int r = 0; r < 1000; ++r) {
    t.append_row(std::vector<std::uint64_t>{
        big + rng.next_below(5), big + 3 * rng.next_below(4),
        rng.next_below(8), rng.next_below(16), rng.next_below(256),
        rng.next_below(1000)});
  }
  pim::PimConfig cfg = testutil::small_pim_config();
  cfg.crossbar_cols = 256;  // room for the two 40-bit fields
  pim::PimModule module(cfg);
  PimStore store(module, t);

  const std::string where = " FROM t WHERE f_key < 200 ";
  std::set<std::size_t> survivor_pages;
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    if (t.value(r, 4) < 200) {
      survivor_pages.insert(r / store.records_per_page());
    }
  }
  ASSERT_GE(survivor_pages.size(), 2u);

  for (const std::string& text :
       {"SELECT g_a, g_b, SUM(f_val) AS s" + where +
            "GROUP BY g_a, g_b ORDER BY g_a, g_b",
        "SELECT n_a, n_b, MAX(f_val) AS m" + where +
            "GROUP BY n_a, n_b ORDER BY m DESC"}) {
    const sql::BoundQuery q = sql::bind(sql::parse(text), t.schema());
    const auto ref = scan_execute(t, q);
    ASSERT_GT(ref.rows.size(), 10u) << text;
    std::vector<QueryOutput> outs;
    for (const int variant : {1, 4, 0}) {  // sim_threads, 0 = sim_scalar
      host::HostConfig hcfg;
      hcfg.sim_threads = variant == 0 ? 1 : variant;
      ExecOptions opts;
      opts.force_k = 0;
      opts.sim_scalar = variant == 0;
      outs.push_back(
          PimQueryEngine(EngineKind::kOneXb, store, hcfg).execute(q, opts));
      const std::string what = text + " variant " + std::to_string(variant);
      expect_same_rows(outs.back().rows, ref.rows, what);
      EXPECT_EQ(outs.back().stats.pim_subgroups, 0u) << what;
      EXPECT_EQ(outs.back().stats.selected_records, ref.selected_records)
          << what;
      EXPECT_TRUE(stats_equal(outs.front().stats, outs.back().stats,
                              {StatClass::kCost, StatClass::kPlan}))
          << what;
    }
  }
}

TEST(QueryEngine, MismatchedStoreKindRejected) {
  pim::PimConfig cfg = testutil::small_pim_config();
  pim::PimModule module(cfg);
  const rel::Table t = testutil::make_synthetic_table(100, 41);
  PimStore one_part(module, t);
  EXPECT_THROW(PimQueryEngine(EngineKind::kTwoXb, one_part, host::HostConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bbpim::engine
