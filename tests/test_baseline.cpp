// Tests for the MonetDB-like baseline: the functional scan (oracle), the
// mnt-join and mnt-reg cost models, and their expected orderings.
#include <gtest/gtest.h>

#include "baseline/monet.hpp"
#include "sql/parser.hpp"
#include "ssb/queries.hpp"

namespace bbpim::baseline {
namespace {

struct World {
  ssb::SsbData data;
  rel::Table prejoined;
  World() {
    ssb::SsbConfig cfg;
    cfg.scale_factor = 0.01;
    cfg.seed = 9;
    data = ssb::generate(cfg);
    prejoined = ssb::prejoin_ssb(data);
  }
};

const World& world() {
  static const World w;
  return w;
}

sql::BoundQuery bound(const char* id) {
  return sql::bind(sql::parse(ssb::query(id).sql), world().prejoined.schema());
}

TEST(Baseline, FunctionalRowsMatchBetweenModes) {
  MonetLikeEngine eng(world().data, world().prejoined);
  for (const char* id : {"1.1", "2.2", "3.3", "4.1"}) {
    const sql::BoundQuery q = bound(id);
    const BaselineRun join_run = execute_prejoined(world().prejoined, q);
    const BaselineRun star_run = eng.execute_star(q);
    ASSERT_EQ(join_run.rows.size(), star_run.rows.size()) << id;
    for (std::size_t i = 0; i < join_run.rows.size(); ++i) {
      EXPECT_EQ(join_run.rows[i].group, star_run.rows[i].group);
      EXPECT_EQ(join_run.rows[i].agg, star_run.rows[i].agg);
    }
    EXPECT_EQ(join_run.selected_records, star_run.selected_records);
  }
}

TEST(Baseline, ScanExecuteAgreesWithManualScan) {
  const sql::BoundQuery q = bound("1.1");
  const ReferenceRun run = scan_execute(world().prejoined, q);
  ASSERT_EQ(run.rows.size(), 1u);
  // Manual recomputation.
  const rel::Table& pj = world().prejoined;
  std::int64_t expected = 0;
  std::size_t selected = 0;
  for (std::size_t r = 0; r < pj.row_count(); ++r) {
    bool ok = true;
    for (const auto& p : q.filters) {
      if (!p.matches(pj.value(r, p.attr))) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    ++selected;
    expected += static_cast<std::int64_t>(pj.value(r, q.agg_expr.a) *
                                          pj.value(r, q.agg_expr.b));
  }
  EXPECT_EQ(run.rows[0].agg, expected);
  EXPECT_EQ(run.selected_records, selected);
  EXPECT_GT(selected, 0u);
}

TEST(Baseline, StarPlanCostsMoreThanPrejoinedScan) {
  // mnt-reg pays hash joins on top of comparable scans; the paper's Fig. 6
  // shows mnt_reg above mnt_join on every query.
  MonetLikeEngine eng(world().data, world().prejoined);
  for (const auto& q : ssb::queries()) {
    const sql::BoundQuery b =
        sql::bind(sql::parse(q.sql), world().prejoined.schema());
    const BaselineRun join_run = execute_prejoined(world().prejoined, b);
    const BaselineRun star_run = eng.execute_star(b);
    EXPECT_GT(star_run.model_ns, join_run.model_ns) << q.id;
    EXPECT_GT(star_run.hash_probes, 0u) << q.id;
    EXPECT_GT(join_run.wall_ns, 0.0);
  }
}

TEST(Baseline, CostScalesWithSelectivity) {
  MonetLikeEngine eng(world().data, world().prejoined);
  // Q1.1 selects ~2.3e-2, Q1.3 ~1e-4; same shape otherwise. The prejoined
  // scan cost is column-scan dominated, so the ordering holds weakly; the
  // star plan's probe cascade must also not be cheaper for the bigger query.
  const BaselineRun q11 = eng.execute_star(bound("1.1"));
  const BaselineRun q13 = eng.execute_star(bound("1.3"));
  EXPECT_GE(q11.selected_records, q13.selected_records);
  EXPECT_GE(q11.model_ns, q13.model_ns);
}

TEST(Baseline, GroupByQueriesReturnOrderedGroups) {
  const sql::BoundQuery q = bound("3.1");
  const BaselineRun run = execute_prejoined(world().prejoined, q);
  ASSERT_GT(run.rows.size(), 1u);
  // ORDER BY d_year ASC, revenue DESC.
  for (std::size_t i = 1; i < run.rows.size(); ++i) {
    const auto& a = run.rows[i - 1];
    const auto& b = run.rows[i];
    const std::uint64_t ya = a.group[2], yb = b.group[2];
    ASSERT_LE(ya, yb);
    if (ya == yb) {
      ASSERT_GE(a.agg, b.agg);
    }
  }
}

}  // namespace
}  // namespace bbpim::baseline
