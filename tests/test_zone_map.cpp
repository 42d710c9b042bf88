// Zone-map pruning: sketch classification, selectivity ordering, parity of
// pruned vs unpruned execution, incremental sketch maintenance across
// in-place UPDATEs, and the statically-empty early exit.
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/explain.hpp"
#include "engine/prejoin.hpp"
#include "engine/zone_map.hpp"
#include "engine_test_util.hpp"

namespace bbpim::engine {
namespace {

sql::BoundPredicate pred(sql::BoundPredicate::Kind kind, std::size_t attr,
                         std::uint64_t v1, std::uint64_t v2 = 0) {
  sql::BoundPredicate p;
  p.kind = kind;
  p.attr = attr;
  p.v1 = v1;
  p.v2 = v2;
  return p;
}

TEST(ZoneSketch, RangeClassification) {
  using Kind = sql::BoundPredicate::Kind;
  ZoneSketch s;
  s.add(10, false);
  s.add(20, false);

  EXPECT_EQ(classify_predicate(pred(Kind::kEq, 0, 5), s, false),
            ZoneClass::kAlwaysFalse);
  EXPECT_EQ(classify_predicate(pred(Kind::kEq, 0, 15), s, false),
            ZoneClass::kResidual);
  EXPECT_EQ(classify_predicate(pred(Kind::kLt, 0, 10), s, false),
            ZoneClass::kAlwaysFalse);
  EXPECT_EQ(classify_predicate(pred(Kind::kLt, 0, 21), s, false),
            ZoneClass::kAlwaysTrue);
  EXPECT_EQ(classify_predicate(pred(Kind::kGe, 0, 10), s, false),
            ZoneClass::kAlwaysTrue);
  EXPECT_EQ(classify_predicate(pred(Kind::kGt, 0, 20), s, false),
            ZoneClass::kAlwaysFalse);
  EXPECT_EQ(classify_predicate(pred(Kind::kBetween, 0, 0, 9), s, false),
            ZoneClass::kAlwaysFalse);
  EXPECT_EQ(classify_predicate(pred(Kind::kBetween, 0, 10, 20), s, false),
            ZoneClass::kAlwaysTrue);
  EXPECT_EQ(classify_predicate(pred(Kind::kBetween, 0, 12, 30), s, false),
            ZoneClass::kResidual);

  // Single-value sketches make IN / Eq exact.
  ZoneSketch one;
  one.add(7, false);
  EXPECT_EQ(classify_predicate(pred(Kind::kEq, 0, 7), one, false),
            ZoneClass::kAlwaysTrue);
  sql::BoundPredicate in = pred(Kind::kIn, 0, 0);
  in.in_values = {3, 7};
  EXPECT_EQ(classify_predicate(in, one, false), ZoneClass::kAlwaysTrue);

  // Empty sketch (no valid records): nothing can match.
  ZoneSketch empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(classify_predicate(pred(Kind::kGe, 0, 0), empty, false),
            ZoneClass::kAlwaysFalse);
}

TEST(ZoneSketch, BitmapClassificationIsExact) {
  using Kind = sql::BoundPredicate::Kind;
  ZoneSketch s;
  s.add(1, true);
  s.add(5, true);  // {1, 5}: range [1,5] but only two codes present

  // Range-only would say residual; the bitmap knows 3 is absent.
  EXPECT_EQ(classify_predicate(pred(Kind::kEq, 0, 3), s, true),
            ZoneClass::kAlwaysFalse);
  sql::BoundPredicate in = pred(Kind::kIn, 0, 0);
  in.in_values = {1, 5, 9};
  EXPECT_EQ(classify_predicate(in, s, true), ZoneClass::kAlwaysTrue);
  in.in_values = {5};
  EXPECT_EQ(classify_predicate(in, s, true), ZoneClass::kResidual);

  EXPECT_DOUBLE_EQ(sketch_selectivity(pred(Kind::kEq, 0, 5), s, true), 0.5);
  EXPECT_DOUBLE_EQ(sketch_selectivity(pred(Kind::kEq, 0, 3), s, true), 0.0);
}

/// Synthetic relation CLUSTERED on f_key (what real zone maps rely on):
/// row i has f_key = i * 4095 / (rows-1), everything else as the shared
/// generator produces. Queries on f_key ranges then skip whole pages.
rel::Table make_clustered_table(std::size_t rows, std::uint64_t seed) {
  rel::Table base = testutil::make_synthetic_table(rows, seed);
  rel::Table t(base.schema(), "clustered");
  t.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t key = i * 4095 / (rows > 1 ? rows - 1 : 1);
    const std::uint64_t row[] = {key, base.value(i, 1), base.value(i, 2),
                                 base.value(i, 3), base.value(i, 4)};
    t.append_row(row);
  }
  return t;
}

struct ClusteredFixture {
  pim::PimConfig cfg = testutil::small_pim_config();
  host::HostConfig hcfg;
  pim::PimModule module{cfg};
  rel::Table table;
  PimStore store;
  PimQueryEngine engine;  ///< pruning off (the default)
  PimQueryEngine pruned;  ///< the same store with HostConfig::prune on

  ClusteredFixture(EngineKind kind, std::size_t rows, std::uint64_t seed)
      : table(make_clustered_table(rows, seed)),
        store(module, table, {.two_crossbar = kind == EngineKind::kTwoXb}),
        engine(kind, store, hcfg),
        pruned(kind, store, [this] {
          host::HostConfig h = hcfg;
          h.prune = true;
          return h;
        }()) {}
};

void expect_same_rows(const QueryOutput& a, const QueryOutput& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].group, b.rows[i].group) << "row " << i;
    EXPECT_EQ(a.rows[i].agg, b.rows[i].agg) << "row " << i;
  }
}

/// Result-semantic stats must never depend on pruning; cost stats may only
/// shrink (pruning removes work, it never adds or repriced any).
void expect_prune_invariants(const QueryStats& off, const QueryStats& on) {
  EXPECT_EQ(off.selected_records, on.selected_records);
  EXPECT_EQ(off.selectivity, on.selectivity);
  EXPECT_EQ(off.total_subgroups, on.total_subgroups);
  EXPECT_EQ(off.sampled_subgroups, on.sampled_subgroups);
  EXPECT_EQ(off.pim_subgroups, on.pim_subgroups);
  EXPECT_EQ(off.n_chunks, on.n_chunks);
  EXPECT_EQ(off.s_chunks, on.s_chunks);
  EXPECT_EQ(off.selectivity_estimate, on.selectivity_estimate);
  EXPECT_EQ(off.candidates_complete, on.candidates_complete);
  EXPECT_EQ(off.candidate_masses, on.candidate_masses);
  EXPECT_LE(on.total_ns, off.total_ns);
  EXPECT_LE(on.energy_j, off.energy_j);
}

TEST(ZonePruning, ClusteredRangeSkipsPagesSameRows) {
  for (const EngineKind kind :
       {EngineKind::kOneXb, EngineKind::kTwoXb, EngineKind::kPimdb}) {
    ClusteredFixture fx(kind, 1500, 7);
    // 1500 rows / 256 per page = 6 pages; f_key < 700 covers ~1 page.
    const sql::BoundQuery q = sql::bind(
        sql::parse("SELECT d_tag, SUM(f_val) AS s FROM t WHERE f_key < 700 "
                   "GROUP BY d_tag ORDER BY d_tag"),
        fx.table.schema());
    ExecOptions opts;
    opts.force_k = 2;

    const QueryOutput a = fx.engine.execute(q, opts);
    const QueryOutput b = fx.pruned.execute(q, opts);
    expect_same_rows(a, b);
    expect_prune_invariants(a.stats, b.stats);
    EXPECT_GT(b.stats.pages_skipped, 0u) << engine_kind_name(kind);
    EXPECT_GT(b.stats.crossbars_skipped, 0u);
    EXPECT_GT(b.stats.predicates_short_circuited, 0u);
    EXPECT_LT(b.stats.total_ns, a.stats.total_ns) << engine_kind_name(kind);
    EXPECT_EQ(a.stats.pages_skipped, 0u);  // counters stay zero when off
  }
}

TEST(ZonePruning, StaticallyEmptySelectEarlyExits) {
  for (const EngineKind kind : {EngineKind::kOneXb, EngineKind::kTwoXb}) {
    ClusteredFixture fx(kind, 1200, 11);
    // f_gid is 0..9 by construction; 14 never occurs -> bitmap refutes it.
    for (const char* sql :
         {"SELECT COUNT(*) AS c FROM t WHERE f_gid = 14",
          "SELECT d_tag, SUM(f_val) AS s FROM t WHERE f_gid = 14 "
          "GROUP BY d_tag"}) {
      const sql::BoundQuery q =
          sql::bind(sql::parse(sql), fx.table.schema());
      ExecOptions opts;
      opts.force_k = 1;
      const QueryOutput a = fx.engine.execute(q, opts);
      const QueryOutput b = fx.pruned.execute(q, opts);
      expect_same_rows(a, b);
      expect_prune_invariants(a.stats, b.stats);
      EXPECT_EQ(b.stats.pages_skipped, fx.store.pages_per_part());
      EXPECT_EQ(b.stats.selected_records, 0u);
      EXPECT_LT(b.stats.total_ns, a.stats.total_ns);
      EXPECT_EQ(b.stats.pim_requests, 0u);  // zero PIM work end to end
    }
  }
}

TEST(ZonePruning, NothingPrunableMeansBitIdenticalStats) {
  // Uniform random data, predicate spanning most of the domain, every
  // attribute predicated: nothing to skip or synthesize — the pruned run
  // must be indistinguishable field by field.
  testutil::EngineFixture fx(EngineKind::kOneXb, 900, 23);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT f_gid, COUNT(*) AS c FROM t "
      "WHERE f_key >= 1 AND f_gid <= 8 AND f_val > 0 AND f_val2 <= 48 "
      "AND d_tag >= 0 GROUP BY f_gid ORDER BY f_gid");
  ExecOptions opts;
  opts.force_k = 3;
  const QueryOutput a = fx.engine->execute(q, opts);
  const QueryOutput b =
      fx.arm(fx.hcfg.sim_threads, /*prune=*/true).execute(q, opts);
  if (b.stats.pages_skipped == 0 && b.stats.pages_synthesized == 0 &&
      b.stats.group_pages_skipped == 0) {
    expect_same_rows(a, b);
    EXPECT_EQ(a.stats.total_ns, b.stats.total_ns);
    EXPECT_EQ(a.stats.phases.filter, b.stats.phases.filter);
    EXPECT_EQ(a.stats.phases.pim_gb, b.stats.phases.pim_gb);
    EXPECT_EQ(a.stats.phases.host_gb, b.stats.phases.host_gb);
    EXPECT_EQ(a.stats.energy_j, b.stats.energy_j);
    EXPECT_EQ(a.stats.wear_row_writes, b.stats.wear_row_writes);
    EXPECT_EQ(a.stats.pim_requests, b.stats.pim_requests);
    EXPECT_EQ(a.stats.host_lines, b.stats.host_lines);
  } else {
    // The data happened to allow pruning; parity still holds.
    expect_same_rows(a, b);
    expect_prune_invariants(a.stats, b.stats);
  }
}

TEST(ZonePruning, GroupPagePruningMatchesUnpruned) {
  // Group by the clustered key's high bits: each subgroup lives in a narrow
  // page range, so pim-gb skips (subgroup, page) pairs.
  for (const EngineKind kind :
       {EngineKind::kOneXb, EngineKind::kTwoXb, EngineKind::kPimdb}) {
    ClusteredFixture fx(kind, 1500, 31);
    const sql::BoundQuery q = sql::bind(
        sql::parse("SELECT f_gid, SUM(f_val) AS s FROM t WHERE f_gid <= 5 "
                   "GROUP BY f_gid ORDER BY f_gid"),
        fx.table.schema());
    ExecOptions opts;
    opts.force_k = 1000;  // clamp to kmax: pure pim-gb
    const QueryOutput a = fx.engine.execute(q, opts);
    const QueryOutput b = fx.pruned.execute(q, opts);
    expect_same_rows(a, b);
    expect_prune_invariants(a.stats, b.stats);
    EXPECT_GT(b.stats.group_pages_skipped, 0u) << engine_kind_name(kind);
    EXPECT_EQ(a.stats.group_pages_skipped, 0u);  // counters stay zero when off
  }
}

TEST(ZoneMaps, Version0DerivedStateMatchesTable) {
  // A freshly built store folds its sketches from the blocks it loads and
  // fills its distinct values from the crossbars; both must equal a fold of
  // the table itself. 1,100 records on 128-row crossbars, 4 per page: the
  // last 64-record word, crossbar (76 records) and page (76 records of 512)
  // are partial, and the last page's three other crossbars are empty.
  pim::PimConfig cfg = testutil::small_pim_config();
  cfg.crossbar_rows = 128;
  const rel::Table table = testutil::make_synthetic_table(1100, 23);
  const rel::Schema& schema = table.schema();
  for (const EngineKind kind : {EngineKind::kOneXb, EngineKind::kTwoXb}) {
    SCOPED_TRACE(engine_kind_name(kind));
    pim::PimModule module(cfg);
    const PimStore store(module, table,
                         {.two_crossbar = kind == EngineKind::kTwoXb});
    const ZoneMaps& zones = store.zone_maps();
    ASSERT_EQ(zones.crossbar_count(), 12u);
    for (std::size_t a = 0; a < schema.attribute_count(); ++a) {
      SCOPED_TRACE(schema.attribute(a).name);
      const bool bitmap = schema.attribute(a).bits <= kZoneBitmapMaxBits;
      std::vector<ZoneSketch> want(zones.crossbar_count());
      std::vector<std::uint64_t> codes;
      table.visit_column(a, [&](auto col) {
        for (std::size_t r = 0; r < col.size(); ++r) {
          ZoneSketch& s = want[r / cfg.crossbar_rows];
          s.min = std::min<std::uint64_t>(s.min, col[r]);
          s.max = std::max<std::uint64_t>(s.max, col[r]);
          if (bitmap) s.codes |= 1ULL << col[r];
          codes.push_back(col[r]);
        }
      });
      for (std::size_t x = 0; x < want.size(); ++x) {
        const ZoneSketch& got = zones.sketch(a, x);
        EXPECT_EQ(got.min, want[x].min) << "crossbar " << x;
        EXPECT_EQ(got.max, want[x].max) << "crossbar " << x;
        EXPECT_EQ(got.codes, want[x].codes) << "crossbar " << x;
      }
      std::sort(codes.begin(), codes.end());
      codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
      const auto& distinct = store.distinct_values(a);
      if (codes.size() > kMaxDistinct) {
        EXPECT_FALSE(distinct.has_value());
      } else {
        ASSERT_TRUE(distinct.has_value());
        EXPECT_EQ(*distinct, codes);
      }
    }
  }
}

TEST(ZonePruning, UpdateRefreshesSketches) {
  ClusteredFixture fx(EngineKind::kOneXb, 1200, 43);
  // f_val2 is 0..49 by construction; 60 is initially impossible.
  const sql::BoundQuery q = sql::bind(
      sql::parse("SELECT COUNT(*) AS c FROM t WHERE f_val2 = 60"),
      fx.table.schema());
  const QueryOutput before = fx.pruned.execute(q);
  EXPECT_EQ(before.rows.at(0).agg, 0);
  EXPECT_EQ(before.stats.pages_skipped, fx.store.pages_per_part());

  // In-place Algorithm-1 UPDATE writes the new value; the touched-crossbar
  // sketch refresh must widen the zone maps or the re-run would wrongly
  // skip every page (the stale-sketch bug this test pins).
  const std::size_t f_val2 = 3;
  std::vector<sql::BoundPredicate> where = {
      pred(sql::BoundPredicate::Kind::kLt, 0, 700)};  // f_key < 700
  {
    const auto lock = fx.store.lock_mutation();
    const UpdateStats up =
        pim_update(fx.store, fx.hcfg, where, f_val2, 60);
    EXPECT_GT(up.updated_records, 0u);
  }

  const QueryOutput pruned = fx.pruned.execute(q);
  const QueryOutput unpruned = fx.engine.execute(q);
  expect_same_rows(unpruned, pruned);
  EXPECT_GT(pruned.rows.at(0).agg, 0);
  // Only the untouched pages stay skippable.
  EXPECT_LT(pruned.stats.pages_skipped, fx.store.pages_per_part());
}

TEST(OrderBySelectivity, MostSelectiveFirstAndDeterministic) {
  ClusteredFixture fx(EngineKind::kOneXb, 1000, 77);
  std::vector<sql::BoundPredicate> filters = {
      pred(sql::BoundPredicate::Kind::kGe, 0, 0),     // f_key >= 0: sel 1.0
      pred(sql::BoundPredicate::Kind::kEq, 4, 2),     // d_tag == 2: selective
      pred(sql::BoundPredicate::Kind::kLe, 2, 1023),  // f_val <= max: sel 1.0
  };
  std::vector<double> est;
  const std::vector<sql::BoundPredicate> ordered =
      order_by_selectivity(filters, fx.store, &est);
  ASSERT_EQ(ordered.size(), 3u);
  ASSERT_EQ(est.size(), 3u);
  EXPECT_EQ(ordered[0].attr, 4u);  // the eq leads
  EXPECT_TRUE(std::is_sorted(est.begin(), est.end()));
  // Deterministic: a second call yields the identical order.
  std::vector<double> est2;
  const std::vector<sql::BoundPredicate> again =
      order_by_selectivity(filters, fx.store, &est2);
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    EXPECT_EQ(ordered[i].attr, again[i].attr);
    EXPECT_EQ(est[i], est2[i]);
  }
}

TEST(Explain, ShowsExecutionOrderSelectivityAndZones) {
  ClusteredFixture fx(EngineKind::kOneXb, 1000, 99);
  const sql::BoundQuery q = sql::bind(
      sql::parse("SELECT d_tag, COUNT(*) AS c FROM t "
                 "WHERE f_key < 500 AND f_gid >= 0 GROUP BY d_tag"),
      fx.table.schema());
  const std::string plan = explain_query(q, fx.store);
  EXPECT_NE(plan.find("est sel"), std::string::npos);
  EXPECT_NE(plan.find("ZONE MAP:"), std::string::npos);
  EXPECT_NE(plan.find("pages skipped"), std::string::npos);
  // The selective f_key range must be listed before the vacuous f_gid >= 0.
  EXPECT_LT(plan.find("f_key < 500"), plan.find("f_gid >= 0"));
}

}  // namespace
}  // namespace bbpim::engine
