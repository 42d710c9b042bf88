// Randomized query fuzzing: the strongest correctness net in the suite.
//
// Generates hundreds of random-but-valid queries (random predicate
// conjunctions over every comparison kind, random GROUP BY sets, random
// aggregate expressions and functions, random ORDER BY) against randomized
// synthetic relations, and checks every engine variant and every forced
// pim/host split against the scalar reference. Any divergence in the
// microcode builders, the layout, the aggregation passes, or the planner's
// bookkeeping shows up here.
#include <gtest/gtest.h>

#include <sstream>

#include "baseline/reference.hpp"
#include "engine/prejoin.hpp"
#include "engine_test_util.hpp"

namespace bbpim::engine {
namespace {

using baseline::scan_execute;

/// Builds a random BoundQuery directly (no SQL detour) over the synthetic
/// schema of engine_test_util.hpp:
///   0 f_key:12  1 f_gid:4  2 f_val:10  3 f_val2:6  4 d_tag:3
sql::BoundQuery random_query(Rng& rng) {
  sql::BoundQuery q;

  // --- WHERE: 0-3 random predicates --------------------------------------
  const std::size_t n_preds = rng.next_below(4);
  for (std::size_t i = 0; i < n_preds; ++i) {
    sql::BoundPredicate p;
    const std::size_t attr = rng.next_below(5);
    const std::uint32_t bits[] = {12, 4, 10, 6, 3};
    const std::uint64_t max = (1ULL << bits[attr]) - 1;
    p.attr = attr;
    switch (rng.next_below(7)) {
      case 0: p.kind = sql::BoundPredicate::Kind::kEq; break;
      case 1: p.kind = sql::BoundPredicate::Kind::kLt; break;
      case 2: p.kind = sql::BoundPredicate::Kind::kLe; break;
      case 3: p.kind = sql::BoundPredicate::Kind::kGt; break;
      case 4: p.kind = sql::BoundPredicate::Kind::kGe; break;
      case 5: p.kind = sql::BoundPredicate::Kind::kBetween; break;
      default: p.kind = sql::BoundPredicate::Kind::kIn; break;
    }
    p.v1 = rng.next_below(max + 1);
    if (p.kind == sql::BoundPredicate::Kind::kBetween) {
      p.v2 = rng.next_below(max + 1);
      if (p.v2 < p.v1) std::swap(p.v1, p.v2);
    }
    if (p.kind == sql::BoundPredicate::Kind::kIn) {
      const std::size_t n = 1 + rng.next_below(4);
      for (std::size_t j = 0; j < n; ++j) {
        p.in_values.push_back(rng.next_below(max + 1));
      }
      std::sort(p.in_values.begin(), p.in_values.end());
      p.in_values.erase(
          std::unique(p.in_values.begin(), p.in_values.end()),
          p.in_values.end());
    }
    q.filters.push_back(std::move(p));
  }

  // --- GROUP BY: subset of the low-cardinality attrs ----------------------
  if (rng.next_below(4) != 0) {  // 75% of queries group
    if (rng.next_below(2)) q.group_by.push_back(1);  // f_gid
    if (rng.next_below(2)) q.group_by.push_back(4);  // d_tag
    if (q.group_by.empty()) q.group_by.push_back(rng.next_below(2) ? 1 : 4);
  }

  // --- Aggregate -----------------------------------------------------------
  switch (rng.next_below(6)) {
    case 0:
      q.agg_func = sql::AggFunc::kCount;
      break;
    case 1:
      q.agg_func = sql::AggFunc::kMin;
      q.agg_expr = {sql::Expr::Kind::kColumn, 2, 0};
      break;
    case 2:
      q.agg_func = sql::AggFunc::kMax;
      q.agg_expr = {sql::Expr::Kind::kColumn, 2, 0};
      break;
    case 3:
      q.agg_func = sql::AggFunc::kSum;
      q.agg_expr = {sql::Expr::Kind::kMul, 2, 3};  // f_val * f_val2
      break;
    case 4:
      q.agg_func = sql::AggFunc::kSum;
      q.agg_expr = {sql::Expr::Kind::kSub, 2, 3};
      break;
    default:
      q.agg_func = sql::AggFunc::kSum;
      q.agg_expr = {sql::Expr::Kind::kColumn, 2, 0};
      break;
  }

  // --- ORDER BY -------------------------------------------------------------
  for (std::size_t g = 0; g < q.group_by.size(); ++g) {
    if (rng.next_below(2)) {
      q.order_by.push_back({false, g, rng.next_below(2) == 0});
    }
  }
  if (!q.group_by.empty() && rng.next_below(3) == 0) {
    q.order_by.push_back({true, 0, true});  // agg desc
  }
  return q;
}

std::string describe(const sql::BoundQuery& q) {
  std::ostringstream ss;
  ss << "filters=" << q.filters.size() << " group_by={";
  for (const std::size_t g : q.group_by) ss << g << ",";
  ss << "} agg=" << static_cast<int>(q.agg_func)
     << " expr_kind=" << static_cast<int>(q.agg_expr.kind);
  return ss.str();
}

class FuzzCase : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzCase, AllEnginesMatchReference) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const std::size_t rows = 300 + rng.next_below(700);

  for (const EngineKind kind : engine::kAllEngineKinds) {
    testutil::EngineFixture fx(kind, rows, seed);
    for (int qi = 0; qi < 6; ++qi) {
      const sql::BoundQuery q = random_query(rng);
      const auto ref = scan_execute(*fx.table, q);
      // Random forced split exercises pim-gb, host-gb, and mixed paths.
      ExecOptions opts;
      opts.force_k = rng.next_below(4) == 0
                         ? std::size_t{1000}  // clamp to kmax: pure pim
                         : rng.next_below(5);
      const QueryOutput out = fx.engine->execute(q, opts);
      ASSERT_EQ(out.rows.size(), ref.rows.size())
          << engine_kind_name(kind) << " seed=" << seed << " " << describe(q);
      for (std::size_t i = 0; i < out.rows.size(); ++i) {
        ASSERT_EQ(out.rows[i].group, ref.rows[i].group)
            << engine_kind_name(kind) << " seed=" << seed << " row=" << i
            << " " << describe(q);
        ASSERT_EQ(out.rows[i].agg, ref.rows[i].agg)
            << engine_kind_name(kind) << " seed=" << seed << " row=" << i
            << " " << describe(q);
      }
      ASSERT_EQ(out.stats.selected_records, ref.selected_records);

      // Zone-map pruning parity: same query, prune on — rows must be
      // byte-identical, result-semantic stats must match exactly, and when
      // the sketches found nothing to skip the cost stats must be
      // bit-identical too (pages that execute run the exact same programs).
      const QueryOutput pr =
          fx.arm(fx.hcfg.sim_threads, /*prune=*/true).execute(q, opts);
      ASSERT_EQ(pr.rows.size(), out.rows.size())
          << "prune " << engine_kind_name(kind) << " seed=" << seed << " "
          << describe(q);
      for (std::size_t i = 0; i < pr.rows.size(); ++i) {
        ASSERT_EQ(pr.rows[i].group, out.rows[i].group) << "prune row " << i;
        ASSERT_EQ(pr.rows[i].agg, out.rows[i].agg) << "prune row " << i;
      }
      ASSERT_EQ(pr.stats.selected_records, out.stats.selected_records);
      ASSERT_EQ(pr.stats.selectivity, out.stats.selectivity);
      ASSERT_EQ(pr.stats.total_subgroups, out.stats.total_subgroups);
      ASSERT_EQ(pr.stats.sampled_subgroups, out.stats.sampled_subgroups);
      ASSERT_EQ(pr.stats.pim_subgroups, out.stats.pim_subgroups);
      ASSERT_EQ(pr.stats.n_chunks, out.stats.n_chunks);
      ASSERT_EQ(pr.stats.s_chunks, out.stats.s_chunks);
      ASSERT_EQ(pr.stats.selectivity_estimate, out.stats.selectivity_estimate);
      ASSERT_EQ(pr.stats.candidates_complete, out.stats.candidates_complete);
      ASSERT_EQ(pr.stats.candidate_masses, out.stats.candidate_masses);
      ASSERT_LE(pr.stats.total_ns, out.stats.total_ns);
      ASSERT_LE(pr.stats.energy_j, out.stats.energy_j);
      ASSERT_LE(pr.stats.pim_requests, out.stats.pim_requests);
      if (pr.stats.pages_skipped == 0 && pr.stats.pages_synthesized == 0 &&
          pr.stats.group_pages_skipped == 0) {
        // Nothing pruned: every page executed, so every cost field is
        // bit-identical ("identical stats on the pages that execute").
        ASSERT_EQ(pr.stats.total_ns, out.stats.total_ns)
            << engine_kind_name(kind) << " seed=" << seed << " "
            << describe(q);
        ASSERT_EQ(pr.stats.energy_j, out.stats.energy_j);
        ASSERT_EQ(pr.stats.wear_row_writes, out.stats.wear_row_writes);
        ASSERT_EQ(pr.stats.peak_chip_w, out.stats.peak_chip_w);
        ASSERT_EQ(pr.stats.host_lines, out.stats.host_lines);
        ASSERT_EQ(pr.stats.pim_requests, out.stats.pim_requests);
      }
    }
  }
}

/// A fuzzed UPDATE-then-query sequence that a stale zone-map sketch would
/// fail: the update writes values the sketches previously refuted, so a
/// pruned re-run that skipped the rewritten pages would lose rows.
TEST_P(FuzzCase, PrunedQueriesStayExactAcrossUpdates) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 7919 + 3);
  const std::size_t rows = 300 + rng.next_below(500);

  testutil::EngineFixture fx(EngineKind::kOneXb, rows, seed);
  for (int round = 0; round < 3; ++round) {
    // UPDATE f_val2 <- a fresh value on a random f_key range (same part).
    const std::uint64_t value = 50 + rng.next_below(14);  // 50..63: new codes
    sql::BoundPredicate where;
    where.kind = sql::BoundPredicate::Kind::kBetween;
    where.attr = 0;  // f_key
    where.v1 = rng.next_below(2048);
    where.v2 = where.v1 + 1024 + rng.next_below(1024);  // >= 1/4 of the domain
    {
      const auto lock = fx.store->lock_mutation();
      pim_update(*fx.store, fx.hcfg, {where}, /*attr=*/3, value);
    }

    // The query targets the updated value: stale sketches would skip the
    // rewritten crossbars and report too few rows.
    sql::BoundQuery q;
    sql::BoundPredicate eq;
    eq.kind = sql::BoundPredicate::Kind::kEq;
    eq.attr = 3;
    eq.v1 = value;
    q.filters.push_back(eq);
    q.agg_func = sql::AggFunc::kCount;

    const QueryOutput a = fx.engine->execute(q);
    const QueryOutput b =
        fx.arm(fx.hcfg.sim_threads, /*prune=*/true).execute(q);
    ASSERT_EQ(a.rows.size(), b.rows.size()) << "seed=" << seed;
    ASSERT_EQ(a.rows.at(0).agg, b.rows.at(0).agg)
        << "seed=" << seed << " round=" << round << " value=" << value;
    ASSERT_EQ(a.stats.selected_records, b.stats.selected_records);
    ASSERT_GT(b.stats.selected_records, 0u);  // the update really landed
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCase,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace bbpim::engine
