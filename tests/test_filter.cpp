// Tests for the filter compiler: WHERE conjunctions lowered to bulk-bitwise
// programs, checked against scalar evaluation on every record, including
// validity-bit handling on partial pages and per-part compilation.
#include <gtest/gtest.h>

#include "engine/filter_compiler.hpp"
#include "engine_test_util.hpp"
#include "pim/controller.hpp"
#include "pim/wordeval.hpp"

namespace bbpim::engine {
namespace {

using testutil::EngineFixture;

/// Executes a compiled filter on all pages and collects the result bits.
std::vector<bool> run_filter(PimStore& store, int part,
                             const CompiledFilter& f) {
  std::vector<bool> out;
  for (std::size_t p = 0; p < store.pages_per_part(); ++p) {
    pim::Page& page = store.page(part, p);
    for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
      page.crossbar(x).execute(f.program.gates);
    }
    for (std::uint32_t i = 0; i < store.records_per_page(); ++i) {
      const auto c = page.locate(i);
      out.push_back(page.crossbar(c.crossbar).bit(c.row, f.result_col));
    }
  }
  return out;
}

bool scalar_matches(const rel::Table& t, std::size_t row,
                    const std::vector<sql::BoundPredicate>& filters) {
  for (const auto& p : filters) {
    if (p.kind == sql::BoundPredicate::Kind::kAlways) continue;
    if (!p.matches(t.value(row, p.attr))) return false;
  }
  return true;
}

/// A subgroup key as a bound WHERE, lowered by emit_conjunction on `part`.
/// Returns the program (validity not folded in) and its result column.
std::optional<CompiledFilter> compile_key(EngineFixture& fx,
                                          const std::string& where, int part,
                                          pim::ColumnAlloc& alloc) {
  const sql::BoundQuery q =
      fx.bind_sql("SELECT SUM(f_val) FROM t WHERE " + where);
  pim::ProgramBuilder pb(alloc);
  const std::optional<std::uint16_t> m =
      emit_conjunction(pb, q.filters, fx.store->layout(part));
  if (!m) {
    EXPECT_TRUE(pb.take().gates.empty());
    return std::nullopt;
  }
  CompiledFilter f;
  f.program = pb.take();
  f.result_col = *m;
  return f;
}

TEST(FilterCompiler, ConjunctionMatchesScalar) {
  EngineFixture fx(EngineKind::kOneXb, 700, 21);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT SUM(f_val) FROM t WHERE f_key < 2000 AND f_gid BETWEEN 1 AND 3 "
      "AND f_val2 >= 10");
  pim::ColumnAlloc alloc = fx.store->layout(0).make_alloc();
  const CompiledFilter f = compile_filter(q.filters, fx.store->layout(0), alloc);
  EXPECT_EQ(f.predicate_count, 3u);
  EXPECT_FALSE(f.program.gates.empty());

  const std::vector<bool> got = run_filter(*fx.store, 0, f);
  for (std::size_t r = 0; r < fx.table->row_count(); ++r) {
    ASSERT_EQ(got[r], scalar_matches(*fx.table, r, q.filters)) << "row " << r;
  }
  // Padding rows on the tail page must never pass (validity bit).
  for (std::size_t r = fx.table->row_count(); r < got.size(); ++r) {
    ASSERT_FALSE(got[r]) << "padding row " << r;
  }
  alloc.release(f.result_col);
  EXPECT_EQ(alloc.available(),
            static_cast<std::size_t>(fx.store->layout(0).scratch_cols()));
}

TEST(FilterCompiler, EmptyConjunctionIsValidityCopy) {
  EngineFixture fx(EngineKind::kOneXb, 300, 22);
  pim::ColumnAlloc alloc = fx.store->layout(0).make_alloc();
  const CompiledFilter f = compile_filter({}, fx.store->layout(0), alloc);
  EXPECT_EQ(f.predicate_count, 0u);
  const std::vector<bool> got = run_filter(*fx.store, 0, f);
  for (std::size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r], r < fx.table->row_count());
  }
}

TEST(FilterCompiler, NeverPredicateSelectsNothing) {
  EngineFixture fx(EngineKind::kOneXb, 300, 23);
  sql::BoundPredicate never;
  never.kind = sql::BoundPredicate::Kind::kNever;
  pim::ColumnAlloc alloc = fx.store->layout(0).make_alloc();
  const CompiledFilter f =
      compile_filter({never}, fx.store->layout(0), alloc);
  for (const bool b : run_filter(*fx.store, 0, f)) ASSERT_FALSE(b);
}

TEST(FilterCompiler, PerPartCompilationSkipsForeignAttrs) {
  EngineFixture fx(EngineKind::kTwoXb, 400, 24);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT SUM(f_val) FROM t WHERE f_key < 3000 AND d_tag = 2");
  // Part 0 sees only the f_key predicate; part 1 only the d_tag one.
  pim::ColumnAlloc a0 = fx.store->layout(0).make_alloc();
  pim::ColumnAlloc a1 = fx.store->layout(1).make_alloc();
  const CompiledFilter f0 = compile_filter(q.filters, fx.store->layout(0), a0);
  const CompiledFilter f1 = compile_filter(q.filters, fx.store->layout(1), a1);
  EXPECT_EQ(f0.predicate_count, 1u);
  EXPECT_EQ(f1.predicate_count, 1u);

  const std::vector<bool> g0 = run_filter(*fx.store, 0, f0);
  const std::vector<bool> g1 = run_filter(*fx.store, 1, f1);
  for (std::size_t r = 0; r < fx.table->row_count(); ++r) {
    ASSERT_EQ(g0[r] && g1[r], scalar_matches(*fx.table, r, q.filters));
  }
}

TEST(FilterCompiler, WordProgramMatchesGateProgram) {
  // The word-level semantic twin must reproduce the gate program's result
  // column bit for bit, across every predicate kind and edge case.
  EngineFixture fx(EngineKind::kOneXb, 500, 29);
  const std::vector<std::string> wheres = {
      "f_key = 100",
      "f_key < 2000",
      "f_key <= 2000 AND f_gid >= 2",
      "f_gid > 3",
      "f_key BETWEEN 100 AND 3000",
      "f_gid IN (1, 3, 5)",
      "f_key = 999999",  // out of range -> never
      "f_key >= 0",      // always true on the domain
      "f_val2 < 50 AND d_tag = 2 AND f_gid BETWEEN 0 AND 9",
  };
  for (const std::string& where : wheres) {
    const sql::BoundQuery q =
        fx.bind_sql("SELECT SUM(f_val) FROM t WHERE " + where);
    pim::ColumnAlloc alloc = fx.store->layout(0).make_alloc();
    const CompiledFilter f = compile_filter(q.filters, fx.store->layout(0), alloc);
    for (std::uint32_t x = 0; x < 2; ++x) {
      pim::Crossbar gate = fx.store->page(0, 0).crossbar(x);
      pim::Crossbar word = gate;
      gate.execute(f.program.gates);
      pim::execute_words(word, f.program.words);
      EXPECT_EQ(word.column(f.result_col), gate.column(f.result_col))
          << "WHERE " << where << " crossbar " << x;
    }
  }

  // Subgroup matches too (the pim-gb hot path): a conjunction with no
  // validity fold.
  pim::ColumnAlloc alloc = fx.store->layout(0).make_alloc();
  const std::optional<CompiledFilter> m =
      compile_key(fx, "f_gid = 2 AND d_tag = 2", 0, alloc);
  ASSERT_TRUE(m.has_value());
  pim::Crossbar gate = fx.store->page(0, 0).crossbar(0);
  pim::Crossbar word = gate;
  gate.execute(m->program.gates);
  pim::execute_words(word, m->program.words);
  EXPECT_EQ(word.column(m->result_col), gate.column(m->result_col));
}

TEST(FilterCompiler, NeverPredicateOnForeignPartAttr) {
  // A statically-false predicate is compiled on every part (each part's
  // result column must be false), including parts that do not hold the
  // predicate's attribute — the field lookup must not be consulted.
  EngineFixture fx(EngineKind::kTwoXb, 300, 27);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT SUM(f_val) FROM t WHERE d_tag BETWEEN 5 AND 2");  // lo > hi
  const engine::QueryOutput out = fx.engine->execute(q);
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_EQ(out.rows[0].agg, 0);
  EXPECT_EQ(out.stats.selected_records, 0u);
}

TEST(FilterCache, HitReplaysAllocatorEffectAndSkipsRecompile) {
  EngineFixture fx(EngineKind::kOneXb, 300, 23);
  const sql::BoundQuery q =
      fx.bind_sql("SELECT SUM(f_val) FROM t WHERE f_key < 1500 AND f_gid = 2");
  FilterCache cache;

  pim::ColumnAlloc a1 = fx.store->layout(0).make_alloc();
  const auto first = cache.get_or_compile(q.filters, 0, fx.store->layout(0), a1);
  EXPECT_EQ(cache.miss_count(), 1u);
  EXPECT_EQ(cache.hit_count(), 0u);

  // Same predicates against an identically fresh allocator: a hit that
  // leaves the allocator in the exact state a recompilation would have.
  pim::ColumnAlloc a2 = fx.store->layout(0).make_alloc();
  const auto second =
      cache.get_or_compile(q.filters, 0, fx.store->layout(0), a2);
  EXPECT_EQ(cache.hit_count(), 1u);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(a2.available(), a1.available());
  EXPECT_EQ(a2.state_key(), a1.state_key());
  // The result column is owned: releasing it restores a fresh allocator.
  a2.release(second->result_col);
  EXPECT_EQ(a2.state_key(), fx.store->layout(0).make_alloc().state_key());

  // A different allocator state (column taken up front) is a different key —
  // the cached program's scratch columns would be unsafe to replay there.
  pim::ColumnAlloc a3 = fx.store->layout(0).make_alloc();
  a3.alloc();
  const auto third = cache.get_or_compile(q.filters, 0, fx.store->layout(0), a3);
  EXPECT_EQ(cache.miss_count(), 2u);

  // Different predicates miss too.
  const sql::BoundQuery q2 =
      fx.bind_sql("SELECT SUM(f_val) FROM t WHERE f_key < 1501 AND f_gid = 2");
  pim::ColumnAlloc a4 = fx.store->layout(0).make_alloc();
  cache.get_or_compile(q2.filters, 0, fx.store->layout(0), a4);
  EXPECT_EQ(cache.miss_count(), 3u);

  // Cached and recompiled programs select identical records.
  const std::vector<bool> got = run_filter(*fx.store, 0, *second);
  for (std::size_t r = 0; r < fx.table->row_count(); ++r) {
    ASSERT_EQ(got[r], scalar_matches(*fx.table, r, q.filters));
  }
}

TEST(FilterCache, ExecutionCountsOnlyItsOwnLookups) {
  // Each execution reports one hit or one miss per part it compiled, from
  // its own lookups. The store's cache is shared (every view of a builder
  // and every worker use it), so a lookup made elsewhere between or during
  // executions must not show up in a query's counts.
  for (const EngineKind kind : {EngineKind::kOneXb, EngineKind::kTwoXb}) {
    EngineFixture fx(kind, 300, 23);
    const std::size_t parts = static_cast<std::size_t>(fx.store->parts());
    const sql::BoundQuery q = fx.bind_sql(
        "SELECT SUM(f_val) FROM t WHERE f_key < 1500 AND f_gid = 2");
    const QueryOutput first = fx.engine->execute(q);
    EXPECT_EQ(first.stats.filter_cache_misses, parts);
    EXPECT_EQ(first.stats.filter_cache_hits, 0u);

    // Another worker's lookups: one miss and one hit on the shared cache.
    const sql::BoundQuery other =
        fx.bind_sql("SELECT SUM(f_val) FROM t WHERE f_key < 7");
    bool hit = true;
    for (int i = 0; i < 2; ++i) {
      pim::ColumnAlloc alloc = fx.store->layout(0).make_alloc();
      fx.store->filter_cache().get_or_compile(other.filters, 0,
                                              fx.store->layout(0), alloc, &hit);
      EXPECT_EQ(hit, i == 1);
    }

    const QueryOutput second = fx.engine->execute(q);
    EXPECT_EQ(second.stats.filter_cache_hits, parts);
    EXPECT_EQ(second.stats.filter_cache_misses, 0u);
    EXPECT_EQ(fx.store->filter_cache().hit_count(), parts + 1);
    EXPECT_EQ(fx.store->filter_cache().miss_count(), parts + 1);
  }
}

TEST(ColumnAlloc, AcquireMarksSpecificColumn) {
  pim::ColumnAlloc alloc(10, 20);
  alloc.acquire(14);
  EXPECT_THROW(alloc.acquire(14), std::logic_error);
  EXPECT_THROW(alloc.acquire(9), std::out_of_range);
  EXPECT_THROW(alloc.acquire(20), std::out_of_range);
  // First-fit allocation steps around the acquired column.
  for (std::uint16_t c = 10; c < 20; ++c) {
    if (c == 14) continue;
    EXPECT_EQ(alloc.alloc(), c);
  }
  EXPECT_THROW(alloc.alloc(), std::runtime_error);
  alloc.release(14);
  EXPECT_EQ(alloc.alloc(), 14);
}

TEST(GroupMatch, EqualityOnKeyMatchesScalar) {
  EngineFixture fx(EngineKind::kOneXb, 300, 25);
  pim::ColumnAlloc alloc = fx.store->layout(0).make_alloc();
  const std::optional<CompiledFilter> f =
      compile_key(fx, "f_gid = 2 AND d_tag = 2", 0, alloc);
  ASSERT_TRUE(f.has_value());
  const std::vector<bool> got = run_filter(*fx.store, 0, *f);
  for (std::size_t r = 0; r < fx.table->row_count(); ++r) {
    const bool expect =
        fx.table->value(r, 1) == 2 && fx.table->value(r, 4) == 2;
    ASSERT_EQ(got[r], expect);
  }
}

TEST(GroupMatch, PartWithoutKeyAttrsEmitsNothing) {
  // Two-xb: d_tag lives in part 1. Part 0 holds none of the key, so it
  // emits no gate and allocates no column; part 1 matches the key.
  EngineFixture fx(EngineKind::kTwoXb, 300, 25);
  pim::ColumnAlloc alloc0 = fx.store->layout(0).make_alloc();
  const std::string before = alloc0.state_key();
  EXPECT_FALSE(compile_key(fx, "d_tag = 3", 0, alloc0).has_value());
  EXPECT_EQ(alloc0.state_key(), before);

  pim::ColumnAlloc alloc1 = fx.store->layout(1).make_alloc();
  const std::optional<CompiledFilter> f1 =
      compile_key(fx, "d_tag = 3", 1, alloc1);
  ASSERT_TRUE(f1.has_value());
  const std::vector<bool> got = run_filter(*fx.store, 1, *f1);
  for (std::size_t r = 0; r < fx.table->row_count(); ++r) {
    ASSERT_EQ(got[r], fx.table->value(r, 4) == 3) << "row " << r;
  }
}

}  // namespace
}  // namespace bbpim::engine
