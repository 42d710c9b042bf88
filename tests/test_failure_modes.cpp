// Failure-injection tests: resource exhaustion and misuse must fail with
// clear exceptions, never silently corrupt results.
#include <gtest/gtest.h>

#include "engine/pim_store.hpp"
#include "engine/query_exec.hpp"
#include "engine_test_util.hpp"

namespace bbpim::engine {
namespace {

TEST(FailureModes, ScratchExhaustionThrowsCleanly) {
  // A crossbar geometry with almost no scratch: the filter compiler's
  // temporaries cannot fit and the allocator must say so.
  pim::PimConfig cfg = testutil::small_pim_config();
  cfg.crossbar_cols = 52;  // 35 data bits + valid + 16 scratch (the minimum)
  pim::PimModule module(cfg);
  const rel::Table t = testutil::make_synthetic_table(100, 301);
  PimStore store(module, t);
  host::HostConfig hcfg;
  PimQueryEngine engine(EngineKind::kOneXb, store, hcfg);
  // Wide BETWEEN on a 12-bit field plus extra predicates needs more than 16
  // columns of live scratch (result accumulators + comparison temps).
  const sql::BoundQuery q = sql::bind(
      sql::parse("SELECT SUM(f_val) AS s FROM t WHERE f_key BETWEEN 100 AND "
                 "3000 AND f_val BETWEEN 10 AND 900 AND f_val2 > 3 "
                 "AND f_gid IN (1, 2, 3)"),
      t.schema());
  EXPECT_THROW(engine.execute(q), std::runtime_error);
}

TEST(FailureModes, RecordWiderThanRowExplains) {
  pim::PimConfig cfg = testutil::small_pim_config();
  cfg.crossbar_cols = 32;  // record is 35 bits
  pim::PimModule module(cfg);
  const rel::Table t = testutil::make_synthetic_table(10, 302);
  try {
    PimStore store(module, t);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("vertical partitioning"),
              std::string::npos);
  }
}

TEST(FailureModes, AggregateOnDimensionPartRejected) {
  // two-xb requires the aggregated attribute in the fact part; the error
  // must name the attribute. d_tag is the synthetic relation's dimension
  // attribute, so it lives in part 1.
  pim::PimModule module(testutil::small_pim_config());
  const rel::Table t = testutil::make_synthetic_table(300, 303);
  PimStore store(module, t, {.two_crossbar = true});
  host::HostConfig hcfg;
  PimQueryEngine engine(EngineKind::kTwoXb, store, hcfg);
  const sql::BoundQuery q = sql::bind(
      sql::parse("SELECT SUM(d_tag) AS s FROM t"), t.schema());
  try {
    engine.execute(q);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("d_tag"), std::string::npos);
  }
}

TEST(FailureModes, ModuleCapacityEnforced) {
  pim::PimConfig cfg = testutil::small_pim_config();
  cfg.capacity_bytes = cfg.page_bytes();  // room for exactly one page
  pim::PimModule module(cfg);
  const rel::Table t = testutil::make_synthetic_table(
      cfg.records_per_page() + 1, 304);  // needs two pages
  EXPECT_THROW(PimStore store(module, t), std::runtime_error);
}

}  // namespace
}  // namespace bbpim::engine
