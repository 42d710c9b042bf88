// End-to-end SQL UPDATE through the bbpim::db facade: parsing, binding,
// writer-gate commit, catch-up replay across executors, UpdateStats-backed
// ResultSets, mutation-safe caching (the stale-FilterCache regression), and
// model-cache fingerprint stability under mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "db/db.hpp"
#include "engine_test_util.hpp"

namespace bbpim {
namespace {

db::SessionOptions fast_options() {
  db::SessionOptions opts;
  opts.pim = testutil::small_pim_config();
  opts.pim.crossbar_cols = 256;  // fitting campaign needs the wider rows
  return opts;
}

struct UpdateFixture {
  db::Database database;
  db::Session session;

  explicit UpdateFixture(std::size_t rows = 600, std::uint64_t seed = 77,
                         db::SessionOptions opts = fast_options())
      : session([&]() -> db::Database& {
          database.register_table(testutil::make_synthetic_table(rows, seed));
          return database;
        }(), std::move(opts)) {}

  /// Matching-record count by scanning the PIM store (not the immutable
  /// backing table), i.e. current truth.
  std::size_t count_where(engine::EngineKind kind, std::size_t attr,
                          std::uint64_t value) {
    engine::PimStore& store = session.pim_engine(kind).store();
    std::size_t n = 0;
    for (std::size_t r = 0; r < store.record_count(); ++r) {
      n += store.read_attr(r, attr) == value;
    }
    return n;
  }
};

// ---------------------------------------------------------------------------
// The tentpole: UPDATE ... SET ... WHERE ... through Session
// ---------------------------------------------------------------------------

TEST(UpdatePath, ExecutesThroughSessionOnOneXb) {
  UpdateFixture fx;
  const db::ResultSet before =
      fx.session.execute("SELECT COUNT(*) FROM t WHERE d_tag = 2",
                         db::BackendKind::kOneXb);
  const std::int64_t tagged2 = before.integer(0, 0);
  ASSERT_GT(tagged2, 0);

  const db::ResultSet up = fx.session.execute(
      "UPDATE t SET d_tag = 7 WHERE d_tag = 2", db::BackendKind::kOneXb);
  EXPECT_TRUE(up.is_update());
  EXPECT_EQ(up.row_count(), 0u);
  EXPECT_EQ(up.updated_records(), static_cast<std::size_t>(tagged2));
  EXPECT_GT(up.update_stats().total_ns, 0.0);
  EXPECT_EQ(up.data_version(), 1u);

  const db::ResultSet after7 = fx.session.execute(
      "SELECT COUNT(*) FROM t WHERE d_tag = 7", db::BackendKind::kOneXb);
  EXPECT_EQ(after7.integer(0, 0), tagged2);
  EXPECT_EQ(after7.data_version(), 1u);
  const db::ResultSet after2 = fx.session.execute(
      "SELECT COUNT(*) FROM t WHERE d_tag = 2", db::BackendKind::kOneXb);
  EXPECT_EQ(after2.integer(0, 0), 0);
}

TEST(UpdatePath, LateExecutorsCatchUpFromTheLog) {
  UpdateFixture fx;
  // Commit through one_xb BEFORE the two_xb store exists.
  const db::ResultSet up = fx.session.execute(
      "UPDATE t SET d_tag = 7 WHERE d_tag = 3", db::BackendKind::kOneXb);
  ASSERT_GT(up.updated_records(), 0u);

  // First touch of two_xb loads from the immutable table, then replays the
  // committed log before executing.
  const db::ResultSet two = fx.session.execute(
      "SELECT COUNT(*) FROM t WHERE d_tag = 7", db::BackendKind::kTwoXb);
  EXPECT_EQ(static_cast<std::size_t>(two.integer(0, 0)),
            up.updated_records());
  EXPECT_EQ(two.data_version(), 1u);

  // And the pimdb variant agrees.
  const db::ResultSet pdb = fx.session.execute(
      "SELECT COUNT(*) FROM t WHERE d_tag = 7", db::BackendKind::kPimdb);
  EXPECT_EQ(static_cast<std::size_t>(pdb.integer(0, 0)),
            up.updated_records());
}

TEST(UpdatePath, PreparedUpdateReexecutesAndCompounds) {
  UpdateFixture fx;
  db::PreparedStatement st =
      fx.session.prepare("UPDATE t SET f_val2 = 49 WHERE f_gid = 0");
  EXPECT_TRUE(st.is_update());
  EXPECT_EQ(st.bound_update().value, 49u);
  EXPECT_THROW(st.bound(), std::logic_error);

  const db::ResultSet first = st.execute(db::BackendKind::kOneXb);
  EXPECT_EQ(first.data_version(), 1u);
  EXPECT_GT(first.updated_records(), 0u);
  // Re-executing the same statement matches no new records (all rewritten)
  // but still commits a log entry: versions are execution-ordered.
  const db::ResultSet second = st.execute(db::BackendKind::kOneXb);
  EXPECT_EQ(second.data_version(), 2u);
  EXPECT_EQ(second.updated_records(), first.updated_records());
}

// ---------------------------------------------------------------------------
// The regression this PR exists for: cached plans + cached filter programs
// must serve FRESH results after an in-place mutation.
// ---------------------------------------------------------------------------

TEST(UpdatePath, StaleFilterCacheRegression) {
  UpdateFixture fx;
  // Pure-PIM grouped execution: force_k covers every candidate subgroup, so
  // the host-gb sweep never runs and results come solely from the planner's
  // candidate enumeration — the path that trusted load-time distinct stats.
  engine::ExecOptions all_pim;
  all_pim.force_k = 1000;
  const std::string sql =
      "SELECT d_tag, COUNT(*) FROM t GROUP BY d_tag ORDER BY d_tag";
  const db::ResultSet before =
      fx.session.execute(sql, db::BackendKind::kOneXb, all_pim);
  std::int64_t total_before = 0;
  bool saw7_before = false;
  for (std::size_t r = 0; r < before.row_count(); ++r) {
    total_before += before.integer(r, 1);
    saw7_before |= before.code(r, 0) == 7;
  }
  ASSERT_FALSE(saw7_before);  // gid % 7 never produces 7

  // Mutate the filtered/grouped attribute in place, then re-run the SAME
  // SQL text: the plan cache and the compiled-filter cache both hit.
  const db::ResultSet up = fx.session.execute(
      "UPDATE t SET d_tag = 7 WHERE d_tag = 1", db::BackendKind::kOneXb);
  ASSERT_GT(up.updated_records(), 0u);

  const db::ResultSet after =
      fx.session.execute(sql, db::BackendKind::kOneXb, all_pim);
  std::int64_t total_after = 0;
  std::int64_t count7 = 0;
  bool saw1 = false;
  for (std::size_t r = 0; r < after.row_count(); ++r) {
    total_after += after.integer(r, 1);
    if (after.code(r, 0) == 7) count7 = after.integer(r, 1);
    saw1 |= after.code(r, 0) == 1;
  }
  // Stale caches lose the new group entirely (the bug this pins): the
  // record total silently drops. Fresh caches preserve mass and surface
  // the new value.
  EXPECT_EQ(total_after, total_before);
  EXPECT_EQ(count7, static_cast<std::int64_t>(up.updated_records()));
  EXPECT_FALSE(saw1);

  // Compiled programs never read the data, so the UPDATE left the cached
  // WHERE program valid and the re-run hit it.
  EXPECT_GE(after.stats().filter_cache_hits, 1u);
}

// ---------------------------------------------------------------------------
// Validation and host-baseline behavior
// ---------------------------------------------------------------------------

TEST(UpdatePath, RejectsUnencodableAndCrossPartUpdates) {
  UpdateFixture fx;
  // d_tag is 3 bits: 9 does not fit the packed domain (bind-time).
  EXPECT_THROW(fx.session.execute("UPDATE t SET d_tag = 9",
                                  db::BackendKind::kOneXb),
               std::invalid_argument);
  // Cross-part by provenance (d_tag is a dimension attribute, part 1; the
  // f_* attributes are the fact's, part 0) is rejected on EVERY backend —
  // the shared log must stay replayable on the two-xb variant, so the
  // one-part store cannot accept it either.
  EXPECT_THROW(
      fx.session.execute("UPDATE t SET d_tag = 5 WHERE f_key < 100",
                         db::BackendKind::kOneXb),
      std::invalid_argument);
  // Nothing was committed by the failed attempts.
  EXPECT_EQ(fx.database.update_version(fx.database.default_target()), 0u);
}

TEST(UpdatePath, HostBaselinesRejectUpdatesAndStaleReads) {
  UpdateFixture fx;
  EXPECT_THROW(fx.session.execute("UPDATE t SET d_tag = 5",
                                  db::BackendKind::kReference),
               std::invalid_argument);
  EXPECT_THROW(fx.session.execute("UPDATE t SET d_tag = 5",
                                  db::BackendKind::kColumnar),
               std::invalid_argument);

  // Before any update the baselines serve normally.
  const db::ResultSet ok = fx.session.execute(
      "SELECT COUNT(*) FROM t WHERE d_tag = 2", db::BackendKind::kReference);
  EXPECT_GT(ok.integer(0, 0), 0);

  // After a PIM update they refuse rather than serve the stale table.
  fx.session.execute("UPDATE t SET d_tag = 7 WHERE d_tag = 2",
                     db::BackendKind::kOneXb);
  EXPECT_THROW(fx.session.execute("SELECT COUNT(*) FROM t WHERE d_tag = 2",
                                  db::BackendKind::kReference),
               std::runtime_error);
  EXPECT_THROW(fx.session.execute("SELECT COUNT(*) FROM t WHERE d_tag = 2",
                                  db::BackendKind::kColumnar),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Model-cache fingerprints: updates change data, never the modeled config
// ---------------------------------------------------------------------------

TEST(UpdatePath, ModelFingerprintsStableAcrossUpdates) {
  db::SessionOptions opts = fast_options();
  auto models = std::make_shared<db::ModelCache>();
  opts.models = models;
  UpdateFixture fx(600, 77, opts);

  // Planner-driven grouped query: fits once.
  const std::string grouped = "SELECT f_gid, SUM(f_val) FROM t GROUP BY f_gid";
  fx.session.execute(grouped, db::BackendKind::kOneXb);
  EXPECT_EQ(models->fit_count(), 1u);

  // Updates mutate data, not (pim, host, fit): the fingerprint is
  // unchanged, the fitted models stay valid, no refit happens.
  fx.session.execute("UPDATE t SET d_tag = 7 WHERE d_tag = 2",
                     db::BackendKind::kOneXb);
  fx.session.execute(grouped, db::BackendKind::kOneXb);
  EXPECT_EQ(models->fit_count(), 1u);
}

// ---------------------------------------------------------------------------
// QueryService: mixed read/write submissions
// ---------------------------------------------------------------------------

TEST(UpdatePath, QueryServiceServesMixedReadsAndWrites) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(500, 31));
  db::QueryServiceOptions opts;
  opts.workers = 3;
  opts.session = fast_options();
  db::QueryService service(database, opts);
  service.warm_up(db::BackendKind::kOneXb);

  auto fup = service.submit("UPDATE t SET d_tag = 7 WHERE d_tag = 2");
  const db::ResultSet up = fup.get();
  EXPECT_TRUE(up.is_update());
  EXPECT_EQ(up.data_version(), 1u);

  // Every worker (whichever serves these) observes the committed update.
  std::vector<std::future<db::ResultSet>> reads;
  for (int i = 0; i < 6; ++i) {
    reads.push_back(
        service.submit("SELECT COUNT(*) FROM t WHERE d_tag = 7"));
  }
  for (auto& f : reads) {
    const db::ResultSet rs = f.get();
    EXPECT_EQ(static_cast<std::size_t>(rs.integer(0, 0)),
              up.updated_records());
    EXPECT_EQ(rs.data_version(), 1u);
  }
  service.shutdown();
}

}  // namespace
}  // namespace bbpim
