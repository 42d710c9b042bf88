// Tests for the bbpim::db facade: catalog registration and target
// resolution, SQL error propagation, prepared-statement re-execution,
// ResultSet decoding, model-cache sharing, backend registry helpers, and
// cross-backend agreement with the scalar reference on a seeded query set.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "db/db.hpp"
#include "db/snapshot_manager.hpp"
#include "engine_test_util.hpp"

namespace bbpim {
namespace {

db::SessionOptions fast_options() {
  db::SessionOptions opts;
  opts.pim = testutil::small_pim_config();
  // The fitting campaign's synthetic relations carry a 64-bit value field
  // plus its sum-result slot — wider than the 128-column test geometry.
  opts.pim.crossbar_cols = 256;
  return opts;
}

/// The on-disk model cache file for `opts`' configuration (one file per
/// kind + config fingerprint).
std::string model_cache_file(const std::string& dir,
                             const db::SessionOptions& opts) {
  return dir + "/bbpim_models_one_xb_" +
         std::to_string(
             engine::config_fingerprint(opts.pim, opts.host, opts.fit)) +
         ".txt";
}

/// An empty directory `name` under the test temp dir: each disk-cache test
/// keeps its files apart from the others'.
std::string fresh_cache_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A database holding one seeded synthetic relation.
struct FacadeFixture {
  db::Database database;
  db::Session session;

  explicit FacadeFixture(std::size_t rows = 600, std::uint64_t seed = 99,
                         db::SessionOptions opts = fast_options())
      : session([&]() -> db::Database& {
          database.register_table(testutil::make_synthetic_table(rows, seed));
          return database;
        }(), std::move(opts)) {}
};

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(Database, RegistersResolvesAndRejectsDuplicates) {
  db::Database database;
  const rel::Table& t =
      database.register_table(testutil::make_synthetic_table(100, 5));
  EXPECT_EQ(t.name(), "synthetic");
  EXPECT_TRUE(database.has_table("synthetic"));
  EXPECT_EQ(&database.table("synthetic"), &t);
  EXPECT_EQ(&database.default_target(), &t);
  EXPECT_THROW(database.register_table(testutil::make_synthetic_table(10, 6)),
               std::invalid_argument);
  EXPECT_THROW(database.table("nope"), std::invalid_argument);

  // FROM resolution: registered names win, unknown names fall back to the
  // default target (the SSB star queries name only logical source tables).
  EXPECT_EQ(&database.resolve_target({"synthetic"}), &t);
  EXPECT_EQ(&database.resolve_target({"lineorder", "date"}), &t);
}

TEST(Database, AttachTableDoesNotCopy) {
  const rel::Table external = testutil::make_synthetic_table(50, 7);
  db::Database database;
  const rel::Table& attached = database.attach_table(external);
  EXPECT_EQ(&attached, &external);
}

TEST(Database, UnnamedTableRejected) {
  db::Database database;
  EXPECT_THROW(database.register_table(
                   rel::Table(rel::Schema(std::vector<rel::Attribute>{}), "")),
               std::invalid_argument);
  EXPECT_THROW(database.default_target(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SQL error paths through the facade
// ---------------------------------------------------------------------------

TEST(SessionErrors, FrontEndErrorsThrowInvalidArgument) {
  FacadeFixture fx;
  // Syntax error.
  EXPECT_THROW(fx.session.prepare("FROM synthetic"), std::invalid_argument);
  // Unknown column.
  EXPECT_THROW(fx.session.prepare("SELECT SUM(zzz) FROM synthetic"),
               std::invalid_argument);
  // Type mismatch: integer column compared to a string literal.
  EXPECT_THROW(
      fx.session.prepare("SELECT SUM(f_val) FROM synthetic WHERE f_key = 'x'"),
      std::invalid_argument);
  // More than one aggregate.
  EXPECT_THROW(
      fx.session.prepare("SELECT SUM(f_val), SUM(f_val2) FROM synthetic"),
      std::invalid_argument);
  // Non-grouped plain column.
  EXPECT_THROW(fx.session.prepare("SELECT f_val, SUM(f_val2) FROM synthetic"),
               std::invalid_argument);
}

TEST(SessionErrors, ExplainOnHostBackendsThrows) {
  FacadeFixture fx;
  EXPECT_THROW(fx.session.explain("SELECT SUM(f_val) FROM synthetic",
                                  db::BackendKind::kReference),
               std::invalid_argument);
  EXPECT_FALSE(fx.session
                   .explain("SELECT SUM(f_val) FROM synthetic",
                            db::BackendKind::kOneXb)
                   .empty());
}

TEST(SessionErrors, HostBackendsRejectPimExecOptions) {
  FacadeFixture fx;
  const db::PreparedStatement stmt = fx.session.prepare(
      "SELECT f_gid, SUM(f_val) AS s FROM synthetic "
      "WHERE f_key < 2000 GROUP BY f_gid");
  engine::ExecOptions forced;
  forced.force_k = 1;
  engine::ExecOptions skip;
  skip.skip_host_gb = true;
  for (const db::BackendKind backend :
       {db::BackendKind::kColumnar, db::BackendKind::kReference}) {
    EXPECT_THROW(stmt.execute(backend, forced), std::invalid_argument)
        << db::backend_name(backend);
    EXPECT_THROW(stmt.execute(backend, skip), std::invalid_argument)
        << db::backend_name(backend);
    // Default options still run fine on the host baselines.
    EXPECT_GT(stmt.execute(backend).row_count(), 0u)
        << db::backend_name(backend);
  }
  // The PIM backends honor the same options instead of rejecting them.
  EXPECT_GT(stmt.execute(db::BackendKind::kOneXb, forced).row_count(), 0u);
}

// ---------------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------------

TEST(PreparedStatement, ReexecutionReturnsIdenticalRowsAndStats) {
  FacadeFixture fx;
  const char* sql_text =
      "SELECT f_gid, SUM(f_val) AS total FROM synthetic "
      "WHERE f_key < 2000 GROUP BY f_gid ORDER BY total DESC";
  const db::PreparedStatement stmt = fx.session.prepare(sql_text);
  const db::ResultSet a = stmt.execute();
  const db::ResultSet b = stmt.execute();
  ASSERT_EQ(a.row_count(), b.row_count());
  for (std::size_t i = 0; i < a.row_count(); ++i) {
    EXPECT_EQ(a.rows()[i].group, b.rows()[i].group);
    EXPECT_EQ(a.rows()[i].agg, b.rows()[i].agg);
  }
  EXPECT_EQ(a.stats().total_ns, b.stats().total_ns);
  EXPECT_EQ(a.stats().selected_records, b.stats().selected_records);
  EXPECT_EQ(a.stats().pim_subgroups, b.stats().pim_subgroups);
  EXPECT_EQ(a.stats().energy_j, b.stats().energy_j);
}

TEST(PreparedStatement, PlanCacheReturnsSamePlanForSameText) {
  FacadeFixture fx;
  const char* sql_text = "SELECT SUM(f_val) FROM synthetic WHERE f_key < 100";
  const db::PreparedStatement a = fx.session.prepare(sql_text);
  const db::PreparedStatement b = fx.session.prepare(sql_text);
  EXPECT_EQ(&a.bound(), &b.bound());  // shared cached plan, bound once
}

TEST(PreparedStatement, DefaultConstructedThrowsInsteadOfCrashing) {
  db::PreparedStatement stmt;
  EXPECT_THROW(stmt.sql(), std::logic_error);
  EXPECT_THROW(stmt.bound(), std::logic_error);
  EXPECT_THROW(stmt.target(), std::logic_error);
  EXPECT_THROW(stmt.execute(), std::logic_error);
}

TEST(PreparedStatement, CatalogMutationInvalidatesCachedPlans) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(200, 44));
  db::Session session(database, fast_options());
  // "t2" is unknown, so FROM resolution falls back to the default target.
  const char* sql_text = "SELECT SUM(f_val) FROM t2 WHERE f_key < 100";
  const db::PreparedStatement before = session.prepare(sql_text);
  EXPECT_EQ(&before.target(), &database.table("synthetic"));

  // Register t2 (same schema, different rows): the same SQL text must now
  // bind against t2, not serve the stale cached plan.
  rel::Table t2 = testutil::make_synthetic_table(80, 45);
  const rel::Table& t2_ref = database.register_table(
      rel::Table(t2.schema(), "t2"));
  const db::PreparedStatement after = session.prepare(sql_text);
  EXPECT_EQ(&after.target(), &t2_ref);
}

// ---------------------------------------------------------------------------
// ResultSet decoding
// ---------------------------------------------------------------------------

TEST(ResultSetDecode, ColumnsNamesAndValues) {
  auto dict = std::make_shared<const rel::Dictionary>(
      rel::Dictionary::from_values({"north", "south"}));
  rel::Table t(rel::Schema({{"region", rel::DataType::kString, 1, dict},
                            {"v", rel::DataType::kInt, 8, nullptr}}),
               "regions");
  for (std::uint64_t i = 0; i < 10; ++i) {
    const std::uint64_t row[] = {i % 2, i};
    t.append_row(row);
  }
  db::Database database;
  database.register_table(std::move(t));
  db::Session session(database, fast_options());

  const db::ResultSet rs = session.execute(
      "SELECT region, SUM(v) AS total FROM regions GROUP BY region "
      "ORDER BY region",
      db::BackendKind::kReference);
  ASSERT_EQ(rs.column_count(), 2u);
  EXPECT_EQ(rs.column_name(0), "region");
  EXPECT_EQ(rs.column_name(1), "total");
  EXPECT_FALSE(rs.columns()[0].is_agg);
  EXPECT_TRUE(rs.columns()[1].is_agg);

  ASSERT_EQ(rs.row_count(), 2u);
  EXPECT_EQ(rs.text(0, 0), "north");  // codes 0,2,...,8 -> sum 20
  EXPECT_EQ(rs.integer(0, 1), 20);
  EXPECT_EQ(rs.text(1, 0), "south");  // codes 1,3,...,9 -> sum 25
  EXPECT_EQ(rs.text(1, 1), "25");
  EXPECT_EQ(rs.code(1, 0), 1u);
}

// ---------------------------------------------------------------------------
// Backend registry
// ---------------------------------------------------------------------------

TEST(BackendRegistry, PimBackendsMapToEngineKinds) {
  for (const db::BackendKind kind :
       {db::BackendKind::kOneXb, db::BackendKind::kTwoXb,
        db::BackendKind::kPimdb}) {
    const auto ek = db::engine_kind_of(kind);
    ASSERT_TRUE(ek.has_value());
    EXPECT_EQ(db::backend_of(*ek), kind);
  }
  EXPECT_EQ(db::engine_kind_of(db::BackendKind::kColumnar), std::nullopt);
  EXPECT_EQ(db::engine_kind_of(db::BackendKind::kReference), std::nullopt);
}

// ---------------------------------------------------------------------------
// Model cache
// ---------------------------------------------------------------------------

TEST(ModelCacheTest, SharedAcrossSessionsFitsOnce) {
  auto cache = std::make_shared<db::ModelCache>();
  db::SessionOptions opts = fast_options();
  opts.models = cache;

  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 31));
  db::Session first(database, opts);
  EXPECT_FALSE(cache->contains(engine::EngineKind::kOneXb));
  const engine::LatencyModels& m = first.models(engine::EngineKind::kOneXb);
  EXPECT_TRUE(m.fitted());
  EXPECT_TRUE(cache->contains(engine::EngineKind::kOneXb));

  // A second session sharing the cache gets the same fitted instance.
  db::Session second(database, opts);
  EXPECT_EQ(&second.models(engine::EngineKind::kOneXb), &m);
}

// sim_threads and prune are HostConfig settings that change neither the
// snapshot a session pins nor the models it fits: sessions that differ only
// there share one snapshot manager, one published version and one fit.
TEST(ModelCacheTest, SimulationSettingsShareSnapshotAndFit) {
  auto cache = std::make_shared<db::ModelCache>();
  db::Database database;
  const rel::Table& table = database.register_table(
      testutil::make_synthetic_table(400, 34));
  // Grouped without force_k: the planner needs the fitted models.
  const char* sql =
      "SELECT f_gid, SUM(f_val) AS s FROM synthetic WHERE f_key < 2000 "
      "GROUP BY f_gid ORDER BY f_gid";
  std::vector<std::unique_ptr<db::Session>> sessions;
  std::vector<db::ResultSet> results;
  for (const std::uint32_t sim_threads : {1u, 4u}) {
    for (const bool prune : {false, true}) {
      db::SessionOptions opts = fast_options();
      opts.models = cache;
      opts.host.sim_threads = sim_threads;
      opts.host.prune = prune;
      sessions.push_back(std::make_unique<db::Session>(database, opts));
      results.push_back(sessions.back()->execute(sql));
      EXPECT_EQ(results.back().rows(), results.front().rows())
          << sim_threads << " threads, prune " << prune;
    }
  }
  EXPECT_EQ(cache->fit_count(), 1u);
  // One manager built one version, and all four sessions pin it.
  const db::SnapshotManager& manager = database.snapshot_manager(
      table, /*two_crossbar=*/false, fast_options().pim);
  EXPECT_EQ(manager.published_count(), 1u);
  EXPECT_EQ(manager.live_snapshots(), 1);
}

// Snapshot managers are keyed by the PIM config's value: an equal config
// finds the same manager, one differing in a single double field (by one
// ulp) gets its own.
TEST(SnapshotManagers, KeyedByExactPimConfig) {
  db::Database database;
  const rel::Table& table = database.register_table(
      testutil::make_synthetic_table(400, 35));
  const pim::PimConfig base = fast_options().pim;
  pim::PimConfig equal = base;
  pim::PimConfig other = base;
  other.read_energy_pj_per_bit =
      std::nextafter(other.read_energy_pj_per_bit, 1.0e9);
  const db::SnapshotManager* const manager =
      &database.snapshot_manager(table, /*two_crossbar=*/false, base);
  EXPECT_EQ(&database.snapshot_manager(table, false, equal), manager);
  EXPECT_NE(&database.snapshot_manager(table, false, other), manager);
  EXPECT_EQ(&database.snapshot_manager(table, false, other),
            &database.snapshot_manager(table, false, other));
}

TEST(ModelCacheTest, DiskRoundTrip) {
  db::SessionOptions opts = fast_options();
  opts.model_cache_dir = fresh_cache_dir("bbpim_dbsession_test");

  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 32));
  {
    db::Session writer(database, opts);
    EXPECT_TRUE(writer.models(engine::EngineKind::kOneXb).fitted());
  }
  // A fresh private cache in the same dir loads from disk (no refit):
  // loaded coefficients must evaluate identically to the fitted ones.
  db::Session a(database, opts);
  db::Session b(database, opts);
  const auto& ma = a.models(engine::EngineKind::kOneXb);
  const auto& mb = b.models(engine::EngineKind::kOneXb);
  EXPECT_DOUBLE_EQ(ma.host_gb_ns(8.0, 2, 0.3), mb.host_gb_ns(8.0, 2, 0.3));
  EXPECT_DOUBLE_EQ(ma.pim_gb_ns(8.0, 2), mb.pim_gb_ns(8.0, 2));
  std::remove(model_cache_file(opts.model_cache_dir, opts).c_str());
}

TEST(ModelCacheTest, ConfigFingerprintMismatchIsACacheMiss) {
  const std::string dir = fresh_cache_dir("bbpim_fingerprint_test");
  const db::SessionOptions opts = fast_options();
  const std::string path = model_cache_file(dir, opts);

  db::ModelCache writer(dir);
  EXPECT_TRUE(writer
                  .get_or_fit(engine::EngineKind::kOneXb, opts.pim, opts.host,
                              opts.fit)
                  .fitted());
  EXPECT_EQ(writer.fit_count(), 1u);

  // Same configuration, fresh cache: valid disk hit, no refit.
  db::ModelCache same(dir);
  EXPECT_TRUE(same.get_or_fit(engine::EngineKind::kOneXb, opts.pim, opts.host,
                              opts.fit)
                  .fitted());
  EXPECT_EQ(same.fit_count(), 0u);

  // Same cache dir but a different host configuration: the saved
  // models must NOT be silently reused (the pre-fix behavior) — the
  // fingerprint separates the entries and forces a refit.
  host::HostConfig other_host = opts.host;
  other_host.line_random_ns *= 4;
  db::ModelCache different(dir);
  const engine::LatencyModels& refitted = different.get_or_fit(
      engine::EngineKind::kOneXb, opts.pim, other_host, opts.fit);
  EXPECT_TRUE(refitted.fitted());
  EXPECT_EQ(different.fit_count(), 1u);

  // Even a file whose NAME matches our configuration is rejected when its
  // fingerprint header disagrees (e.g. a hand-copied or hand-edited file).
  {
    db::SessionOptions other = opts;
    other.host = other_host;
    std::ifstream src(model_cache_file(dir, other));
    std::ofstream dst(path);
    dst << src.rdbuf();  // other config's models under OUR file name
  }
  db::ModelCache forged(dir);
  EXPECT_TRUE(forged
                  .get_or_fit(engine::EngineKind::kOneXb, opts.pim, opts.host,
                              opts.fit)
                  .fitted());
  EXPECT_EQ(forged.fit_count(), 1u);

  std::remove(path.c_str());
  db::SessionOptions other = opts;
  other.host = other_host;
  std::remove(model_cache_file(dir, other).c_str());
}

TEST(ModelCacheTest, TruncatedOrEmptyCacheFileIsACacheMiss) {
  const std::string dir = fresh_cache_dir("bbpim_truncated_test");
  const db::SessionOptions opts = fast_options();
  const std::string path = model_cache_file(dir, opts);

  // Empty file: loads as an unfitted model — must refit, not poison.
  { std::ofstream out(path); }
  db::ModelCache empty_cache(dir);
  EXPECT_TRUE(empty_cache
                  .get_or_fit(engine::EngineKind::kOneXb, opts.pim, opts.host,
                              opts.fit)
                  .fitted());
  EXPECT_EQ(empty_cache.fit_count(), 1u);

  // Truncated file: the parse error is a cache miss, not an exception.
  {
    std::ofstream out(path);
    out << "fingerprint 12345\nhost 2 1.5";  // record cut short
  }
  db::ModelCache truncated_cache(dir);
  EXPECT_TRUE(truncated_cache
                  .get_or_fit(engine::EngineKind::kOneXb, opts.pim, opts.host,
                              opts.fit)
                  .fitted());
  EXPECT_EQ(truncated_cache.fit_count(), 1u);
  std::remove(path.c_str());
}

TEST(ModelCacheTest, InMemoryEntriesAreKeyedByConfiguration) {
  // The fingerprint must separate configurations in memory too, not just on
  // disk: two sessions with different host configs sharing one cache must
  // never see each other's fitted models.
  db::ModelCache cache;  // memory only
  const db::SessionOptions opts = fast_options();
  const engine::LatencyModels& a = cache.get_or_fit(
      engine::EngineKind::kOneXb, opts.pim, opts.host, opts.fit);

  host::HostConfig other_host = opts.host;
  other_host.line_random_ns *= 4;
  const engine::LatencyModels& b = cache.get_or_fit(
      engine::EngineKind::kOneXb, opts.pim, other_host, opts.fit);
  EXPECT_EQ(cache.fit_count(), 2u);  // distinct configs, distinct campaigns
  EXPECT_NE(&a, &b);

  // Each configuration hits its own entry afterwards.
  EXPECT_EQ(&cache.get_or_fit(engine::EngineKind::kOneXb, opts.pim, opts.host,
                              opts.fit),
            &a);
  EXPECT_EQ(&cache.get_or_fit(engine::EngineKind::kOneXb, opts.pim,
                              other_host, opts.fit),
            &b);
  EXPECT_EQ(cache.fit_count(), 2u);
}

TEST(ModelCacheTest, PutInjectsOnceAndPreemptsFitting) {
  engine::LatencyModels injected;
  injected.host_slope[2] = {1.0, 2.0, 0.99};
  injected.pim_gb[1] = {3.0, 4.0, 0.99};
  ASSERT_TRUE(injected.fitted());

  db::ModelCache cache;
  cache.put(engine::EngineKind::kOneXb, injected);
  EXPECT_TRUE(cache.contains(engine::EngineKind::kOneXb));

  // get_or_fit returns the injected models without running a campaign.
  const db::SessionOptions opts = fast_options();
  const engine::LatencyModels& got = cache.get_or_fit(
      engine::EngineKind::kOneXb, opts.pim, opts.host, opts.fit);
  EXPECT_EQ(cache.fit_count(), 0u);
  EXPECT_DOUBLE_EQ(got.pim_gb_ns(8.0, 1), injected.pim_gb_ns(8.0, 1));

  // Resident models are immutable (threads may hold references into them):
  // a second injection for the same kind is a logic error.
  EXPECT_THROW(cache.put(engine::EngineKind::kOneXb, injected),
               std::logic_error);
}

TEST(ModelCacheTest, PoisonedDiskCacheDoesNotBreakQueries) {
  // Regression: a truncated cache file used to be loaded as-is; the planner
  // then died inside nearest() with "empty model" at query time.
  db::SessionOptions opts = fast_options();
  opts.model_cache_dir = fresh_cache_dir("bbpim_poisoned_test");
  const std::string path = model_cache_file(opts.model_cache_dir, opts);
  { std::ofstream out(path); }  // empty = unfitted

  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 77));
  db::Session session(database, opts);
  // A grouped query without force_k needs the planner, hence the models.
  const db::ResultSet rs = session.execute(
      "SELECT f_gid, SUM(f_val) AS s FROM synthetic GROUP BY f_gid");
  EXPECT_GT(rs.row_count(), 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Cross-backend agreement on a seeded query set
// ---------------------------------------------------------------------------

const char* kSeededQueries[] = {
    "SELECT SUM(f_val) AS s FROM synthetic WHERE f_key < 1024",
    "SELECT COUNT(*) AS c FROM synthetic WHERE f_key BETWEEN 100 AND 3000",
    "SELECT f_gid, SUM(f_val * f_val2) AS rev FROM synthetic "
    "WHERE f_key < 2048 GROUP BY f_gid ORDER BY rev DESC",
    "SELECT d_tag, MIN(f_val) AS lo FROM synthetic "
    "WHERE f_gid IN (0, 2, 3) GROUP BY d_tag ORDER BY d_tag",
    "SELECT f_gid, d_tag, MAX(f_val) AS hi FROM synthetic "
    "WHERE f_key >= 512 GROUP BY f_gid, d_tag ORDER BY f_gid, d_tag",
};

TEST(BackendAgreement, AllBackendsMatchReferenceOnSeededQueries) {
  FacadeFixture fx(900, 123);
  for (const char* sql_text : kSeededQueries) {
    const db::PreparedStatement stmt = fx.session.prepare(sql_text);
    const db::ResultSet ref = stmt.execute(db::BackendKind::kReference);
    for (const db::BackendKind backend :
         {db::BackendKind::kOneXb, db::BackendKind::kTwoXb,
          db::BackendKind::kPimdb, db::BackendKind::kColumnar}) {
      const db::ResultSet out = stmt.execute(backend);
      ASSERT_EQ(out.row_count(), ref.row_count())
          << db::backend_name(backend) << ": " << sql_text;
      for (std::size_t i = 0; i < out.row_count(); ++i) {
        EXPECT_EQ(out.rows()[i].group, ref.rows()[i].group)
            << db::backend_name(backend) << " row " << i << ": " << sql_text;
        EXPECT_EQ(out.rows()[i].agg, ref.rows()[i].agg)
            << db::backend_name(backend) << " row " << i << ": " << sql_text;
      }
    }
  }
}

}  // namespace
}  // namespace bbpim
