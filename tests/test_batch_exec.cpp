// Shared-scan batched execution: fusing concurrent SELECTs into one page
// pass must be invisible in results. Covers:
//   - batched-vs-serial ROW and semantic-stat parity over the 13 SSB
//     queries (one-xb and two-xb), with zone-map pruning on so the
//     classification memo is exercised;
//   - a single-statement batch degenerating to the solo path byte-for-byte
//     (modeled time/energy included);
//   - mixed-table batches splitting into one fused group per table;
//   - duplicate statements executing once and sharing the ResultSet;
//   - per-statement errors (including engine-level fallback) never failing
//     batchmates;
//   - QueryService shared-scan serving matching the unbatched reference,
//     with submit(sql) and submit(sql, kOneXb) fusing into one batch;
//   - batch-vs-concurrent-UPDATE snapshot consistency against a serial
//     oracle replaying the committed log order.
// Run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/db.hpp"
#include "engine_test_util.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/queries.hpp"

namespace bbpim {
namespace {

db::SessionOptions fast_options() {
  db::SessionOptions opts;
  opts.pim = testutil::small_pim_config();
  opts.pim.crossbar_cols = 256;  // fitting campaign needs the wider rows
  return opts;
}

/// Semantic-stat parity: everything the batch contract promises byte-equal
/// to a solo execution — selection, planner inputs, pruning effectiveness,
/// request counts. Modeled time/energy stay deterministic but are attributed
/// against the batch's shared scratch layout, so they are NOT compared here
/// (the single-statement degeneracy test covers them instead).
void expect_semantic_stats_equal(const engine::QueryStats& got,
                                 const engine::QueryStats& want,
                                 const std::string& what) {
  EXPECT_EQ(got.selected_records, want.selected_records) << what;
  EXPECT_EQ(got.selectivity, want.selectivity) << what;
  EXPECT_EQ(got.total_subgroups, want.total_subgroups) << what;
  EXPECT_EQ(got.sampled_subgroups, want.sampled_subgroups) << what;
  EXPECT_EQ(got.pim_subgroups, want.pim_subgroups) << what;
  EXPECT_EQ(got.host_lines, want.host_lines) << what;
  EXPECT_EQ(got.pim_requests, want.pim_requests) << what;
  EXPECT_EQ(got.n_chunks, want.n_chunks) << what;
  EXPECT_EQ(got.s_chunks, want.s_chunks) << what;
  EXPECT_EQ(got.selectivity_estimate, want.selectivity_estimate) << what;
  EXPECT_EQ(got.candidates_complete, want.candidates_complete) << what;
  EXPECT_EQ(got.candidate_masses, want.candidate_masses) << what;
  EXPECT_EQ(got.pages_skipped, want.pages_skipped) << what;
  EXPECT_EQ(got.pages_synthesized, want.pages_synthesized) << what;
  EXPECT_EQ(got.crossbars_skipped, want.crossbars_skipped) << what;
  EXPECT_EQ(got.predicates_short_circuited, want.predicates_short_circuited)
      << what;
  EXPECT_EQ(got.group_pages_skipped, want.group_pages_skipped) << what;
}

void expect_rows_equal(const db::ResultSet& got, const db::ResultSet& want,
                       const std::string& what) {
  ASSERT_EQ(got.row_count(), want.row_count()) << what;
  for (std::size_t i = 0; i < got.row_count(); ++i) {
    EXPECT_EQ(got.rows()[i].group, want.rows()[i].group)
        << what << " row " << i;
    EXPECT_EQ(got.rows()[i].agg, want.rows()[i].agg) << what << " row " << i;
  }
}

// ---------------------------------------------------------------------------
// SSB parity: batched == serial, rows and semantic stats
// ---------------------------------------------------------------------------

/// One SSB database shared by the parity tests: pruning ON so the batch
/// exercises the classification memo, facade defaults otherwise.
struct SsbBatchWorld {
  static SsbBatchWorld& instance() {
    static SsbBatchWorld w;
    return w;
  }

  db::Database database;
  std::unique_ptr<db::Session> session;

 private:
  SsbBatchWorld() {
    ssb::SsbConfig gen;
    gen.scale_factor = 0.02;
    gen.seed = 4321;
    database.register_table(ssb::prejoin_ssb(ssb::generate(gen)));
    db::SessionOptions opts;
    opts.host.prune = true;
    session = std::make_unique<db::Session>(database, opts);
  }
};

void run_ssb_batch_parity(engine::EngineKind kind) {
  SsbBatchWorld& w = SsbBatchWorld::instance();
  const db::BackendKind backend = db::backend_of(kind);
  std::vector<std::string> sqls;
  for (const auto& q : ssb::queries()) sqls.emplace_back(q.sql);

  // Serial baselines first; this also warms the store's classification memo
  // with every query's filter list.
  std::vector<db::ResultSet> serial;
  serial.reserve(sqls.size());
  for (const std::string& sql : sqls) {
    serial.push_back(w.session->execute(sql, backend));
  }

  // One shared-scan batch over all 13 texts.
  std::vector<db::Session::BatchItem> items =
      w.session->execute_batch(sqls, backend);
  ASSERT_EQ(items.size(), sqls.size());
  std::size_t fused = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(items[i].error == nullptr) << sqls[i];
    const db::ResultSet& got = items[i].result;
    expect_rows_equal(got, serial[i], sqls[i]);
    expect_semantic_stats_equal(got.stats(), serial[i].stats(), sqls[i]);
    EXPECT_EQ(got.batched_queries(), sqls.size()) << sqls[i];
    // The serial pass left every query's page classification in the memo.
    EXPECT_GT(got.stats().classification_memo_hits, 0u) << sqls[i];
    EXPECT_GT(got.stats().total_ns, 0) << sqls[i];
    fused += got.stats().fused_page_passes;
  }
  // 13 queries over one table: the fused pass must actually share visits.
  EXPECT_GT(fused, 0u);
}

TEST(BatchExec, BatchedMatchesSerialOverSsbOneXb) {
  run_ssb_batch_parity(engine::EngineKind::kOneXb);
}

TEST(BatchExec, BatchedMatchesSerialOverSsbTwoXb) {
  run_ssb_batch_parity(engine::EngineKind::kTwoXb);
}

// ---------------------------------------------------------------------------
// Degeneracy, splitting, dedup, per-statement errors
// ---------------------------------------------------------------------------

TEST(BatchExec, SingleStatementBatchDegeneratesToSoloPath) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(500, 7));
  db::Session session(database, fast_options());
  const std::string sql =
      "SELECT f_gid, SUM(f_val) AS s FROM synthetic "
      "WHERE f_key < 2048 GROUP BY f_gid ORDER BY s DESC";

  const db::ResultSet solo = session.execute(sql);
  std::vector<db::Session::BatchItem> items = session.execute_batch({sql});
  ASSERT_EQ(items.size(), 1u);
  ASSERT_TRUE(items[0].error == nullptr);
  const db::ResultSet& got = items[0].result;

  // Exactly today's path: rows AND modeled costs byte-identical.
  expect_rows_equal(got, solo, sql);
  EXPECT_EQ(got.stats().total_ns, solo.stats().total_ns);
  EXPECT_EQ(got.stats().energy_j, solo.stats().energy_j);
  EXPECT_EQ(got.stats().wear_row_writes, solo.stats().wear_row_writes);
  EXPECT_EQ(got.batched_queries(), 0u);
  EXPECT_EQ(got.stats().fused_page_passes, 0u);
}

/// Copies `src` under a new relation name (same schema, same rows).
rel::Table renamed_copy(const rel::Table& src, std::string name) {
  rel::Table t(src.schema(), std::move(name));
  t.reserve(src.row_count());
  std::vector<std::uint64_t> row(src.schema().attribute_count());
  for (std::size_t r = 0; r < src.row_count(); ++r) {
    for (std::size_t a = 0; a < row.size(); ++a) row[a] = src.value(r, a);
    t.append_row(row);
  }
  return t;
}

TEST(BatchExec, MixedTableBatchSplitsPerTable) {
  db::Database database;
  const rel::Table base = testutil::make_synthetic_table(400, 21);
  database.register_table(renamed_copy(base, "alpha"));
  database.register_table(
      renamed_copy(testutil::make_synthetic_table(400, 22), "beta"));
  db::Session session(database, fast_options());

  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM alpha WHERE f_key < 1000",
      "SELECT COUNT(*) FROM beta WHERE f_key < 1000",
      "SELECT SUM(f_val) AS s FROM alpha WHERE d_tag >= 3",
      "SELECT SUM(f_val) AS s FROM beta WHERE d_tag >= 3",
  };
  std::vector<db::ResultSet> solo;
  for (const std::string& sql : sqls) solo.push_back(session.execute(sql));

  std::vector<db::Session::BatchItem> items = session.execute_batch(sqls);
  ASSERT_EQ(items.size(), sqls.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(items[i].error == nullptr) << sqls[i];
    expect_rows_equal(items[i].result, solo[i], sqls[i]);
    expect_semantic_stats_equal(items[i].result.stats(), solo[i].stats(),
                                sqls[i]);
    // The batch split per table: each statement fused with its OWN table's
    // companion only, never across tables.
    EXPECT_EQ(items[i].result.batched_queries(), 2u) << sqls[i];
  }
}

TEST(BatchExec, DuplicateStatementsExecuteOnceAndShareResults) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 9));
  db::Session session(database, fast_options());
  const std::string hot = "SELECT COUNT(*) FROM synthetic WHERE f_key < 512";
  const std::string cold = "SELECT SUM(f_val) AS s FROM synthetic "
                           "WHERE d_tag = 2";
  const db::ResultSet hot_solo = session.execute(hot);
  const db::ResultSet cold_solo = session.execute(cold);

  const std::vector<std::string> sqls = {hot, hot, cold, hot};
  std::vector<db::Session::BatchItem> items = session.execute_batch(sqls);
  ASSERT_EQ(items.size(), 4u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(items[i].error == nullptr) << sqls[i];
    const db::ResultSet& want = sqls[i] == hot ? hot_solo : cold_solo;
    expect_rows_equal(items[i].result, want, sqls[i]);
    expect_semantic_stats_equal(items[i].result.stats(), want.stats(),
                                sqls[i]);
    // All four statements were served by one two-member fused pass.
    EXPECT_EQ(items[i].result.batched_queries(), 4u) << sqls[i];
  }
}

TEST(BatchExec, ErrorsStayPerStatement) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 13));
  db::Session session(database, fast_options());
  const std::string good1 = "SELECT COUNT(*) FROM synthetic WHERE f_key < 512";
  const std::string good2 =
      "SELECT SUM(f_val) AS s FROM synthetic WHERE d_tag = 2";
  const db::ResultSet good1_solo = session.execute(good1);
  const db::ResultSet good2_solo = session.execute(good2);

  // A front-end failure (parse) never touches batchmates.
  {
    std::vector<db::Session::BatchItem> items =
        session.execute_batch({good1, "NOT SQL AT ALL", good2});
    ASSERT_EQ(items.size(), 3u);
    ASSERT_TRUE(items[1].error != nullptr);
    EXPECT_THROW(std::rethrow_exception(items[1].error),
                 std::invalid_argument);
    ASSERT_TRUE(items[0].error == nullptr);
    ASSERT_TRUE(items[2].error == nullptr);
    expect_rows_equal(items[0].result, good1_solo, good1);
    expect_rows_equal(items[2].result, good2_solo, good2);
  }

  // An engine-level failure (MIN over an expression is unsupported) trips
  // the fused pass into its serial fallback: the failing member carries its
  // own error, the others still produce solo-identical answers.
  {
    const std::string bad =
        "SELECT MIN(f_val - f_val2) AS m FROM synthetic WHERE f_key < 512";
    std::vector<db::Session::BatchItem> items =
        session.execute_batch({good1, bad, good2});
    ASSERT_EQ(items.size(), 3u);
    ASSERT_TRUE(items[1].error != nullptr);
    ASSERT_TRUE(items[0].error == nullptr);
    ASSERT_TRUE(items[2].error == nullptr);
    expect_rows_equal(items[0].result, good1_solo, good1);
    expect_rows_equal(items[2].result, good2_solo, good2);
    expect_semantic_stats_equal(items[0].result.stats(), good1_solo.stats(),
                                good1);
    expect_semantic_stats_equal(items[2].result.stats(), good2_solo.stats(),
                                good2);
    // The survivors were served by the fused pass' solo fallback — and say
    // so, so the service can count member-failure fallbacks.
    EXPECT_EQ(items[0].result.stats().batch_fallbacks, 1u);
    EXPECT_EQ(items[2].result.stats().batch_fallbacks, 1u);
  }
}

// ---------------------------------------------------------------------------
// QueryService shared-scan serving
// ---------------------------------------------------------------------------

TEST(BatchExec, ServiceSharedScanMatchesUnbatchedReference) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(500, 7));
  const std::vector<std::string> sqls = {
      "SELECT SUM(f_val) AS s FROM synthetic WHERE f_key < 1024",
      "SELECT f_gid, SUM(f_val) AS s FROM synthetic "
      "WHERE f_key < 2048 GROUP BY f_gid ORDER BY s DESC",
      "SELECT d_tag, MIN(f_val) AS lo FROM synthetic "
      "WHERE f_gid IN (0, 2, 3) GROUP BY d_tag ORDER BY d_tag",
      "SELECT COUNT(*) FROM synthetic WHERE d_tag >= 4",
  };
  db::Session reference(database, fast_options());
  std::vector<db::ResultSet> expected;
  for (const std::string& sql : sqls) expected.push_back(reference.execute(sql));

  db::QueryServiceOptions opts;
  opts.workers = 1;  // one worker = every gathered statement fuses
  opts.session = fast_options();
  opts.session.models = reference.model_cache();
  opts.shared_scan.enabled = true;
  opts.shared_scan.max_batch = 16;
  opts.shared_scan.gather_window_us = 200000;  // generous under TSan
  db::QueryService service(database, opts);
  service.warm_up(db::BackendKind::kOneXb);

  std::vector<std::future<db::ResultSet>> futures;
  for (std::size_t round = 0; round < 3; ++round) {
    for (const std::string& sql : sqls) futures.push_back(service.submit(sql));
  }
  std::size_t batched = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const db::ResultSet got = futures[i].get();
    const db::ResultSet& want = expected[i % sqls.size()];
    expect_rows_equal(got, want, sqls[i % sqls.size()]);
    expect_semantic_stats_equal(got.stats(), want.stats(),
                                sqls[i % sqls.size()]);
    if (got.batched_queries() >= 2) ++batched;
  }
  EXPECT_EQ(service.executed_count(), futures.size());
  // The first pop may run solo (nothing queued yet), but everything the
  // worker gathered while busy must have fused.
  EXPECT_GE(batched, 2u);
  service.shutdown();
}

TEST(BatchExec, ServiceFusesBothSpellingsOfOneXb) {
  // submit(sql) runs on one-xb exactly like submit(sql, kOneXb), so the two
  // must gather into one shared-scan batch.
  db::Database database;
  database.register_table(testutil::make_synthetic_table(300, 11));
  db::QueryServiceOptions opts;
  opts.workers = 1;
  opts.session = fast_options();
  opts.shared_scan.enabled = true;
  opts.shared_scan.max_batch = 2;  // the gather ends as soon as both are in
  opts.shared_scan.gather_window_us = 2000000;
  db::QueryService service(database, opts);
  service.warm_up(db::BackendKind::kOneXb);

  std::future<db::ResultSet> implicit =
      service.submit("SELECT SUM(f_val) FROM synthetic WHERE f_key < 1024");
  std::future<db::ResultSet> explicit_one_xb =
      service.submit("SELECT COUNT(*) FROM synthetic WHERE d_tag >= 4",
                     db::BackendKind::kOneXb);
  EXPECT_EQ(implicit.get().batched_queries(), 2u);
  EXPECT_EQ(explicit_one_xb.get().batched_queries(), 2u);
  service.shutdown();
}

// ---------------------------------------------------------------------------
// Batch vs concurrent UPDATE: snapshot consistency
// ---------------------------------------------------------------------------

TEST(BatchExec, BatchVsConcurrentUpdateMatchesSerialOracle) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(600, 123));
  static auto shared_models = std::make_shared<db::ModelCache>();
  db::QueryServiceOptions opts;
  opts.workers = 3;
  opts.session = fast_options();
  opts.session.models = shared_models;
  opts.shared_scan.enabled = true;
  db::QueryService service(database, opts);
  service.warm_up(db::BackendKind::kOneXb);

  const std::string reads[] = {
      "SELECT COUNT(*) FROM synthetic WHERE d_tag = 2",
      "SELECT f_gid, SUM(f_val) AS s FROM synthetic GROUP BY f_gid "
      "ORDER BY f_gid",
      "SELECT SUM(f_val) AS s FROM synthetic WHERE d_tag >= 4",
  };
  const std::string updates[] = {
      "UPDATE synthetic SET d_tag = 7 WHERE d_tag = 1",
      "UPDATE synthetic SET f_val2 = 11 WHERE f_gid = 2",
      "UPDATE synthetic SET d_tag = 1 WHERE d_tag = 6",
      "UPDATE synthetic SET f_val2 = 3 WHERE f_val2 = 11",
  };

  struct Flight {
    std::string sql;
    bool is_update = false;
    std::future<db::ResultSet> future;
  };
  std::vector<Flight> flights;
  std::size_t u = 0, r = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const bool is_update = i % 4 == 3;
    const std::string& sql = is_update ? updates[u++ % std::size(updates)]
                                       : reads[r++ % std::size(reads)];
    flights.push_back({sql, is_update, service.submit(sql)});
  }
  struct Done {
    std::string sql;
    bool is_update = false;
    db::ResultSet result;
  };
  std::vector<Done> done;
  for (Flight& f : flights) {
    done.push_back({f.sql, f.is_update, f.future.get()});
  }
  service.shutdown();

  // Committed order from the updates' log positions; reads sorted by the
  // version they observed. Every batched read pinned exactly one version.
  std::map<std::uint64_t, const Done*> update_by_version;
  for (const Done& d : done) {
    if (d.is_update) {
      ASSERT_TRUE(d.result.is_update());
      ASSERT_TRUE(update_by_version.emplace(d.result.data_version(), &d).second);
    }
  }
  std::vector<const Done*> read_order;
  for (const Done& d : done) {
    if (!d.is_update) read_order.push_back(&d);
  }
  std::sort(read_order.begin(), read_order.end(),
            [](const Done* a, const Done* b) {
              return a->result.data_version() < b->result.data_version();
            });

  db::Database oracle_db;
  oracle_db.register_table(testutil::make_synthetic_table(600, 123));
  db::SessionOptions oracle_opts = fast_options();
  oracle_opts.models = shared_models;
  db::Session oracle(oracle_db, oracle_opts);

  std::uint64_t version = 0;
  std::size_t next_read = 0;
  const std::uint64_t final_version = update_by_version.size();
  while (version <= final_version) {
    while (next_read < read_order.size() &&
           read_order[next_read]->result.data_version() == version) {
      const Done& d = *read_order[next_read++];
      const db::ResultSet serial = oracle.execute(d.sql);
      const std::string what = d.sql + " @v" + std::to_string(version);
      expect_rows_equal(d.result, serial, what);
      // Batched reads share scratch with batchmates, so modeled time is
      // attributed (deterministic) rather than byte-equal — the semantic
      // side must still match the serial oracle exactly.
      expect_semantic_stats_equal(d.result.stats(), serial.stats(), what);
    }
    if (version == final_version) break;
    const Done& up = *update_by_version.at(version + 1);
    const db::ResultSet serial_up = oracle.execute(up.sql);
    EXPECT_EQ(serial_up.data_version(), version + 1);
    EXPECT_EQ(serial_up.updated_records(), up.result.updated_records())
        << up.sql;
    ++version;
  }
  EXPECT_EQ(next_read, read_order.size());

  // Final store contents converge to the oracle's.
  db::Session replayer(database, oracle_opts);
  replayer.execute("SELECT COUNT(*) FROM synthetic");
  EXPECT_EQ(
      replayer.pim_engine(engine::EngineKind::kOneXb).store().contents_checksum(),
      oracle.pim_engine(engine::EngineKind::kOneXb).store().contents_checksum());
}

}  // namespace
}  // namespace bbpim
