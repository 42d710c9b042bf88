// Mixed-workload (HTAP) determinism: N reader threads + concurrent updaters
// through db::QueryService must be indistinguishable from a serial oracle
// that replays the same committed update order — same rows, same simulated
// stats per query, same final table contents — at any simulation thread
// count (the PR-3 guarantee extends to the write path).
//
// The writer gate makes every execution observe a log prefix; the prefix
// length rides on ResultSet::data_version. The oracle interleaves the same
// statements serially at those versions and compares field-by-field.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/db.hpp"
#include "engine_test_util.hpp"

namespace bbpim {
namespace {

db::SessionOptions fast_options(std::uint32_t sim_threads) {
  db::SessionOptions opts;
  opts.pim = testutil::small_pim_config();
  opts.pim.crossbar_cols = 256;
  opts.host.sim_threads = sim_threads;
  return opts;
}

/// Byte-exact equality over every QueryStats field (determinism means
/// bit-identity, so doubles compare with ==).
void expect_stats_equal(const engine::QueryStats& a,
                        const engine::QueryStats& b, const std::string& what) {
  EXPECT_EQ(a.total_ns, b.total_ns) << what;
  EXPECT_EQ(a.phases.filter, b.phases.filter) << what;
  EXPECT_EQ(a.phases.transfer, b.phases.transfer) << what;
  EXPECT_EQ(a.phases.sample, b.phases.sample) << what;
  EXPECT_EQ(a.phases.plan, b.phases.plan) << what;
  EXPECT_EQ(a.phases.pim_gb, b.phases.pim_gb) << what;
  EXPECT_EQ(a.phases.host_gb, b.phases.host_gb) << what;
  EXPECT_EQ(a.phases.finalize, b.phases.finalize) << what;
  EXPECT_EQ(a.energy_j, b.energy_j) << what;
  EXPECT_EQ(a.peak_chip_w, b.peak_chip_w) << what;
  EXPECT_EQ(a.wear_row_writes, b.wear_row_writes) << what;
  EXPECT_EQ(a.selected_records, b.selected_records) << what;
  EXPECT_EQ(a.total_subgroups, b.total_subgroups) << what;
  EXPECT_EQ(a.pim_subgroups, b.pim_subgroups) << what;
  EXPECT_EQ(a.host_lines, b.host_lines) << what;
  EXPECT_EQ(a.pim_requests, b.pim_requests) << what;
}

void expect_update_stats_equal(const engine::UpdateStats& a,
                               const engine::UpdateStats& b,
                               const std::string& what) {
  EXPECT_EQ(a.total_ns, b.total_ns) << what;
  EXPECT_EQ(a.energy_j, b.energy_j) << what;
  EXPECT_EQ(a.energy_logic_j, b.energy_logic_j) << what;
  EXPECT_EQ(a.peak_chip_w, b.peak_chip_w) << what;
  EXPECT_EQ(a.wear_row_writes, b.wear_row_writes) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.updated_records, b.updated_records) << what;
  EXPECT_EQ(a.host_path_estimate_ns, b.host_path_estimate_ns) << what;
}

struct Submitted {
  std::string sql;
  bool is_update = false;
  std::future<db::ResultSet> future;
};

struct Completed {
  std::string sql;
  bool is_update = false;
  db::ResultSet result;
};

void run_mixed_workload_and_check(std::uint32_t sim_threads) {
  SCOPED_TRACE("sim_threads=" + std::to_string(sim_threads));
  const db::SessionOptions opts = fast_options(sim_threads);
  // One model cache across pool and oracle: sim_threads is excluded from
  // config fingerprints, so all runs share a single fitting campaign.
  static auto shared_models = std::make_shared<db::ModelCache>();

  db::Database database;
  database.register_table(testutil::make_synthetic_table(700, 123));
  db::QueryServiceOptions service_opts;
  service_opts.workers = 4;
  service_opts.session = opts;
  service_opts.session.models = shared_models;
  db::QueryService service(database, service_opts);
  service.warm_up(db::BackendKind::kOneXb);

  // The mix: every 4th statement mutates; reads span ungrouped counts and
  // planner-driven grouped sums. Update values stay in-domain and in-part.
  const std::string reads[] = {
      "SELECT COUNT(*) FROM t WHERE d_tag = 2",
      "SELECT f_gid, SUM(f_val) FROM t GROUP BY f_gid ORDER BY f_gid",
      "SELECT COUNT(*) FROM t WHERE f_key < 2000",
      "SELECT SUM(f_val) FROM t WHERE d_tag >= 4",
  };
  const std::string updates[] = {
      "UPDATE t SET d_tag = 7 WHERE d_tag = 1",
      "UPDATE t SET f_val2 = 11 WHERE f_gid = 2",
      "UPDATE t SET d_tag = 1 WHERE d_tag = 6",
      "UPDATE t SET f_val2 = 3 WHERE f_val2 = 11",
      "UPDATE t SET d_tag = 5 WHERE d_tag = 7",
      "UPDATE t SET f_val2 = 30 WHERE f_gid = 0",
  };

  std::vector<Submitted> submitted;
  std::size_t u = 0, r = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    const bool is_update = i % 4 == 3;
    const std::string& sql =
        is_update ? updates[u++ % std::size(updates)]
                  : reads[r++ % std::size(reads)];
    submitted.push_back({sql, is_update, service.submit(sql)});
  }

  std::vector<Completed> completed;
  for (Submitted& s : submitted) {
    completed.push_back({s.sql, s.is_update, s.future.get()});
  }
  service.shutdown();

  // Recover the committed order from the update results' log positions.
  std::map<std::uint64_t, const Completed*> update_by_version;
  for (const Completed& c : completed) {
    if (c.is_update) {
      ASSERT_TRUE(c.result.is_update());
      ASSERT_GT(c.result.data_version(), 0u);
      ASSERT_TRUE(
          update_by_version.emplace(c.result.data_version(), &c).second)
          << "two updates committed at one version";
    }
  }
  // Reads sorted by the version they observed.
  std::vector<const Completed*> read_order;
  for (const Completed& c : completed) {
    if (!c.is_update) read_order.push_back(&c);
  }
  std::sort(read_order.begin(), read_order.end(),
            [](const Completed* a, const Completed* b) {
              return a->result.data_version() < b->result.data_version();
            });

  // Serial oracle: one session, one thread, replaying the committed order
  // and executing each read at the version it observed.
  db::Database oracle_db;
  oracle_db.register_table(testutil::make_synthetic_table(700, 123));
  db::SessionOptions oracle_opts = opts;
  oracle_opts.models = shared_models;
  db::Session oracle(oracle_db, oracle_opts);

  std::uint64_t version = 0;
  std::size_t next_read = 0;
  const std::uint64_t final_version = update_by_version.size();
  while (version <= final_version) {
    while (next_read < read_order.size() &&
           read_order[next_read]->result.data_version() == version) {
      const Completed& c = *read_order[next_read++];
      const db::ResultSet serial =
          oracle.execute(c.sql, db::BackendKind::kOneXb);
      const std::string what =
          c.sql + " @v" + std::to_string(version);
      EXPECT_EQ(serial.rows(), c.result.rows()) << what;
      expect_stats_equal(serial.stats(), c.result.stats(), what);
    }
    if (version == final_version) break;
    const Completed& up = *update_by_version.at(version + 1);
    const db::ResultSet serial_up =
        oracle.execute(up.sql, db::BackendKind::kOneXb);
    EXPECT_EQ(serial_up.data_version(), version + 1);
    expect_update_stats_equal(serial_up.update_stats(),
                              up.result.update_stats(),
                              up.sql + " @v" + std::to_string(version + 1));
    ++version;
  }
  EXPECT_EQ(next_read, read_order.size());

  // Final table contents: a fresh session over the concurrent database
  // catches up to the full log; its store must match the oracle's.
  db::Session replayer(database, oracle_opts);
  replayer.execute("SELECT COUNT(*) FROM t", db::BackendKind::kOneXb);
  EXPECT_EQ(replayer.pim_engine(engine::EngineKind::kOneXb)
                .store()
                .contents_checksum(),
            oracle.pim_engine(engine::EngineKind::kOneXb)
                .store()
                .contents_checksum());
}

TEST(HtapDeterminism, MixedWorkloadMatchesSerialOracle1Thread) {
  run_mixed_workload_and_check(1);
}

TEST(HtapDeterminism, MixedWorkloadMatchesSerialOracle2Threads) {
  run_mixed_workload_and_check(2);
}

TEST(HtapDeterminism, MixedWorkloadMatchesSerialOracle8Threads) {
  run_mixed_workload_and_check(8);
}

}  // namespace
}  // namespace bbpim
