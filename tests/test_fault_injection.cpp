// Deterministic fault injection across every named seam: a transient fault
// is retried by the service within its budget and the caller still gets the
// exact rows; an exhausted budget surfaces the typed TransientFault; a
// fatal fault surfaces immediately with zero retries; and a fault striking
// one member of a fused shared-scan batch never disturbs its batchmates'
// rows or semantic stats (the fused pass falls back to solo execution and
// says so via batch_fallbacks). A gathered shared-scan batch whose members
// all fail transiently, at the batch entry or inside its one execution,
// retries every member to the exact answer. Seeded injectors make every
// firing pattern reproducible. Run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "db/db.hpp"
#include "engine/cancel.hpp"
#include "engine/fault_injector.hpp"
#include "engine_test_util.hpp"

namespace bbpim {
namespace {

db::SessionOptions fast_options() {
  db::SessionOptions opts;
  opts.pim = testutil::small_pim_config();
  opts.pim.crossbar_cols = 256;
  opts.verbose = false;
  return opts;
}

db::QueryServiceOptions service_options() {
  db::QueryServiceOptions opts;
  opts.workers = 1;
  opts.session = fast_options();
  return opts;
}

void expect_rows_equal(const db::ResultSet& got, const db::ResultSet& want,
                       const std::string& what) {
  ASSERT_EQ(got.row_count(), want.row_count()) << what;
  ASSERT_EQ(got.column_count(), want.column_count()) << what;
  for (std::size_t r = 0; r < got.row_count(); ++r) {
    for (std::size_t c = 0; c < got.column_count(); ++c) {
      EXPECT_EQ(got.code(r, c), want.code(r, c))
          << what << " row " << r << " col " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Injector mechanics
// ---------------------------------------------------------------------------

TEST(FaultInjector, NthAndEveryCountingIsExact) {
  engine::FaultInjector fi;
  engine::FaultRule rule;
  rule.nth = 2;
  rule.every = 3;  // fires on traversals 2, 5, 8, ...
  fi.arm(engine::FaultSeam::kCrossbarVisit, rule);

  std::vector<std::size_t> fired_at;
  for (std::size_t i = 1; i <= 9; ++i) {
    try {
      fi.traverse(engine::FaultSeam::kCrossbarVisit);
    } catch (const engine::InjectedFault&) {
      fired_at.push_back(i);
    }
  }
  EXPECT_EQ(fired_at, (std::vector<std::size_t>{2, 5, 8}));
  EXPECT_EQ(fi.traversals(engine::FaultSeam::kCrossbarVisit), 9u);
  EXPECT_EQ(fi.fired(engine::FaultSeam::kCrossbarVisit), 3u);
  // Other seams were never touched.
  EXPECT_EQ(fi.traversals(engine::FaultSeam::kReadback), 0u);
}

TEST(FaultInjector, ProbabilisticFiringIsSeedDeterministic) {
  const auto pattern = [](std::uint64_t seed) {
    engine::FaultInjector fi(seed);
    engine::FaultRule rule;
    rule.probability = 0.3;
    fi.arm(engine::FaultSeam::kReadback, rule);
    std::vector<bool> fired;
    for (std::size_t i = 0; i < 64; ++i) {
      try {
        fi.traverse(engine::FaultSeam::kReadback);
        fired.push_back(false);
      } catch (const engine::InjectedFault&) {
        fired.push_back(true);
      }
    }
    return fired;
  };
  const std::vector<bool> a = pattern(42);
  EXPECT_EQ(a, pattern(42)) << "same seed, same firing pattern";
  EXPECT_NE(a, pattern(43)) << "different seed, different pattern";
  EXPECT_NE(a, std::vector<bool>(64, false)) << "p=0.3 over 64 draws fired";
}

TEST(FaultInjector, StallOnlyRuleNeverThrows) {
  engine::FaultInjector fi;
  engine::FaultRule rule;
  rule.stall_us = 10;  // slow-device model: delays, never fails
  fi.arm(engine::FaultSeam::kSnapshotPin, rule);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NO_THROW(fi.traverse(engine::FaultSeam::kSnapshotPin));
  }
  EXPECT_EQ(fi.fired(engine::FaultSeam::kSnapshotPin), 0u);
}

TEST(FaultInjector, UninstalledSeamsAreInert) {
  // No ScopedFaultInjection anywhere: production seams are free no-ops.
  EXPECT_NO_THROW(engine::fault_point(engine::FaultSeam::kPlanBind));
  EXPECT_NO_THROW(engine::fault_point(engine::FaultSeam::kUpdateCommit));
}

// ---------------------------------------------------------------------------
// Every seam, end to end through the service's retry loop
// ---------------------------------------------------------------------------

struct SeamCase {
  engine::FaultSeam seam;
  const char* sql;
  bool is_update;
  bool force_k0;  ///< route the grouped query through host-gb readback
};

const SeamCase kSeamCases[] = {
    {engine::FaultSeam::kPlanBind,
     "SELECT SUM(f_val) AS s FROM synthetic WHERE f_key < 1024", false, false},
    {engine::FaultSeam::kSnapshotPin,
     "SELECT SUM(f_val) AS s FROM synthetic WHERE f_key < 1024", false, false},
    {engine::FaultSeam::kCrossbarVisit,
     "SELECT COUNT(*) FROM synthetic WHERE f_key < 2048", false, false},
    {engine::FaultSeam::kReadback,
     "SELECT f_gid, SUM(f_val) AS s FROM synthetic "
     "WHERE f_key < 2048 GROUP BY f_gid ORDER BY s DESC",
     false, true},
    {engine::FaultSeam::kUpdateCommit,
     "UPDATE synthetic SET f_val = 7 WHERE f_key < 256", true, false},
};

TEST(FaultInjection, TransientFaultAtEverySeamRetriesToTheExactAnswer) {
  for (const SeamCase& c : kSeamCases) {
    SCOPED_TRACE(engine::fault_seam_name(c.seam));
    engine::ExecOptions eopts;
    if (c.force_k0) eopts.force_k = 0;

    // The oracle: the same statement on an identical database, no faults.
    db::Database reference_db;
    reference_db.register_table(testutil::make_synthetic_table(400, 13));
    db::Session reference(reference_db, fast_options());
    const db::ResultSet want =
        reference.execute(c.sql, db::BackendKind::kOneXb, eopts);

    db::Database database;
    database.register_table(testutil::make_synthetic_table(400, 13));
    db::QueryService service(database, service_options());

    engine::FaultInjector fi;
    engine::FaultRule rule;
    rule.nth = 1;  // first traversal fails, the retry's traversal succeeds
    fi.arm(c.seam, rule);
    engine::ScopedFaultInjection scope(fi);

    const db::ResultSet got =
        service.submit(c.sql, db::BackendKind::kOneXb, eopts).get();
    EXPECT_GE(fi.fired(c.seam), 1u);
    EXPECT_GE(service.counters().retries, 1u);
    if (c.is_update) {
      EXPECT_EQ(got.updated_records(), want.updated_records());
      EXPECT_EQ(got.data_version(), 1u)
          << "retried update must commit exactly once";
    } else {
      expect_rows_equal(got, want, c.sql);
    }
  }
}

TEST(FaultInjection, ExhaustedRetryBudgetSurfacesTransientFault) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 13));
  db::QueryService service(database, service_options());

  engine::FaultInjector fi;
  engine::FaultRule rule;
  rule.nth = 1;
  rule.every = 1;  // every traversal fails: no retry can ever succeed
  fi.arm(engine::FaultSeam::kCrossbarVisit, rule);
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> f =
      service.submit("SELECT COUNT(*) FROM synthetic WHERE f_key < 1024");
  EXPECT_THROW(f.get(), engine::TransientFault);
  EXPECT_EQ(service.counters().retries, 2u);  // the service's retry budget
}

TEST(FaultInjection, FatalFaultSurfacesImmediatelyWithoutRetry) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 13));
  db::QueryService service(database, service_options());

  engine::FaultInjector fi;
  engine::FaultRule rule;
  rule.nth = 1;
  rule.transient = false;
  fi.arm(engine::FaultSeam::kCrossbarVisit, rule);
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> f =
      service.submit("SELECT COUNT(*) FROM synthetic WHERE f_key < 1024");
  EXPECT_THROW(f.get(), engine::InjectedFatalFault);
  EXPECT_EQ(service.counters().retries, 0u);
  EXPECT_EQ(fi.fired(engine::FaultSeam::kCrossbarVisit), 1u);

  // The worker survived: the pool keeps serving after the fatal statement.
  const db::ResultSet rs =
      service.submit("SELECT COUNT(*) FROM synthetic WHERE f_key < 1024")
          .get();
  EXPECT_EQ(rs.row_count(), 1u);
}

// ---------------------------------------------------------------------------
// Batch-member isolation under injected faults
// ---------------------------------------------------------------------------

TEST(FaultInjection, FusedBatchMemberFaultNeverCorruptsBatchmates) {
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM synthetic WHERE f_key < 512",
      "SELECT SUM(f_val) AS s FROM synthetic WHERE f_key < 1024",
      "SELECT SUM(f_val2) AS s FROM synthetic WHERE f_gid < 4",
  };

  db::Database reference_db;
  reference_db.register_table(testutil::make_synthetic_table(400, 13));
  db::Session reference(reference_db, fast_options());
  std::vector<db::ResultSet> want;
  for (const std::string& sql : sqls) want.push_back(reference.execute(sql));

  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 13));
  db::Session session(database, fast_options());
  // Bind the plans and build the executor before arming: the fault must
  // strike the fused filter pass itself, not the front end.
  session.execute(sqls[0]);

  engine::FaultInjector fi;
  engine::FaultRule rule;
  rule.nth = 1;  // first fused crossbar visit dies; the solo reruns are clean
  fi.arm(engine::FaultSeam::kCrossbarVisit, rule);
  engine::ScopedFaultInjection scope(fi);

  std::vector<db::Session::BatchItem> items = session.execute_batch(sqls);
  ASSERT_EQ(items.size(), sqls.size());
  EXPECT_EQ(fi.fired(engine::FaultSeam::kCrossbarVisit), 1u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(items[i].error == nullptr) << sqls[i];
    expect_rows_equal(items[i].result, want[i], sqls[i]);
    // Every member was served by the fused pass' solo fallback — and the
    // result says so.
    EXPECT_EQ(items[i].result.stats().batch_fallbacks, 1u) << sqls[i];
  }
}

// ---------------------------------------------------------------------------
// Gathered shared-scan batches through the service's retry loop
// ---------------------------------------------------------------------------

bool wait_until(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(FaultInjection, SharedScanBatchRetriesEachMemberToTheExactAnswer) {
  struct BatchCase {
    const char* name;
    engine::FaultSeam seam;
    std::vector<std::string> sqls;
  };
  const std::string kSum =
      "SELECT SUM(f_val) AS s FROM synthetic WHERE f_key < 1024";
  const BatchCase cases[] = {
      // The batch entry point throws: the one-xb executor's first snapshot
      // pin fails before any member ran.
      {"snapshot pin at batch entry",
       engine::FaultSeam::kSnapshotPin,
       {"SELECT COUNT(*) FROM synthetic WHERE f_key < 512", kSum,
        "SELECT SUM(f_val2) AS s FROM synthetic WHERE f_gid < 4"}},
      // Three submissions of one text intern into one execution inside the
      // batch; the fault kills it, so every member fails transiently.
      {"crossbar visit inside the batch",
       engine::FaultSeam::kCrossbarVisit,
       {kSum, kSum, kSum}},
  };
  for (const BatchCase& c : cases) {
    SCOPED_TRACE(c.name);
    db::Database reference_db;
    reference_db.register_table(testutil::make_synthetic_table(400, 13));
    db::Session reference(reference_db, fast_options());

    db::Database database;
    database.register_table(testutil::make_synthetic_table(400, 13));
    // Bind the members up front (the plan cache is the Database's), so only
    // the occupier below crosses the plan-bind seam.
    db::Session binder(database, fast_options());
    for (const std::string& sql : c.sqls) binder.prepare(sql);

    db::QueryServiceOptions opts = service_options();
    opts.shared_scan.enabled = true;
    opts.shared_scan.max_batch = c.sqls.size();  // the gather ends when full
    db::QueryService service(database, opts);

    // The occupier: an unbound statement on the reference backend stalls in
    // its bind while the members queue behind it. It never pins a PIM
    // snapshot or visits a crossbar, and its backend keeps it from
    // gathering the members, so they gather into one batch after it.
    engine::FaultInjector fi;
    engine::FaultRule stall;
    stall.stall_us = 200'000;
    fi.arm(engine::FaultSeam::kPlanBind, stall);
    engine::FaultRule once;
    once.nth = 1;  // the batch's first crossing fails, the retry's succeeds
    fi.arm(c.seam, once);
    engine::ScopedFaultInjection scope(fi);

    std::future<db::ResultSet> occupier =
        service.submit("SELECT COUNT(*) FROM synthetic WHERE d_tag >= 2",
                       db::BackendKind::kReference);
    ASSERT_TRUE(wait_until([&] { return service.queue_depth() == 0; }))
        << "worker never picked up the occupying statement";
    std::vector<std::future<db::ResultSet>> futures;
    for (const std::string& sql : c.sqls) futures.push_back(service.submit(sql));

    EXPECT_EQ(occupier.get().row_count(), 1u);
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const db::ResultSet got = futures[i].get();
      expect_rows_equal(got, reference.execute(c.sqls[i]), c.sqls[i]);
    }
    EXPECT_EQ(fi.fired(c.seam), 1u);
    // One retry per member: every member failed once, transiently.
    EXPECT_EQ(service.counters().retries, c.sqls.size());
  }
}

}  // namespace
}  // namespace bbpim
