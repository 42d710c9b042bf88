// Overload-safe serving: bounded admission under all three policies
// (reject / block / shed-oldest), query deadlines settling both at dequeue
// and mid-execution, graceful degradation (boosted gather windows before
// shedding), shutdown-while-queued settling futures with ServiceStopped
// under every policy, execute_batch's first-failure rethrow ordering, and
// the robustness-off parity pin: with admission unbounded and no deadline,
// serving is byte-identical to a plain Session — rows, semantic stats, and
// modeled time/energy. Deterministic scheduling comes from the fault
// injector's stall rules (a slow-device model), never from sleeps alone.
// Run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "db/db.hpp"
#include "engine/cancel.hpp"
#include "engine/fault_injector.hpp"
#include "engine_test_util.hpp"

namespace bbpim {
namespace {

constexpr const char* kCount =
    "SELECT COUNT(*) FROM synthetic WHERE f_key < 2048";

db::SessionOptions fast_options() {
  db::SessionOptions opts;
  opts.pim = testutil::small_pim_config();
  opts.pim.crossbar_cols = 256;
  return opts;
}

/// A token whose deadline is `us` microseconds from now: its clock starts
/// here, before the statement is submitted or executed.
engine::CancelToken deadline_token(std::uint64_t us) {
  engine::CancelToken token = engine::make_cancel_token();
  token.state->set_deadline(std::chrono::steady_clock::now() +
                            std::chrono::microseconds(us));
  return token;
}

/// Polls until `done` holds or ~2 s pass; the conditions waited on are
/// guaranteed by the stall rules, the timeout only bounds a broken build.
bool wait_until(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

struct Fixture {
  db::Database database;

  explicit Fixture(db::QueryServiceOptions opts = {}) {
    database.register_table(testutil::make_synthetic_table(400, 13));
    opts.workers = opts.workers == 0 ? 1 : opts.workers;
    opts.session = fast_options();
    service.emplace(database, std::move(opts));
    service->warm_up(db::BackendKind::kOneXb);
  }

  /// Parks the single worker inside a long execution (stalled crossbar
  /// visits) and waits until it has taken the statement off the queue, so
  /// subsequent submits deterministically land in the queue. Options that
  /// differ from the later submits' keep the occupying statement from
  /// gathering them into its own batch.
  std::future<db::ResultSet> occupy_worker(
      const engine::ExecOptions& opts = {}) {
    std::future<db::ResultSet> f =
        service->submit(kCount, db::BackendKind::kOneXb, opts);
    if (!wait_until([&] { return service->queue_depth() == 0; })) {
      ADD_FAILURE() << "worker never picked up the occupying statement";
    }
    return f;
  }

  std::optional<db::QueryService> service;
};

/// Slow-device model: every crossbar visit sleeps, making one statement's
/// execution long enough to fill queues deterministically.
engine::FaultRule stall_rule(std::uint64_t us) {
  engine::FaultRule rule;
  rule.stall_us = us;
  return rule;
}

// ---------------------------------------------------------------------------
// Admission policies
// ---------------------------------------------------------------------------

TEST(ServiceOverload, RejectPolicyRefusesWithTypedError) {
  db::QueryServiceOptions opts;
  opts.admission.max_queue_depth = 2;
  opts.admission.policy = db::OverloadPolicy::kReject;
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(20'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::vector<std::future<db::ResultSet>> queued;
  queued.push_back(fx.service->submit(kCount));
  queued.push_back(fx.service->submit(kCount));
  EXPECT_EQ(fx.service->queue_depth(), 2u);
  EXPECT_THROW(fx.service->submit(kCount), db::OverloadError);
  EXPECT_THROW(fx.service->submit(kCount), db::ServiceError)
      << "OverloadError must stay catchable as ServiceError";

  // Admitted statements are unharmed by the rejections.
  EXPECT_EQ(busy.get().row_count(), 1u);
  for (std::future<db::ResultSet>& f : queued) {
    EXPECT_EQ(f.get().row_count(), 1u);
  }
  const db::QueryService::Counters counters = fx.service->counters();
  EXPECT_EQ(counters.rejected, 2u);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.peak_queue_depth, 2u);
  EXPECT_EQ(fx.service->executed_count(), 3u);  // occupier + 2 queued
}

TEST(ServiceOverload, BlockPolicyAppliesBackpressureThenAdmits) {
  db::QueryServiceOptions opts;
  opts.admission.max_queue_depth = 1;
  opts.admission.policy = db::OverloadPolicy::kBlock;
  opts.admission.block_timeout_us = 10'000'000;
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(5'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::future<db::ResultSet> queued = fx.service->submit(kCount);
  // The queue is full: this submit must block until the worker frees the
  // slot by dequeuing `queued`, then be admitted and eventually served.
  std::future<db::ResultSet> blocked = fx.service->submit(kCount);
  EXPECT_EQ(busy.get().row_count(), 1u);
  EXPECT_EQ(queued.get().row_count(), 1u);
  EXPECT_EQ(blocked.get().row_count(), 1u);
  EXPECT_EQ(fx.service->counters().rejected, 0u);
  EXPECT_EQ(fx.service->counters().shed, 0u);
}

TEST(ServiceOverload, BlockPolicyTimesOutIntoOverloadError) {
  db::QueryServiceOptions opts;
  opts.admission.max_queue_depth = 1;
  opts.admission.policy = db::OverloadPolicy::kBlock;
  opts.admission.block_timeout_us = 2'000;  // give up fast
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(50'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::future<db::ResultSet> queued = fx.service->submit(kCount);
  EXPECT_THROW(fx.service->submit(kCount), db::OverloadError);
  EXPECT_EQ(fx.service->counters().rejected, 1u);
  EXPECT_EQ(busy.get().row_count(), 1u);
  EXPECT_EQ(queued.get().row_count(), 1u);
}

TEST(ServiceOverload, ShedOldestDropsTheLongestWaitingStatement) {
  db::QueryServiceOptions opts;
  opts.admission.max_queue_depth = 2;
  opts.admission.policy = db::OverloadPolicy::kShedOldest;
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(20'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::future<db::ResultSet> oldest = fx.service->submit(kCount);
  std::future<db::ResultSet> second = fx.service->submit(kCount);
  // Queue full: admitting `newest` sheds `oldest`, whose future settles
  // with the typed overload error; nothing else is disturbed.
  std::future<db::ResultSet> newest = fx.service->submit(kCount);
  EXPECT_THROW(oldest.get(), db::OverloadError);
  EXPECT_EQ(fx.service->queue_depth(), 2u);
  EXPECT_EQ(busy.get().row_count(), 1u);
  EXPECT_EQ(second.get().row_count(), 1u);
  EXPECT_EQ(newest.get().row_count(), 1u);
  const db::QueryService::Counters counters = fx.service->counters();
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.rejected, 0u);
  // Shed statements never executed: occupier + second + newest.
  EXPECT_EQ(fx.service->executed_count(), 3u);
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation
// ---------------------------------------------------------------------------

TEST(ServiceOverload, DeadlineSpentInQueueSettlesWithoutExecuting) {
  db::QueryServiceOptions opts;
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(20'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  // Armed before submit: it expires while queued behind the stalled worker.
  engine::ExecOptions doomed;
  doomed.cancel = deadline_token(1);
  std::future<db::ResultSet> f =
      fx.service->submit(kCount, db::BackendKind::kOneXb, doomed);
  EXPECT_THROW(f.get(), engine::QueryTimeout);
  EXPECT_EQ(busy.get().row_count(), 1u);
  EXPECT_EQ(fx.service->counters().timed_out, 1u);
}

TEST(ServiceOverload, DeadlineExpiresMidExecution) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 13));
  db::Session session(database, fast_options());
  session.execute(kCount);  // bind + pin outside the stalled region

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(5'000));
  engine::ScopedFaultInjection scope(fi);

  engine::ExecOptions opts;
  opts.cancel = deadline_token(2'000);  // shorter than one stalled visit
  EXPECT_THROW(session.execute(kCount, db::BackendKind::kOneXb, opts),
               engine::QueryTimeout);
}

TEST(ServiceOverload, ExplicitCancellationWinsOverExpiry) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 13));
  db::Session session(database, fast_options());

  engine::ExecOptions opts;
  opts.cancel = deadline_token(1);
  opts.cancel.state->cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // both apply
  EXPECT_THROW(session.execute(kCount, db::BackendKind::kOneXb, opts),
               engine::QueryCancelled);
}

TEST(ServiceOverload, CancelledBatchMemberLeavesBatchmatesExact) {
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

  std::vector<db::Session::BatchStatement> statements;
  for (const std::string& sql : sqls) statements.push_back({sql, {}});
  statements[1].opts.cancel = engine::make_cancel_token();
  statements[1].opts.cancel.state->cancel();
  std::vector<db::Session::BatchItem> items =
      session.execute_batch(statements, db::BackendKind::kOneXb);
  ASSERT_EQ(items.size(), sqls.size());
  ASSERT_TRUE(items[1].error != nullptr);
  EXPECT_THROW(std::rethrow_exception(items[1].error),
               engine::QueryCancelled);
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(items[i].error == nullptr) << sqls[i];
    ASSERT_EQ(items[i].result.row_count(), want[i].row_count()) << sqls[i];
    for (std::size_t c = 0; c < items[i].result.column_count(); ++c) {
      EXPECT_EQ(items[i].result.code(0, c), want[i].code(0, c)) << sqls[i];
    }
    // Identical selection work to a solo run of the same statement.
    EXPECT_EQ(items[i].result.stats().selected_records,
              want[i].stats().selected_records)
        << sqls[i];
    // The dead member settled before binding: the two live statements
    // shared one fused pass, and nothing fell back.
    EXPECT_EQ(items[i].result.batched_queries(), 2u) << sqls[i];
    EXPECT_EQ(items[i].result.stats().batch_fallbacks, 0u) << sqls[i];
  }
}

TEST(ServiceOverload, TokenedDuplicateIsNotInternedWithItsTwin) {
  const std::string sql =
      "SELECT SUM(f_val) AS s FROM synthetic WHERE f_key < 1024";
  db::Database reference_db;
  reference_db.register_table(testutil::make_synthetic_table(400, 13));
  db::Session reference(reference_db, fast_options());
  const db::ResultSet want =
      reference.execute(sql, db::BackendKind::kReference);

  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 13));
  db::Session session(database, fast_options());
  std::vector<db::Session::BatchStatement> statements = {{sql, {}},
                                                          {sql, {}}};
  statements[1].opts.cancel = deadline_token(60'000'000);  // live
  std::vector<db::Session::BatchItem> items = session.execute_batch(statements);
  ASSERT_EQ(items.size(), 2u);
  for (const db::Session::BatchItem& item : items) {
    ASSERT_TRUE(item.error == nullptr);
    ASSERT_EQ(item.result.row_count(), want.row_count());
    for (std::size_t c = 0; c < want.column_count(); ++c) {
      EXPECT_EQ(item.result.code(0, c), want.code(0, c));
    }
    // Two executions fused into one pass, not one execution shared: an
    // interned pair would report 2 without a fused page visit.
    EXPECT_EQ(item.result.batched_queries(), 2u);
    EXPECT_GT(item.result.stats().fused_page_passes, 0u);
  }
}

TEST(ServiceOverload, StoppedTokenAbortsEveryBackend) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(400, 13));
  db::Session session(database, fast_options());
  engine::ExecOptions cancelled;
  cancelled.cancel = engine::make_cancel_token();
  cancelled.cancel.state->cancel();
  engine::ExecOptions expired;
  expired.cancel = deadline_token(0);
  for (const db::BackendKind backend :
       {db::BackendKind::kOneXb, db::BackendKind::kTwoXb,
        db::BackendKind::kPimdb, db::BackendKind::kColumnar,
        db::BackendKind::kReference}) {
    EXPECT_THROW(session.execute(kCount, backend, cancelled),
                 engine::QueryCancelled)
        << db::backend_name(backend);
    EXPECT_THROW(session.execute(kCount, backend, expired),
                 engine::QueryTimeout)
        << db::backend_name(backend);
  }
}

// ---------------------------------------------------------------------------
// warm_up: executor construction beside the queue, never through it
// ---------------------------------------------------------------------------

TEST(ServiceOverload, WarmUpLeavesNoServingTrace) {
  Fixture fx;  // warmed on one-xb by the fixture
  fx.service->warm_up(db::BackendKind::kReference);
  EXPECT_EQ(fx.service->executed_count(), 0u);
  EXPECT_EQ(fx.service->queue_depth(), 0u);
  EXPECT_EQ(fx.service->counters().peak_queue_depth, 0u);
}

TEST(ServiceOverload, WarmUpReturnsWhileRejectQueueIsFullAndWorkerStalled) {
  db::QueryServiceOptions opts;
  opts.admission.max_queue_depth = 2;
  opts.admission.policy = db::OverloadPolicy::kReject;
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(200'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::vector<std::future<db::ResultSet>> queued;
  queued.push_back(fx.service->submit(kCount));
  queued.push_back(fx.service->submit(kCount));
  ASSERT_EQ(fx.service->queue_depth(), 2u);
  // Neither admission nor the stalled worker stands in the way: warm_up
  // builds the two-xb executors on this thread.
  fx.service->warm_up(db::BackendKind::kTwoXb);
  EXPECT_EQ(busy.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the stall outlasts the warm-up";
  EXPECT_EQ(fx.service->queue_depth(), 2u);

  EXPECT_EQ(busy.get().row_count(), 1u);
  for (std::future<db::ResultSet>& f : queued) {
    EXPECT_EQ(f.get().row_count(), 1u);
  }
  EXPECT_EQ(fx.service->counters().rejected, 0u);
  EXPECT_EQ(fx.service->executed_count(), 3u);
}

TEST(ServiceOverload, WarmUpAfterShutdownThrowsServiceStopped) {
  Fixture fx;
  fx.service->shutdown();
  EXPECT_THROW(fx.service->warm_up(db::BackendKind::kOneXb),
               db::ServiceStopped);
}

// ---------------------------------------------------------------------------
// Graceful degradation: boosted gather windows before shedding
// ---------------------------------------------------------------------------

TEST(ServiceOverload, PressureBoostsGatherWindowBeforeShedding) {
  db::QueryServiceOptions opts;
  opts.shared_scan.enabled = true;
  opts.shared_scan.max_batch = 8;
  opts.shared_scan.gather_window_us = 100;
  opts.admission.max_queue_depth = 4;
  opts.admission.policy = db::OverloadPolicy::kShedOldest;
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(10'000));
  engine::ScopedFaultInjection scope(fi);

  // Admission-incompatible occupant: its own gather window must not absorb
  // the four statements queued behind it.
  engine::ExecOptions scalar;
  scalar.sim_scalar = true;
  std::future<db::ResultSet> busy = fx.occupy_worker(scalar);
  std::vector<std::future<db::ResultSet>> queued;
  for (std::size_t i = 0; i < 4; ++i) {
    queued.push_back(fx.service->submit(kCount));
  }
  EXPECT_EQ(busy.get().row_count(), 1u);
  for (std::future<db::ResultSet>& f : queued) {
    EXPECT_EQ(f.get().row_count(), 1u);
  }
  const db::QueryService::Counters counters = fx.service->counters();
  // The queue sat past half its bound when the worker came back for more:
  // that gather must have run with the widened window (and, with the queue
  // never over its bound, nothing was shed).
  EXPECT_GE(counters.degraded_gathers, 1u);
  EXPECT_EQ(counters.shed, 0u);
}

// ---------------------------------------------------------------------------
// Shutdown while statements are queued, under every policy
// ---------------------------------------------------------------------------

class ShutdownWhileQueued
    : public ::testing::TestWithParam<db::OverloadPolicy> {};

TEST_P(ShutdownWhileQueued, SettlesQueuedFuturesWithServiceStopped) {
  db::QueryServiceOptions opts;
  opts.admission.max_queue_depth = 8;
  opts.admission.policy = GetParam();
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(20'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::vector<std::future<db::ResultSet>> queued;
  for (std::size_t i = 0; i < 3; ++i) {
    queued.push_back(fx.service->submit(kCount));
  }
  fx.service->shutdown();
  // The in-flight statement completes; every queued future settles promptly
  // with the typed shutdown error; intake is closed.
  EXPECT_EQ(busy.get().row_count(), 1u);
  for (std::future<db::ResultSet>& f : queued) {
    EXPECT_THROW(f.get(), db::ServiceStopped);
  }
  EXPECT_THROW(fx.service->submit(kCount), db::ServiceStopped);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ShutdownWhileQueued,
                         ::testing::Values(db::OverloadPolicy::kReject,
                                           db::OverloadPolicy::kBlock,
                                           db::OverloadPolicy::kShedOldest));

TEST(ServiceOverload, ShutdownReleasesBlockedSubmitters) {
  db::QueryServiceOptions opts;
  opts.admission.max_queue_depth = 1;
  opts.admission.policy = db::OverloadPolicy::kBlock;
  opts.admission.block_timeout_us = 10'000'000;
  Fixture fx(opts);

  engine::FaultInjector fi;
  fi.arm(engine::FaultSeam::kCrossbarVisit, stall_rule(50'000));
  engine::ScopedFaultInjection scope(fi);

  std::future<db::ResultSet> busy = fx.occupy_worker();
  std::future<db::ResultSet> queued = fx.service->submit(kCount);
  // This submitter parks on the full queue; shutdown must release it with
  // the typed error instead of letting it ride out the 10 s timeout.
  std::thread blocked([&] {
    EXPECT_THROW(fx.service->submit(kCount), db::ServiceStopped);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  fx.service->shutdown();
  blocked.join();
  EXPECT_EQ(busy.get().row_count(), 1u);
  EXPECT_THROW(queued.get(), db::ServiceStopped);
}

// ---------------------------------------------------------------------------
// execute_batch rethrow ordering
// ---------------------------------------------------------------------------

TEST(ServiceOverload, ExecuteBatchRethrowsTheFirstFailureByInputOrder) {
  Fixture fx;

  engine::FaultInjector fi;
  engine::FaultRule fatal;
  fatal.nth = 1;
  fatal.transient = false;
  fi.arm(engine::FaultSeam::kUpdateCommit, fatal);
  engine::ScopedFaultInjection scope(fi);

  const std::string update = "UPDATE synthetic SET f_val = 7 WHERE f_key < 64";
  // Index 1 fails with the injected fatal fault, index 2 with a parse
  // error; input order decides which one the batch call rethrows.
  const std::vector<std::string> fatal_first = {kCount, update, "NOT SQL"};
  EXPECT_THROW(fx.service->execute_batch(fatal_first),
               engine::InjectedFatalFault);

  const std::vector<std::string> parse_first = {kCount, "NOT SQL", kCount};
  EXPECT_THROW(fx.service->execute_batch(parse_first), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Robustness-off parity and serving timings
// ---------------------------------------------------------------------------

TEST(ServiceOverload, DefaultsServeByteIdenticalToPlainSession) {
  const std::vector<std::string> sqls = {
      kCount,
      "SELECT SUM(f_val) AS s FROM synthetic WHERE f_key < 1024",
      "SELECT f_gid, SUM(f_val) AS s FROM synthetic "
      "WHERE f_key < 2048 GROUP BY f_gid ORDER BY s DESC",
  };
  db::Database reference_db;
  reference_db.register_table(testutil::make_synthetic_table(400, 13));
  db::Session reference(reference_db, fast_options());
  std::vector<db::ResultSet> want;
  for (const std::string& sql : sqls) want.push_back(reference.execute(sql));

  Fixture fx;  // admission unbounded, no deadlines: robustness all off
  for (std::size_t i = 0; i < sqls.size(); ++i) {
    const db::ResultSet got = fx.service->submit(sqls[i]).get();
    ASSERT_EQ(got.row_count(), want[i].row_count()) << sqls[i];
    for (std::size_t r = 0; r < got.row_count(); ++r) {
      for (std::size_t c = 0; c < got.column_count(); ++c) {
        EXPECT_EQ(got.code(r, c), want[i].code(r, c)) << sqls[i];
      }
    }
    // Byte-identical modeled execution, not just rows: admission, tokens,
    // and seams must cost nothing when unused.
    EXPECT_EQ(got.stats().total_ns, want[i].stats().total_ns) << sqls[i];
    EXPECT_EQ(got.stats().energy_j, want[i].stats().energy_j) << sqls[i];
    EXPECT_EQ(got.stats().selected_records, want[i].stats().selected_records)
        << sqls[i];
    // Serving-layer wall timings ride along without touching the model.
    EXPECT_GT(got.service_us() + got.queue_wait_us(), 0u) << sqls[i];
    EXPECT_EQ(want[i].service_us(), 0u) << "plain sessions carry no timings";
  }
  const db::QueryService::Counters counters = fx.service->counters();
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.timed_out, 0u);
  EXPECT_EQ(counters.cancelled, 0u);
  EXPECT_EQ(counters.retries, 0u);
}

}  // namespace
}  // namespace bbpim
