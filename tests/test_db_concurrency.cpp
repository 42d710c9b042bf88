// Concurrency tests for the bbpim::db layer: QueryService worker pools and
// independent sessions sharing one Database + ModelCache, hammered from many
// threads, must produce results byte-identical to a single-threaded
// reference session (the simulator is deterministic, so "identical" covers
// rows AND simulated stats). Also covers fit-once-under-lock, plan-cache
// thread safety, catalog reads racing registrations, and service lifecycle
// (error propagation, graceful shutdown). Run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <cstddef>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

/// Mixed workload: grouped queries (planner + models), an ungrouped
/// aggregate, and a multi-attribute GROUP BY.
const char* kQueries[] = {
    "SELECT SUM(f_val) AS s FROM synthetic WHERE f_key < 1024",
    "SELECT f_gid, SUM(f_val) AS s FROM synthetic "
    "WHERE f_key < 2048 GROUP BY f_gid ORDER BY s DESC",
    "SELECT d_tag, MIN(f_val) AS lo FROM synthetic "
    "WHERE f_gid IN (0, 2, 3) GROUP BY d_tag ORDER BY d_tag",
    "SELECT f_gid, d_tag, MAX(f_val) AS hi FROM synthetic "
    "WHERE f_key >= 512 GROUP BY f_gid, d_tag ORDER BY f_gid, d_tag",
};
constexpr std::size_t kQueryCount = std::size(kQueries);

/// Byte-identical: rows (group codes + aggregate) and the simulated stats.
void expect_identical(const db::ResultSet& got, const db::ResultSet& want,
                      const std::string& context) {
  ASSERT_EQ(got.row_count(), want.row_count()) << context;
  for (std::size_t i = 0; i < got.row_count(); ++i) {
    EXPECT_EQ(got.rows()[i].group, want.rows()[i].group)
        << context << " row " << i;
    EXPECT_EQ(got.rows()[i].agg, want.rows()[i].agg) << context << " row " << i;
  }
  EXPECT_EQ(got.stats().total_ns, want.stats().total_ns) << context;
  EXPECT_EQ(got.stats().selected_records, want.stats().selected_records)
      << context;
  EXPECT_EQ(got.stats().pim_subgroups, want.stats().pim_subgroups) << context;
  EXPECT_EQ(got.stats().energy_j, want.stats().energy_j) << context;
}

/// One database + the single-threaded reference answers for kQueries.
struct ConcurrencyFixture {
  db::Database database;
  std::vector<db::ResultSet> expected;

  explicit ConcurrencyFixture(std::size_t rows = 500, std::uint64_t seed = 7) {
    database.register_table(testutil::make_synthetic_table(rows, seed));
    db::Session reference(database, fast_options());
    for (const char* sql : kQueries) {
      expected.push_back(reference.execute(sql));
    }
  }
};

// ---------------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------------

TEST(QueryService, BatchMatchesSingleThreadedReference) {
  ConcurrencyFixture fx;
  db::QueryServiceOptions opts;
  opts.workers = 4;
  opts.session = fast_options();
  db::QueryService service(fx.database, opts);
  EXPECT_EQ(service.worker_count(), 4u);
  service.warm_up(db::BackendKind::kOneXb);

  std::vector<std::string> batch;
  for (std::size_t round = 0; round < 3; ++round) {
    for (const char* sql : kQueries) batch.emplace_back(sql);
  }
  const std::vector<db::ResultSet> results = service.execute_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    expect_identical(results[i], fx.expected[i % kQueryCount], batch[i]);
  }
  EXPECT_GE(service.executed_count(), batch.size());
}

TEST(QueryService, ManySubmitterThreadsHammerOnePool) {
  ConcurrencyFixture fx;
  db::QueryServiceOptions opts;
  opts.workers = 3;
  opts.session = fast_options();
  db::QueryService service(fx.database, opts);
  service.warm_up(db::BackendKind::kOneXb);

  constexpr std::size_t kSubmitters = 6;
  constexpr std::size_t kPerThread = 8;
  std::vector<std::thread> submitters;
  std::vector<std::string> failures(kSubmitters);
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t q = (t + i) % kQueryCount;
        try {
          const db::ResultSet rs = service.submit(kQueries[q]).get();
          if (rs.row_count() != fx.expected[q].row_count() ||
              rs.stats().total_ns != fx.expected[q].stats().total_ns) {
            failures[t] = std::string("mismatch on ") + kQueries[q];
            return;
          }
        } catch (const std::exception& e) {
          failures[t] = e.what();
          return;
        }
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
  EXPECT_EQ(service.model_cache()->fit_count(), 1u)
      << "N workers sharing a cache must trigger exactly one fit";
}

TEST(QueryService, FilterCacheStatsCountEachQuerysOwnLookups) {
  // Every worker's view shares the builder's one FilterCache. A result's
  // filter_cache_hits + filter_cache_misses must still be exactly the parts
  // its own execution compiled (one on one-xb), however the other workers'
  // lookups interleave with it.
  ConcurrencyFixture fx;
  db::QueryServiceOptions opts;
  opts.workers = 4;
  opts.session = fast_options();
  db::QueryService service(fx.database, opts);
  service.warm_up(db::BackendKind::kOneXb);

  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kPerThread = 60;
  std::vector<std::thread> submitters;
  std::vector<std::string> failures(kSubmitters);
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<std::future<db::ResultSet>> futures;
      for (std::size_t i = 0; i < kPerThread; ++i) {
        futures.push_back(service.submit(kQueries[(t + i) % kQueryCount]));
      }
      for (std::future<db::ResultSet>& f : futures) {
        const db::ResultSet rs = f.get();
        const engine::QueryStats& s = rs.stats();
        if (s.filter_cache_hits + s.filter_cache_misses != 1) {
          failures[t] = "hits " + std::to_string(s.filter_cache_hits) +
                        " + misses " + std::to_string(s.filter_cache_misses);
        }
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
}

TEST(QueryService, ConcurrentWarmUpCallsAreSerialized) {
  // Concurrent warm_up calls build executors for different backends on the
  // same worker sessions; each session's executor lock serializes them, and
  // the pool serves exactly afterwards.
  ConcurrencyFixture fx;
  db::QueryServiceOptions opts;
  opts.workers = 3;
  opts.session = fast_options();
  db::QueryService service(fx.database, opts);

  std::thread a([&] { service.warm_up(db::BackendKind::kOneXb); });
  std::thread b([&] { service.warm_up(db::BackendKind::kReference); });
  a.join();
  b.join();
  expect_identical(service.submit(kQueries[1]).get(), fx.expected[1],
                   "after concurrent warm_up");
}

TEST(QueryService, ErrorsPropagateWithoutKillingWorkers) {
  ConcurrencyFixture fx;
  db::QueryServiceOptions opts;
  opts.workers = 2;
  opts.session = fast_options();
  db::QueryService service(fx.database, opts);

  EXPECT_THROW(service.submit("NOT SQL AT ALL").get(), std::invalid_argument);
  EXPECT_THROW(service.submit("SELECT SUM(zzz) FROM synthetic").get(),
               std::invalid_argument);
  // A failing query inside a batch surfaces after the batch drains.
  const std::vector<std::string> batch = {kQueries[0], "ALSO NOT SQL"};
  EXPECT_THROW(service.execute_batch(batch), std::invalid_argument);
  // The pool survives all of it.
  expect_identical(service.submit(kQueries[0]).get(), fx.expected[0],
                   kQueries[0]);
}

TEST(QueryService, ShutdownSettlesEveryFutureThenRejects) {
  ConcurrencyFixture fx;
  db::QueryServiceOptions opts;
  opts.workers = 2;
  opts.session = fast_options();
  db::QueryService service(fx.database, opts);

  std::vector<std::future<db::ResultSet>> inflight;
  for (std::size_t i = 0; i < 8; ++i) {
    inflight.push_back(service.submit(kQueries[i % kQueryCount]));
  }
  // Every future settles promptly: statements a worker already picked up
  // complete with the usual byte-identical result, still-queued ones get a
  // typed ServiceStopped instead of silently executing after intake closed.
  service.shutdown();
  std::size_t completed = 0;
  std::size_t stopped = 0;
  for (std::size_t i = 0; i < inflight.size(); ++i) {
    try {
      expect_identical(inflight[i].get(), fx.expected[i % kQueryCount],
                       "in-flight during shutdown");
      ++completed;
    } catch (const db::ServiceStopped&) {
      ++stopped;
    }
  }
  EXPECT_EQ(completed + stopped, inflight.size());
  EXPECT_EQ(service.executed_count(), completed);
  EXPECT_THROW(service.submit(kQueries[0]), db::ServiceStopped);
  EXPECT_THROW(service.submit(kQueries[0]), std::runtime_error)
      << "ServiceStopped must stay a runtime_error for legacy catch sites";
  service.shutdown();  // idempotent
}

// ---------------------------------------------------------------------------
// Independent sessions sharing Database + ModelCache
// ---------------------------------------------------------------------------

TEST(SessionConcurrency, IndependentSessionsShareCacheAndFitOnce) {
  ConcurrencyFixture fx;
  const auto cache = std::make_shared<db::ModelCache>();
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      db::SessionOptions opts = fast_options();
      opts.models = cache;  // shared: the fit must happen exactly once
      db::Session session(fx.database, opts);
      for (std::size_t i = 0; i < kQueryCount; ++i) {
        const std::size_t q = (t + i) % kQueryCount;
        try {
          const db::ResultSet rs = session.execute(kQueries[q]);
          if (rs.row_count() != fx.expected[q].row_count() ||
              rs.stats().total_ns != fx.expected[q].stats().total_ns) {
            failures[t] = std::string("mismatch on ") + kQueries[q];
            return;
          }
        } catch (const std::exception& e) {
          failures[t] = e.what();
          return;
        }
      }
    });
  }
  for (std::thread& s : threads) s.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
  EXPECT_EQ(cache->fit_count(), 1u);
  EXPECT_TRUE(cache->contains(engine::EngineKind::kOneXb));
}

TEST(SessionConcurrency, ConcurrentPrepareOnOneSessionIsSafe) {
  ConcurrencyFixture fx;
  db::Session session(fx.database, fast_options());
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 20; ++i) {
        session.prepare(kQueries[(t + i) % kQueryCount]);
      }
    });
  }
  for (std::thread& s : threads) s.join();
  // The cache holds one shared plan per distinct text.
  const db::PreparedStatement a = session.prepare(kQueries[1]);
  const db::PreparedStatement b = session.prepare(kQueries[1]);
  EXPECT_EQ(&a.bound(), &b.bound());
}

TEST(DatabaseConcurrency, RacingPreparesBindOncePerText) {
  ConcurrencyFixture fx;
  // A text no other test in this fixture prepared: the first racer binds it,
  // the other seven must block on the claim and come back as cache hits.
  const std::string sql =
      "SELECT SUM(f_val) AS s FROM synthetic WHERE f_key < 77";
  const std::uint64_t hits_before = fx.database.plan_cache_hits();
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Fresh session per thread: nothing is memoized session-side, so every
      // prepare goes to the database-scope cache.
      db::Session session(fx.database, fast_options());
      session.prepare(sql);
    });
  }
  for (std::thread& s : threads) s.join();
  // Bind-once: exactly one binder, exactly kThreads - 1 waiters-turned-hits.
  EXPECT_EQ(fx.database.plan_cache_hits() - hits_before, kThreads - 1);

  // The shared plan is one object across sessions.
  db::Session s1(fx.database, fast_options());
  db::Session s2(fx.database, fast_options());
  EXPECT_EQ(&s1.prepare(sql).bound(), &s2.prepare(sql).bound());
}

// ---------------------------------------------------------------------------
// Database catalog under concurrent readers + writers
// ---------------------------------------------------------------------------

TEST(DatabaseConcurrency, CatalogReadsRaceRegistrationsSafely) {
  db::Database database;
  database.register_table(testutil::make_synthetic_table(100, 1));
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kTables = 12;
  std::vector<std::thread> readers;
  std::vector<std::size_t> resolved(kReaders, 0);
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (std::size_t i = 0; i < 300; ++i) {
        const std::string name = "extra" + std::to_string(i % kTables);
        if (database.has_table(name)) {
          resolved[t] += database.table(name).row_count();
        }
        database.resolve_target({name, "synthetic"});
        database.table_names();
        database.catalog_version();
      }
    });
  }
  for (std::size_t i = 0; i < kTables; ++i) {
    rel::Table t = testutil::make_synthetic_table(10, 100 + i);
    database.register_table(
        rel::Table(t.schema(), "extra" + std::to_string(i)));
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(database.table_names().size(), kTables + 1);
}

}  // namespace
}  // namespace bbpim
