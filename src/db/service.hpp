// QueryService: concurrent query serving over one Database.
//
// A fixed pool of std::thread workers drains one FIFO queue of submitted
// statements; each worker owns a private Session (per-worker session
// affinity), so the stateful PIM executors — private scratch the simulator
// mutates per query — are never shared across threads. What IS shared is
// thread-safe: the Database catalog (shared-locked reads), one ModelCache
// (fit-once under lock: N workers needing the same engine kind trigger
// exactly one fitting campaign), and the per-table snapshot store — every
// worker's executor pins the same immutable StoreSnapshot for its data
// version, so there is no per-worker data replica and no catch-up replay. The simulator is
// deterministic, so a query returns byte-identical rows and stats no
// matter which worker serves it.
//
// Every set of statements a worker takes off the queue — a lone statement
// or a shared-scan batch — is served by one function through
// Session::execute_batch; the members that fail transiently re-run through
// the same call. Each queued statement carries its own ExecOptions as
// submitted, token included, and hands them to that call unchanged.
//
//   db::QueryService service(database, {.workers = 4});
//   std::future<db::ResultSet> f = service.submit(
//       "SELECT region, SUM(qty) FROM sales GROUP BY region");
//   db::ResultSet rs = f.get();      // rethrows parse/bind/exec errors
//
// Overload safety (all off by default — the defaults serve exactly like the
// pre-admission service):
//   - AdmissionOptions bounds the queue; a full queue rejects, blocks, or
//     sheds the longest-waiting statement depending on the policy.
//   - A deadline lives on the statement's ExecOptions::cancel token, which
//     the caller arms (CancelState::set_deadline) before submit(), so time
//     spent queued counts; Session::execute_batch settles already-expired
//     statements with engine::QueryTimeout without binding them, and the
//     engine aborts in-flight ones cooperatively at phase boundaries.
//   - Failures classified transient (engine::TransientFault) are retried
//     with capped exponential backoff, at most twice.
//   - shutdown() settles still-queued statements with ServiceStopped;
//     statements a worker already picked up complete normally.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "db/backend.hpp"
#include "db/database.hpp"
#include "db/errors.hpp"
#include "db/result_set.hpp"
#include "db/session.hpp"
#include "engine/cancel.hpp"
#include "engine/query_exec.hpp"

namespace bbpim::db {

/// What submit() does when the bounded queue is full.
enum class OverloadPolicy {
  /// Refuse the new statement immediately with OverloadError.
  kReject,
  /// Block the submitter until a slot frees (producer backpressure), up to
  /// AdmissionOptions::block_timeout_us; then OverloadError.
  kBlock,
  /// Admit the new statement by dropping the longest-waiting queued one,
  /// settling its future with OverloadError.
  kShedOldest,
};

/// Bounded admission: every queued statement counts against the depth.
struct AdmissionOptions {
  /// Most statements that may wait in the queue. 0 = unbounded (the
  /// pre-admission behavior).
  std::size_t max_queue_depth = 0;
  OverloadPolicy policy = OverloadPolicy::kReject;
  /// kBlock only: how long a submitter waits for a slot before the service
  /// gives up and rejects.
  std::uint64_t block_timeout_us = 1'000'000;
};

/// Shared-scan admission (the batch former). When enabled, a worker that
/// pops a submitted statement gathers the other in-flight statements with a
/// matching (backend, options) signature — waiting out a small window for
/// stragglers when the queue runs dry — and serves the whole set through
/// Session::execute_batch: single-table SELECTs over one table fuse into
/// ONE pass over its pages, duplicates of one statement execute once, and
/// everything else runs exactly as today. Per-statement results and errors
/// land on each submitter's future as usual; rows and semantic stats are
/// byte-identical to unbatched serving. Off by default — solo executions
/// then stay byte-identical to the pre-batching service, modeled
/// time/energy included.
struct SharedScanOptions {
  bool enabled = false;
  /// Most statements one fused pass may serve.
  std::size_t max_batch = 8;
  /// How long the batch former keeps waiting for companions once it holds
  /// at least one statement and the queue is empty.
  std::uint64_t gather_window_us = 200;
};

struct QueryServiceOptions {
  /// Worker threads (each with a private Session). 0 = hardware concurrency
  /// (at least 1).
  std::size_t workers = 0;
  /// Template for every worker's session. When `session.models` is null the
  /// first worker's ModelCache (built from `model_cache_dir`) is injected
  /// into all the others, preserving fit-once across the pool.
  SessionOptions session;
  /// Shared-scan batched execution of concurrent submissions.
  SharedScanOptions shared_scan;
  /// Bounded admission; unbounded by default.
  AdmissionOptions admission;
};

class QueryService {
 public:
  /// Robustness telemetry since construction (monotonic, mutex-consistent).
  struct Counters {
    std::size_t rejected = 0;      ///< admissions refused (kReject, or kBlock
                                   ///< wait timeout)
    std::size_t shed = 0;          ///< queued statements dropped (kShedOldest)
    std::size_t timed_out = 0;     ///< futures settled with QueryTimeout
    std::size_t cancelled = 0;     ///< futures settled with QueryCancelled
    std::size_t retries = 0;       ///< transient-failure re-executions
    std::size_t degraded_gathers = 0;  ///< gathers run with the boosted window
    std::size_t peak_queue_depth = 0;  ///< high-water mark of queue_depth()
  };

  explicit QueryService(Database& db, QueryServiceOptions opts = {});
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // --- asynchronous serving ----------------------------------------------
  /// Enqueues one statement on `backend` — SELECT or UPDATE; the
  /// pool serves mixed read/write traffic. An UPDATE executed by any worker
  /// goes through the table's SnapshotManager: Algorithm 1 runs once in the
  /// shared builder store under the exclusive writer gate, commits to the
  /// per-table update log, and publishes a copy-on-write successor
  /// snapshot. Other workers keep serving their pinned snapshot untouched
  /// and re-pin (a pointer swap, no replay) before their next execution on
  /// that table, so reads anywhere observe a consistent log prefix
  /// (reported by ResultSet::data_version). The future delivers the
  /// ResultSet, or rethrows whatever the statement raised on the worker.
  /// Throws ServiceStopped once shutdown() has been called, OverloadError
  /// when bounded admission refuses the statement. `opts` ride with the
  /// statement to the engine unchanged, `opts.cancel` included: a deadline
  /// armed on it before this call counts queue wait.
  std::future<ResultSet> submit(std::string sql_text,
                                BackendKind backend = BackendKind::kOneXb,
                                const engine::ExecOptions& opts = {});

  // --- synchronous batches -----------------------------------------------
  /// Submits the whole batch, then blocks; results come back in input
  /// order. The first failing query's exception is rethrown after the
  /// remaining queries finished (workers never die with the batch).
  std::vector<ResultSet> execute_batch(
      std::span<const std::string> sqls,
      BackendKind backend = BackendKind::kOneXb);

  /// Builds every worker session's executor for the default target on
  /// `backend`, on the caller's thread and without touching the queue — the
  /// one shared snapshot-store load and the per-worker page allocation
  /// happen here, not inside the first timed queries (scratch groups are
  /// allocated by the first query that writes them). Safe while workers
  /// serve. Benches call this before the clock starts. Latency models are
  /// not fitted here: only single-table GROUP-BY statements read them, so
  /// a caller that times those fits first through model_cache()->get_or_fit.
  /// Throws ServiceStopped once shutdown() has been called.
  void warm_up(BackendKind backend);

  /// Stops intake, settles still-queued statements with ServiceStopped
  /// (statements already picked up by a worker complete normally), joins
  /// the workers. Idempotent; the destructor calls it.
  void shutdown();

  std::size_t worker_count() const { return sessions_.size(); }
  /// Queries completed (successfully or not) since construction. Rejected
  /// and shed statements never executed and are counted in counters(), not
  /// here.
  std::size_t executed_count() const;
  /// Statements currently waiting in the queue.
  std::size_t queue_depth() const;
  Counters counters() const;
  const std::shared_ptr<ModelCache>& model_cache() const {
    return sessions_.front()->model_cache();
  }

 private:
  struct Task {
    /// The text and the options as submitted: the one carrier of the
    /// caller's cancellation token (armed before submit(), so queue wait
    /// counts against its deadline) all the way to the engine's pass.
    Session::BatchStatement statement;
    BackendKind backend = BackendKind::kOneXb;
    std::promise<ResultSet> result;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point dequeued;
  };

  std::future<ResultSet> enqueue(Task task);
  /// Blocks on every future in order; rethrows the first failure only after
  /// the whole set completed (workers never die with a batch).
  static std::vector<ResultSet> drain(
      std::vector<std::future<ResultSet>> futures);
  void worker_loop(std::size_t index);
  /// Serves one dequeued set (all of one backend and option signature)
  /// through session.execute_batch and settles every promise. Members
  /// already dead come back settled without executing; members that failed
  /// with engine::TransientFault re-run through the same call within the
  /// retry budget.
  void serve(Session& session, std::vector<Task> batch);
  void settle_success(Task& task, ResultSet rs);
  /// Settles with `error`, counting it (timed_out/cancelled/executed_).
  void settle_error(Task& task, std::exception_ptr error);

  Database* db_;
  QueryServiceOptions opts_;
  /// One session per worker, index-aligned with workers_; built before the
  /// threads start. Only its own worker executes on it; warm_up may build
  /// its executors concurrently (Session::executor_for locks).
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  /// kBlock submitters park here; workers signal after dequeuing.
  std::condition_variable queue_not_full_;
  std::deque<Task> queue_;
  bool accepting_ = true;
  std::size_t executed_ = 0;
  Counters counters_;
};

}  // namespace bbpim::db
