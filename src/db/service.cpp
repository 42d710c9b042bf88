#include "db/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>

#include "engine/fault_injector.hpp"

namespace bbpim::db {
namespace {

/// Re-executions of a transiently failed statement (engine::TransientFault
/// and subclasses) after its first attempt; anything else is permanent and
/// settles on first throw. Retry k (1-based) backs off
/// min(kRetryBackoffBaseUs << (k-1), kRetryBackoffCapUs).
constexpr std::size_t kMaxRetries = 2;
constexpr std::uint64_t kRetryBackoffBaseUs = 200;
constexpr std::uint64_t kRetryBackoffCapUs = 5'000;

/// Gather-window multiplier once a bounded queue fills past half its depth.
constexpr std::uint64_t kOverloadWindowBoost = 4;

std::uint64_t wall_us(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

bool is_transient(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const engine::TransientFault&) {
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

QueryService::QueryService(Database& db, QueryServiceOptions opts)
    : db_(&db), opts_(std::move(opts)) {
  std::size_t workers = opts_.workers;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }

  // One ModelCache across the pool: the first session's (the caller's, or
  // the one it builds from the template's model_cache_dir), injected into
  // every other worker. Without this, every worker would run its own
  // fitting campaign — the exact duplication fit-once exists to stop.
  sessions_.reserve(workers);
  workers_.reserve(workers);
  SessionOptions worker_opts = opts_.session;
  for (std::size_t i = 0; i < workers; ++i) {
    sessions_.push_back(std::make_unique<Session>(*db_, worker_opts));
    worker_opts.models = sessions_.front()->model_cache();
  }
  try {
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (...) {
    // Thread creation failed partway (e.g. EAGAIN): shut the partial pool
    // down before rethrowing, or destroying the joinable threads would
    // std::terminate.
    {
      std::lock_guard lock(mutex_);
      accepting_ = false;
    }
    work_available_.notify_all();
    for (std::thread& w : workers_) w.join();
    throw;
  }
}

QueryService::~QueryService() { shutdown(); }

std::future<ResultSet> QueryService::enqueue(Task task) {
  std::future<ResultSet> result = task.result.get_future();
  const AdmissionOptions& adm = opts_.admission;
  std::optional<Task> shed_victim;
  {
    std::unique_lock lock(mutex_);
    if (!accepting_) {
      throw ServiceStopped("QueryService: submit after shutdown");
    }
    if (adm.max_queue_depth > 0 && queue_.size() >= adm.max_queue_depth) {
      switch (adm.policy) {
        case OverloadPolicy::kReject:
          ++counters_.rejected;
          throw OverloadError("QueryService: queue full (policy kReject)");
        case OverloadPolicy::kBlock: {
          const bool room = queue_not_full_.wait_for(
              lock, std::chrono::microseconds(adm.block_timeout_us), [&] {
                return !accepting_ || queue_.size() < adm.max_queue_depth;
              });
          if (!accepting_) {
            throw ServiceStopped(
                "QueryService: shutdown while blocked on admission");
          }
          if (!room) {
            ++counters_.rejected;
            throw OverloadError(
                "QueryService: queue full (kBlock wait timed out)");
          }
          break;
        }
        case OverloadPolicy::kShedOldest:
          // The head of the queue is the longest-waiting statement.
          shed_victim = std::move(queue_.front());
          queue_.pop_front();
          ++counters_.shed;
          break;
      }
    }
    task.enqueued = std::chrono::steady_clock::now();
    queue_.push_back(std::move(task));
    counters_.peak_queue_depth =
        std::max(counters_.peak_queue_depth, queue_.size());
  }
  work_available_.notify_one();
  // Settle outside the lock: the submitter waiting on this future may react
  // by grabbing service state.
  if (shed_victim.has_value()) {
    shed_victim->result.set_exception(std::make_exception_ptr(OverloadError(
        "QueryService: shed by a newer submission (policy kShedOldest)")));
  }
  return result;
}

std::future<ResultSet> QueryService::submit(std::string sql_text,
                                            BackendKind backend,
                                            const engine::ExecOptions& opts) {
  Task task;
  // The token (armed by the caller, so queue wait counts against its
  // deadline) rides inside the options the statement executes with.
  task.statement = {std::move(sql_text), opts};
  task.backend = backend;
  return enqueue(std::move(task));
}

std::vector<ResultSet> QueryService::drain(
    std::vector<std::future<ResultSet>> futures) {
  std::vector<ResultSet> out;
  out.reserve(futures.size());
  std::exception_ptr first_error;
  for (std::future<ResultSet>& f : futures) {
    try {
      out.push_back(f.get());
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
      out.emplace_back();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return out;
}

std::vector<ResultSet> QueryService::execute_batch(
    std::span<const std::string> sqls, BackendKind backend) {
  std::vector<std::future<ResultSet>> futures;
  futures.reserve(sqls.size());
  for (const std::string& sql : sqls) futures.push_back(submit(sql, backend));
  return drain(std::move(futures));
}

void QueryService::warm_up(BackendKind backend) {
  {
    std::lock_guard lock(mutex_);
    if (!accepting_) {
      throw ServiceStopped("QueryService: warm_up after shutdown");
    }
  }
  // First touch on the caller's thread: each worker's session pins the
  // table's current snapshot (the shared store loads once, on the first
  // session) and allocates its private pages. Session::executor_for holds
  // the session's executor lock across construction, so this is safe while
  // the workers serve.
  for (const std::unique_ptr<Session>& session : sessions_) {
    session->executor(backend);
  }
}

void QueryService::shutdown() {
  // Sweep still-queued statements out before the workers drain: their
  // submitters get a prompt typed answer instead of a shutdown-length wait.
  std::deque<Task> orphans;
  {
    std::lock_guard lock(mutex_);
    accepting_ = false;
    orphans.swap(queue_);
  }
  work_available_.notify_all();
  queue_not_full_.notify_all();
  for (Task& t : orphans) {
    t.result.set_exception(std::make_exception_ptr(
        ServiceStopped("QueryService: shutdown before execution")));
  }
  std::vector<std::thread> workers;
  {
    std::lock_guard lock(mutex_);
    workers.swap(workers_);  // first caller joins; later calls are no-ops
  }
  for (std::thread& w : workers) w.join();
}

std::size_t QueryService::executed_count() const {
  std::lock_guard lock(mutex_);
  return executed_;
}

std::size_t QueryService::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

QueryService::Counters QueryService::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

void QueryService::settle_success(Task& task, ResultSet rs) {
  rs.set_service_timing(
      wall_us(task.enqueued, task.dequeued),
      wall_us(task.dequeued, std::chrono::steady_clock::now()));
  // Count before fulfilling the promise: a caller that drained its future
  // must never read an executed_count below what it submitted.
  {
    std::lock_guard lock(mutex_);
    ++executed_;
  }
  task.result.set_value(std::move(rs));
}

void QueryService::settle_error(Task& task, std::exception_ptr error) {
  {
    std::lock_guard lock(mutex_);
    ++executed_;
    try {
      std::rethrow_exception(error);
    } catch (const engine::QueryCancelled&) {
      ++counters_.cancelled;
    } catch (const engine::QueryTimeout&) {
      ++counters_.timed_out;
    } catch (...) {
    }
  }
  task.result.set_exception(std::move(error));
}

void QueryService::worker_loop(std::size_t index) {
  Session& session = *sessions_[index];
  const SharedScanOptions& shared = opts_.shared_scan;
  const AdmissionOptions& adm = opts_.admission;
  for (;;) {
    std::vector<Task> batch;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [&] { return !queue_.empty() || !accepting_; });
      if (queue_.empty()) return;  // shutdown requested and queue drained
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      batch.front().dequeued = std::chrono::steady_clock::now();
      queue_not_full_.notify_one();
      // Batch former: gather the other in-flight statements whose admission
      // signature matches the one just popped. The queue is drained of
      // compatible tasks first; when it runs dry the worker waits out the
      // remainder of the gather window for stragglers. Incompatible tasks
      // stay queued for other workers (or for this one's next iteration).
      if (shared.enabled && shared.max_batch > 1) {
        // Copies, not references: gathering grows `batch`, which would
        // invalidate a reference into it.
        const BackendKind head_backend = batch.front().backend;
        const engine::ExecOptions head_opts = batch.front().statement.opts;
        std::uint64_t window_us = shared.gather_window_us;
        // Graceful degradation: a bounded queue past half its depth widens
        // the window so more statements fuse into each page pass —
        // throughput over latency, before admission has to shed anything.
        if (adm.max_queue_depth > 0 &&
            queue_.size() >= (adm.max_queue_depth + 1) / 2) {
          window_us *= kOverloadWindowBoost;
          ++counters_.degraded_gathers;
        }
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::microseconds(window_us);
        while (batch.size() < shared.max_batch) {
          bool gathered = false;
          for (auto it = queue_.begin();
               it != queue_.end() && batch.size() < shared.max_batch;) {
            if (it->backend == head_backend &&
                it->statement.opts == head_opts) {
              it->dequeued = std::chrono::steady_clock::now();
              queue_not_full_.notify_one();
              batch.push_back(std::move(*it));
              it = queue_.erase(it);
              gathered = true;
            } else {
              ++it;
            }
          }
          if (batch.size() >= shared.max_batch) break;
          if (!accepting_) break;  // never stall shutdown for the window
          if (!gathered &&
              work_available_.wait_until(lock, deadline) ==
                  std::cv_status::timeout) {
            break;
          }
        }
      }
    }
    serve(session, std::move(batch));
  }
}

void QueryService::serve(Session& session, std::vector<Task> batch) {
  const BackendKind backend = batch.front().backend;
  for (std::size_t attempt = 0;; ++attempt) {
    // Each statement carries its own options, token included. Every
    // failure comes back on its own item: a statement already dead
    // (deadline spent queued or backing off, caller cancelled) settles
    // typed without costing an execution or dragging live batchmates
    // through a doomed fused pass.
    std::vector<Session::BatchStatement> statements;
    statements.reserve(batch.size());
    for (const Task& t : batch) statements.push_back(t.statement);
    std::vector<Session::BatchItem> items =
        session.execute_batch(statements, backend);
    std::vector<Task> retry;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (items[i].error == nullptr) {
        settle_success(batch[i], std::move(items[i].result));
      } else if (attempt < kMaxRetries && is_transient(items[i].error)) {
        retry.push_back(std::move(batch[i]));
      } else {
        settle_error(batch[i], items[i].error);
      }
    }
    if (retry.empty()) return;
    batch = std::move(retry);
    {
      std::lock_guard lock(mutex_);
      counters_.retries += batch.size();
    }
    // Saturate the shift: the cap binds long before it could overflow.
    const std::uint64_t backoff =
        std::min(kRetryBackoffBaseUs << std::min<std::size_t>(attempt, 16),
                 kRetryBackoffCapUs);
    std::this_thread::sleep_for(std::chrono::microseconds(backoff));
  }
}

}  // namespace bbpim::db
