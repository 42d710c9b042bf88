// Cooperative cancellation and per-query deadlines.
//
// A CancelToken is a shared handle to one query's abort state and the only
// carrier of its deadline: the caller arms a wall-clock deadline (before
// submitting to a service, so queue wait counts) and/or flips the cancelled
// flag, and the execution paths check the token at phase boundaries and
// page-loop entries — the points where unwinding is safe and prompt. A
// query never observes a torn state: cancellation only ever takes effect
// between simulator phases, so a cancelled execution either completed a
// phase entirely or never started it.
//
// The empty token is the common case and is free: every check is one null
// test. Deadline checks read the monotonic clock, which is why they live at
// phase granularity rather than inside the per-page kernels.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace bbpim::engine {

/// Base of the cooperative-abort taxonomy: a query that unwound because the
/// caller no longer wants the answer (deadline or explicit cancel), not
/// because anything about the query or the store is wrong.
class QueryAborted : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The query's wall-clock deadline expired before it finished.
class QueryTimeout : public QueryAborted {
 public:
  QueryTimeout() : QueryAborted("query deadline exceeded") {}
  explicit QueryTimeout(const std::string& what) : QueryAborted(what) {}
};

/// The query was explicitly cancelled through its CancelToken.
class QueryCancelled : public QueryAborted {
 public:
  QueryCancelled() : QueryAborted("query cancelled") {}
  explicit QueryCancelled(const std::string& what) : QueryAborted(what) {}
};

/// Shared abort state of one statement. Thread-safe: the submitter (or the
/// service) writes, the executing worker reads.
class CancelState {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Arms (or moves) the wall-clock deadline; epoch-zero clears it.
  void set_deadline(std::chrono::steady_clock::time_point tp) noexcept {
    deadline_ns_.store(tp.time_since_epoch().count(),
                       std::memory_order_release);
  }
  bool expired() const noexcept {
    const auto d = deadline_ns_.load(std::memory_order_acquire);
    return d != 0 &&
           std::chrono::steady_clock::now().time_since_epoch().count() >= d;
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// steady_clock ticks since epoch; 0 = no deadline.
  std::atomic<std::chrono::steady_clock::rep> deadline_ns_{0};
};

/// Value-type handle threaded through ExecOptions. Default-constructed
/// tokens have no state and every check is a no-op, which is what keeps
/// deadline-free serving byte-identical to the pre-cancellation engine.
struct CancelToken {
  std::shared_ptr<CancelState> state;

  bool valid() const noexcept { return state != nullptr; }

  /// True when the query should unwind at the next safe point.
  bool should_stop() const noexcept {
    return state != nullptr && (state->cancelled() || state->expired());
  }

  /// The cooperative checkpoint: throws QueryCancelled / QueryTimeout.
  /// Cancellation wins over expiry when both apply (the caller asked first).
  void check() const {
    if (state == nullptr) return;
    if (state->cancelled()) throw QueryCancelled();
    if (state->expired()) throw QueryTimeout();
  }
};

inline CancelToken make_cancel_token() {
  return CancelToken{std::make_shared<CancelState>()};
}

}  // namespace bbpim::engine
