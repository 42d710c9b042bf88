// Memo: the one compute-once cache behind every piece of derived state —
// bound plans, latency models, compiled filters, page classifications and
// the planner's distinct/co-occurrence statistics.
//
// Values are immutable once published and handed out as
// shared_ptr<const Value>, so a hit costs one refcount bump and a successor
// version can share an entry by pointer instead of copying it.
//
//   Memo<std::string, CompiledFilter> memo(512);
//   auto [program, hit] = memo.get_or_compute(key, [&] { return compile(); });
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>

namespace bbpim {

/// Thread-safe single-flight memo from Key to an immutable Value.
///
/// get_or_compute runs `fn` at most once per key at a time, outside the
/// lock: a caller racing an in-flight computation of the same key waits for
/// it and leaves with a hit. A throwing `fn` drops its claim and rethrows;
/// one waiter then claims the key and computes again. Keys are compared
/// with std::less<>, so a string-keyed memo looks up by string_view without
/// allocating.
///
/// A memo with a capacity clears every entry when a publish would exceed
/// it (an adversarial stream of distinct keys cannot grow it without
/// bound); a memo without one (capacity 0) never drops an entry, so
/// references into its values stay valid for its lifetime.
template <class Key, class Value>
class Memo {
 public:
  using Ptr = std::shared_ptr<const Value>;

  /// The value and whether this call found it (or waited for another
  /// caller's computation) rather than computing it.
  struct Lookup {
    Ptr value;
    bool hit = false;
  };

  explicit Memo(std::size_t capacity = 0) : capacity_(capacity) {}
  /// A successor's memo: shares the published entries of `src` whose key
  /// satisfies `keep`, by pointer. Capacity carries over; counters start at
  /// zero; computations in flight in `src` do not carry over. `keep` runs
  /// under `src`'s lock and must not call back into it.
  template <class Keep>
  Memo(const Memo& src, Keep keep) : capacity_(src.capacity_) {
    std::lock_guard lock(src.mutex_);
    for (const auto& [key, value] : src.entries_) {
      if (keep(key)) entries_.emplace_hint(entries_.end(), key, value);
    }
  }
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// The memoized value for `key`, computing it with `fn()` (which returns
  /// a Value) on a miss. Counts one hit or one miss per call.
  template <class K, class Fn>
  Lookup get_or_compute(const K& key, Fn&& fn) const {
    std::unique_lock lock(mutex_);
    // Wait out another caller's computation of this key: it either
    // published (a hit) or threw (the key is ours to claim).
    ready_.wait(lock, [&] { return pending_.find(key) == pending_.end(); });
    if (const auto it = entries_.find(key); it != entries_.end()) {
      ++hits_;
      return {it->second, true};
    }
    ++misses_;
    pending_.emplace(key);
    lock.unlock();
    Ptr value;
    try {
      value = std::make_shared<const Value>(std::invoke(fn));
    } catch (...) {
      lock.lock();
      pending_.erase(pending_.find(key));
      ready_.notify_all();
      throw;
    }
    lock.lock();
    pending_.erase(pending_.find(key));
    if (capacity_ != 0 && entries_.size() >= capacity_) entries_.clear();
    entries_.emplace(Key(key), value);
    ready_.notify_all();
    return {std::move(value), false};
  }

  /// The published value for `key`, or nullptr. Counts nothing.
  template <class K>
  Ptr find(const K& key) const {
    std::lock_guard lock(mutex_);
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second;
  }

  /// Publishes `value` under `key` unless an entry is already there.
  /// Returns whether it was published.
  bool put(Key key, Value value) {
    std::lock_guard lock(mutex_);
    if (entries_.count(key) != 0) return false;
    if (capacity_ != 0 && entries_.size() >= capacity_) entries_.clear();
    entries_.emplace(std::move(key),
                     std::make_shared<const Value>(std::move(value)));
    return true;
  }

  /// Published entries whose key satisfies `pred` (run under the lock, so
  /// it must not call back into the memo).
  template <class Pred>
  std::size_t count_if(Pred pred) const {
    std::lock_guard lock(mutex_);
    std::size_t n = 0;
    for (const auto& entry : entries_) n += pred(entry.first) ? 1 : 0;
    return n;
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return entries_.size();
  }
  std::size_t hit_count() const {
    std::lock_guard lock(mutex_);
    return hits_;
  }
  std::size_t miss_count() const {
    std::lock_guard lock(mutex_);
    return misses_;
  }

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  mutable std::condition_variable ready_;
  mutable std::map<Key, Ptr, std::less<>> entries_;
  /// Keys a caller is computing (its claim).
  mutable std::set<Key, std::less<>> pending_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

}  // namespace bbpim
