// Database: the catalog of the bbpim::db facade.
//
// Holds the registered relations (owned, or attached by reference when the
// caller keeps ownership). How a PIM backend places a table is the table's
// own: two-xb splits off the attributes engine::prejoin carried in from a
// dimension, and loads a relation without any as one part.
// Query targets resolve against the catalog by FROM-list name; SSB-style
// star queries whose FROM lists only logical source tables fall back to the
// default target (the pre-joined relation in the paper's setup).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/memo.hpp"
#include "pim/config.hpp"
#include "relational/table.hpp"
#include "sql/logical_plan.hpp"

namespace bbpim::db {

struct SessionOptions;
class Session;
class SnapshotManager;
struct Plan;

/// Per-table write coordination for the SQL UPDATE path.
///
/// The catalog's registered tables are immutable, but their PIM-resident
/// copies are not: Algorithm-1 updates rewrite crossbar data. Each
/// SnapshotManager (one per table and PIM placement) owns the one mutable
/// builder store of the table and publishes immutable snapshots of it;
/// sessions and QueryService workers read through pinned snapshot views,
/// which never replay anything. TableWrites is how the builders stay one
/// logical relation:
///
///   - `gate` is the writer gate. An update holds it exclusively while it
///     applies to its manager's builder and appends to the log, so the log
///     is a total order over updates. A manager catching up holds it
///     shared.
///   - `log` is the ordered update history. A builder that has applied the
///     first k entries is at data version k; each builder replays the
///     missing suffix in SnapshotManager::catch_up_locked before it applies
///     an update or publishes a snapshot, so a builder created or idle
///     while updates landed converges deterministically.
///   - `committed` mirrors log.size() atomically (bumped after the append,
///     still under the exclusive gate). A view whose pinned version equals
///     it is current and executes without touching the gate or the
///     manager; a behind view re-pins through SnapshotManager::acquire. A
///     reader that observes a stale `committed` simply serializes before
///     the in-flight update.
///
/// Guarded by `gate`: read `log` under a shared lock, append under an
/// exclusive one. `committed` is lock-free.
struct TableWrites {
  mutable std::shared_mutex gate;
  std::vector<sql::BoundUpdate> log;
  std::atomic<std::uint64_t> committed{0};
};

/// Thread-safe: catalog lookups take a shared lock, mutations an exclusive
/// one, so any number of sessions (or QueryService workers) can resolve
/// targets while tables are being registered. Registered tables themselves
/// are immutable through the catalog.
class Database {
 public:
  // Constructor/destructor out of line: SnapshotManager is incomplete here,
  // and an inline defaulted special member would instantiate the snapshots_
  // map's destructor (needed for unwinding) in every including TU.
  Database();
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  /// Movable while no session is connected (sessions hold a pointer) and no
  /// other thread is touching either operand. Move-constructible only (a
  /// factory returns one by value); nothing assigns a Database.
  Database(Database&& other) noexcept;
  Database& operator=(Database&&) = delete;

  /// Registers (and takes ownership of) a relation under `table.name()`.
  /// The first registered table becomes the default query target.
  /// Throws std::invalid_argument for unnamed or duplicate names.
  const rel::Table& register_table(rel::Table table);

  /// Registers a caller-owned relation (must outlive the database).
  const rel::Table& attach_table(const rel::Table& table);

  bool has_table(std::string_view name) const;
  /// Throws std::invalid_argument for unknown names.
  const rel::Table& table(std::string_view name) const;
  /// Registration order.
  std::vector<std::string> table_names() const;

  /// Default query target for FROM lists naming no registered table: the
  /// first table registered.
  const rel::Table& default_target() const;

  /// Resolution rule for a statement's FROM list: the first name registered
  /// in the catalog wins; otherwise the default target. Throws
  /// std::invalid_argument when nothing resolves (empty catalog).
  const rel::Table& resolve_target(const std::vector<std::string>& from) const;

  /// Bumped on every catalog mutation (registration).
  std::uint64_t catalog_version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Write-coordination state of a registered/attached table (created on
  /// first use; address stable for the database's lifetime). Accepts the
  /// exact table reference held in the catalog.
  TableWrites& writes(const rel::Table& table);

  /// Updates committed against `table` so far (its current data version).
  /// Lock-free (reads TableWrites::committed).
  std::uint64_t update_version(const rel::Table& table);

  /// The shared snapshot manager for `table` under one PIM placement
  /// (one-xb vs two-xb) and module configuration: every executor of every
  /// session on this database serves that combination from ONE builder
  /// store's published snapshots. Created on first use; address stable for
  /// the database's lifetime.
  SnapshotManager& snapshot_manager(const rel::Table& table, bool two_crossbar,
                                    const pim::PimConfig& pim);

  // --- bound-plan cache ----------------------------------------------------
  // Database-scope: N sessions (QueryService workers) preparing the same SQL
  // text bind it ONCE — the first session's plan is shared by all. Keyed by
  // exact SQL text. Every catalog mutation (registration can alter FROM
  // resolution) starts a fresh memo, so a plan bound against a superseded
  // catalog is never served: a bind still in flight across the mutation
  // publishes into the retired memo, which only its own waiters read.

  /// The bind-once front door of the cache: returns the cached plan for
  /// `sql`, or runs `bind` to produce, publish, and return it. When N
  /// workers race an uncached text, exactly ONE runs `bind` — the rest
  /// block on its claim and leave as cache hits, so a statement is bound
  /// once per catalog version no matter how many workers prepare it. A
  /// throwing `bind` releases the claim (the exception propagates to its
  /// caller; the next waiter retries the bind).
  std::shared_ptr<const Plan> find_or_bind(std::string_view sql,
                                           const std::function<Plan()>& bind);
  /// Plans cached for the current catalog.
  std::size_t plan_cache_size() const;
  /// find_or_bind calls served from the cache (the observable half of the
  /// prepare-once guarantee across workers), across catalog versions.
  std::uint64_t plan_cache_hits() const {
    return plan_hits_.load(std::memory_order_relaxed);
  }

  /// Opens a session over this catalog (must not outlive the database).
  Session connect();
  Session connect(SessionOptions opts);

 private:
  struct Entry {
    std::unique_ptr<rel::Table> owned;  ///< null for attached tables
    const rel::Table* table = nullptr;
  };

  const rel::Table& add(Entry entry);
  /// Caller must hold mutex_ (shared or exclusive).
  const Entry& entry_locked(std::string_view name) const;

  mutable std::shared_mutex mutex_;
  std::map<std::string, Entry, std::less<>> tables_;
  std::vector<std::string> order_;
  std::string default_target_;
  std::atomic<std::uint64_t> version_{0};
  /// Lazily created per-table write state; unique_ptr keeps addresses
  /// stable across map growth. Guarded by writes_mutex_ (creation only —
  /// TableWrites guards itself afterwards).
  std::mutex writes_mutex_;
  std::map<const rel::Table*, std::unique_ptr<TableWrites>> writes_;
  /// Lazily created per-(table, placement, config) snapshot managers;
  /// unique_ptr keeps addresses stable. Guarded by snapshots_mutex_
  /// (creation only — managers synchronize themselves afterwards).
  std::mutex snapshots_mutex_;
  std::map<std::tuple<const rel::Table*, bool, pim::PimConfig>,
           std::unique_ptr<SnapshotManager>>
      snapshots_;
  /// Shared bound plans of the current catalog, keyed by SQL text; replaced
  /// on every catalog mutation. Guarded by mutex_ (the pointer only — the
  /// memo synchronizes itself).
  std::shared_ptr<Memo<std::string, Plan>> plans_ =
      std::make_shared<Memo<std::string, Plan>>();
  std::atomic<std::uint64_t> plan_hits_{0};
};

}  // namespace bbpim::db
