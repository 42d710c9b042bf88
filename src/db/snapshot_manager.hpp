// SnapshotManager: one shared builder store + published MVCC snapshots per
// (table, PIM placement/config).
//
// This is the db half of the snapshot subsystem (engine/snapshot_store has
// the immutable bodies). The manager owns the single mutable builder
// PimStore for a table and turns the shared update log (Database's
// TableWrites) into a sequence of immutable StoreSnapshots:
//
//   acquire()       returns the snapshot reflecting the committed log
//                   prefix, replaying any suffix into the builder first and
//                   publishing once per burst. Executors call this only
//                   when their pinned version is behind — the per-read fast
//                   path is a lock-free atomic check they do themselves.
//   apply_update()  the writer path: exclusive gate, catch-up, Algorithm-1
//                   update on the builder (copy-on-write clones only the
//                   column groups whose bits change), log append, atomic
//                   commit, publish.
//
// Reclamation is epoch-by-refcount: executors pin a snapshot by holding
// its shared_ptr, publishing drops the manager's reference to the previous
// version, and the retired snapshot (plus every column group only it
// still references) is destroyed when the last pinned reader drains.
// live_snapshots() observes that for the lifecycle tests.
//
// Lock order everywhere: manager mutex_ -> TableWrites::gate.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "db/database.hpp"
#include "engine/pim_store.hpp"
#include "engine/prejoin.hpp"
#include "engine/snapshot_store.hpp"
#include "host/config.hpp"
#include "pim/config.hpp"

namespace bbpim::db {

class SnapshotManager {
 public:
  /// `writes` must outlive the manager (it lives in the Database that
  /// owns it).
  SnapshotManager(const rel::Table& table, TableWrites& writes,
                  bool two_crossbar, const pim::PimConfig& pim_cfg);

  /// The snapshot reflecting the currently committed update-log prefix.
  /// Builds the builder store on first call (lazy, like executor stores
  /// were); replays any unapplied committed suffix and publishes a new
  /// version when behind. `hcfg` parameterizes replayed updates' simulated
  /// cost only — the functional result is config-independent.
  std::shared_ptr<const engine::StoreSnapshot> acquire(
      const host::HostConfig& hcfg);

  /// Applies one UPDATE: exclusive writer gate, catch-up, Algorithm-1
  /// rewrite of the builder (CoW leaves pinned snapshots untouched), log
  /// append + atomic commit, publish. Returns the update's simulated stats;
  /// `version_out` (if non-null) receives its position in the log.
  engine::UpdateStats apply_update(const sql::BoundUpdate& update,
                                   const host::HostConfig& hcfg,
                                   std::uint64_t* version_out);

  /// PimStore options a view over this manager's snapshots must use
  /// (placement must match the builder's).
  engine::PimStore::Options store_options() const;

  const rel::Table& table() const { return *table_; }

  /// Snapshots currently alive (published by this manager and not yet
  /// reclaimed). At quiescence with N pinned executors on the current
  /// version this is 1; it exceeds 1 only while stale readers still pin
  /// retired versions.
  std::int64_t live_snapshots() const {
    return live_->load(std::memory_order_acquire);
  }
  /// Bytes of the column groups the builder store holds allocated (zero
  /// before the first acquire); diagnostics/tests.
  pim::ResidentBytes builder_resident_bytes();
  /// Versions published so far (monotone; diagnostics/tests).
  std::uint64_t published_count() const {
    return published_.load(std::memory_order_acquire);
  }

 private:
  void ensure_builder_locked();
  /// Replays the committed suffix into the builder. Caller holds mutex_
  /// and the gate.
  void catch_up_locked(const host::HostConfig& hcfg);
  /// Publishes the builder's state as version `applied_`. Caller holds
  /// mutex_.
  void publish_locked();

  const rel::Table* table_;
  TableWrites* writes_;
  bool two_crossbar_;
  pim::PimConfig pim_cfg_;

  std::mutex mutex_;
  std::unique_ptr<pim::PimModule> module_;      ///< builder's module
  std::unique_ptr<engine::PimStore> builder_;   ///< lazily built
  std::uint64_t applied_ = 0;   ///< log prefix applied to the builder
  std::shared_ptr<const engine::StoreSnapshot> current_;
  std::shared_ptr<std::atomic<std::int64_t>> live_;
  std::atomic<std::uint64_t> published_{0};
};

}  // namespace bbpim::db
