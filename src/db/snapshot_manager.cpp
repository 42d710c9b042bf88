#include "db/snapshot_manager.hpp"

#include <shared_mutex>
#include <utility>

#include "engine/fault_injector.hpp"

namespace bbpim::db {

SnapshotManager::SnapshotManager(const rel::Table& table, TableWrites& writes,
                                 bool two_crossbar,
                                 const pim::PimConfig& pim_cfg)
    : table_(&table),
      writes_(&writes),
      two_crossbar_(two_crossbar),
      pim_cfg_(pim_cfg),
      live_(std::make_shared<std::atomic<std::int64_t>>(0)) {}

engine::PimStore::Options SnapshotManager::store_options() const {
  return {.two_crossbar = two_crossbar_};
}

pim::ResidentBytes SnapshotManager::builder_resident_bytes() {
  std::lock_guard<std::mutex> lock(mutex_);
  return builder_ != nullptr ? builder_->resident_bytes()
                             : pim::ResidentBytes{};
}

void SnapshotManager::ensure_builder_locked() {
  if (builder_ != nullptr) return;
  module_ = std::make_unique<pim::PimModule>(pim_cfg_);
  builder_ =
      std::make_unique<engine::PimStore>(*module_, *table_, store_options());
}

void SnapshotManager::catch_up_locked(const host::HostConfig& hcfg) {
  if (applied_ == writes_->log.size()) return;
  const auto mutation = builder_->lock_mutation();
  for (; applied_ < writes_->log.size(); ++applied_) {
    const sql::BoundUpdate& u = writes_->log[applied_];
    engine::pim_update(*builder_, hcfg, u.filters, u.attr, u.value);
  }
}

void SnapshotManager::publish_locked() {
  current_ =
      engine::freeze_snapshot(*builder_, applied_, live_, current_.get());
  published_.fetch_add(1, std::memory_order_acq_rel);
}

std::shared_ptr<const engine::StoreSnapshot> SnapshotManager::acquire(
    const host::HostConfig& hcfg) {
  // Fault seam: before the lock, so nothing is pinned or half-replayed when
  // an injected pin failure unwinds — a retry starts from scratch.
  engine::fault_point(engine::FaultSeam::kSnapshotPin);
  std::lock_guard<std::mutex> lock(mutex_);
  ensure_builder_locked();
  if (current_ != nullptr &&
      applied_ == writes_->committed.load(std::memory_order_acquire)) {
    return current_;
  }
  // Behind (or never published): replay the committed suffix under the
  // reader side of the gate, then publish once for the whole burst.
  std::shared_lock gate(writes_->gate);
  catch_up_locked(hcfg);
  if (current_ == nullptr || current_->version() != applied_) publish_locked();
  return current_;
}

engine::UpdateStats SnapshotManager::apply_update(
    const sql::BoundUpdate& update, const host::HostConfig& hcfg,
    std::uint64_t* version_out) {
  // Fault seam: at entry, before any builder mutation or log append — an
  // injected commit failure leaves the store untouched, so a service retry
  // applies the update exactly once.
  engine::fault_point(engine::FaultSeam::kUpdateCommit);
  std::lock_guard<std::mutex> lock(mutex_);
  ensure_builder_locked();
  // Writer side: the exclusive gate totally orders log appends across every
  // manager sharing this table's log (one per engine placement).
  std::unique_lock gate(writes_->gate);
  catch_up_locked(hcfg);
  engine::UpdateStats stats;
  {
    const auto mutation = builder_->lock_mutation();
    stats = engine::pim_update(*builder_, hcfg, update.filters, update.attr,
                               update.value);
  }
  // Commit only after the local application succeeded: a throwing update
  // (validation, scratch exhaustion) must not poison the log for replicas.
  writes_->log.push_back(update);
  writes_->committed.store(writes_->log.size(), std::memory_order_release);
  ++applied_;
  publish_locked();
  if (version_out != nullptr) *version_out = applied_;
  return stats;
}

}  // namespace bbpim::db
