#include "db/database.hpp"

#include <mutex>
#include <stdexcept>
#include <utility>

#include "db/session.hpp"
#include "db/snapshot_manager.hpp"
#include "db/statement.hpp"

namespace bbpim::db {

// Out of line: SnapshotManager is forward-declared in the header, so the
// unique_ptr map's destructor must be instantiated here.
Database::Database() = default;
Database::~Database() = default;

Database::Database(Database&& other) noexcept {
  std::unique_lock lock(other.mutex_);
  tables_ = std::move(other.tables_);
  order_ = std::move(other.order_);
  default_target_ = std::move(other.default_target_);
  version_.store(other.version_.load(std::memory_order_acquire),
                 std::memory_order_release);
  writes_ = std::move(other.writes_);
  snapshots_ = std::move(other.snapshots_);
  plans_ = std::move(other.plans_);
  plan_hits_.store(other.plan_hits_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

const rel::Table& Database::add(Entry entry) {
  const std::string& name = entry.table->name();
  if (name.empty()) {
    throw std::invalid_argument("Database::register_table: table has no name");
  }
  std::unique_lock lock(mutex_);
  if (tables_.count(name) != 0) {
    throw std::invalid_argument("Database::register_table: duplicate table '" +
                                name + "'");
  }
  const rel::Table& ref = *entry.table;
  tables_.emplace(name, std::move(entry));
  order_.push_back(name);
  if (default_target_.empty()) default_target_ = name;
  version_.fetch_add(1, std::memory_order_acq_rel);
  plans_ = std::make_shared<Memo<std::string, Plan>>();
  return ref;
}

const rel::Table& Database::register_table(rel::Table table) {
  Entry e;
  e.owned = std::make_unique<rel::Table>(std::move(table));
  e.table = e.owned.get();
  return add(std::move(e));
}

const rel::Table& Database::attach_table(const rel::Table& table) {
  return add(Entry{nullptr, &table});
}

const Database::Entry& Database::entry_locked(std::string_view name) const {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw std::invalid_argument("Database: unknown table '" +
                                std::string(name) + "'");
  }
  return it->second;
}

bool Database::has_table(std::string_view name) const {
  std::shared_lock lock(mutex_);
  return tables_.find(name) != tables_.end();
}

const rel::Table& Database::table(std::string_view name) const {
  std::shared_lock lock(mutex_);
  return *entry_locked(name).table;
}

std::vector<std::string> Database::table_names() const {
  std::shared_lock lock(mutex_);
  return order_;
}

const rel::Table& Database::default_target() const {
  std::shared_lock lock(mutex_);
  if (default_target_.empty()) {
    throw std::invalid_argument("Database: no tables registered");
  }
  return *entry_locked(default_target_).table;
}

const rel::Table& Database::resolve_target(
    const std::vector<std::string>& from) const {
  std::shared_lock lock(mutex_);
  for (const std::string& name : from) {
    const auto it = tables_.find(name);
    if (it != tables_.end()) return *it->second.table;
  }
  if (default_target_.empty()) {
    throw std::invalid_argument("Database: no tables registered");
  }
  return *entry_locked(default_target_).table;
}

TableWrites& Database::writes(const rel::Table& table) {
  std::lock_guard lock(writes_mutex_);
  std::unique_ptr<TableWrites>& slot = writes_[&table];
  if (slot == nullptr) slot = std::make_unique<TableWrites>();
  return *slot;
}

std::uint64_t Database::update_version(const rel::Table& table) {
  return writes(table).committed.load(std::memory_order_acquire);
}

SnapshotManager& Database::snapshot_manager(const rel::Table& table,
                                            bool two_crossbar,
                                            const pim::PimConfig& pim) {
  // Resolve the write state BEFORE taking snapshots_mutex_ (it takes its
  // own lock; keep the order acyclic).
  TableWrites& writes_state = writes(table);
  const auto key = std::make_tuple(&table, two_crossbar, pim);
  std::lock_guard lock(snapshots_mutex_);
  std::unique_ptr<SnapshotManager>& slot = snapshots_[key];
  if (slot == nullptr) {
    slot = std::make_unique<SnapshotManager>(table, writes_state,
                                             two_crossbar, pim);
  }
  return *slot;
}

std::shared_ptr<const Plan> Database::find_or_bind(
    std::string_view sql, const std::function<Plan()>& bind) {
  std::shared_ptr<Memo<std::string, Plan>> plans;
  {
    std::shared_lock lock(mutex_);
    plans = plans_;
  }
  auto [plan, hit] = plans->get_or_compute(sql, bind);
  if (hit) plan_hits_.fetch_add(1, std::memory_order_relaxed);
  return plan;
}

std::size_t Database::plan_cache_size() const {
  std::shared_lock lock(mutex_);
  return plans_->size();
}

Session Database::connect() { return Session(*this); }

Session Database::connect(SessionOptions opts) {
  return Session(*this, std::move(opts));
}

}  // namespace bbpim::db
