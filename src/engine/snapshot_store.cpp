#include "engine/snapshot_store.hpp"

#include "engine/pim_store.hpp"

namespace bbpim::engine {

SnapshotStats::SnapshotStats(const PimStore& builder)
    : max_distinct_(builder.max_distinct()) {
  const std::size_t nattrs = builder.table().schema().attribute_count();
  distinct_.resize(nattrs);
  distinct_stale_.assign(nattrs, false);
  for (std::size_t a = 0; a < nattrs; ++a) {
    // The accessor settles any staleness in the builder before we copy.
    distinct_[a] = builder.distinct_values(a);
  }
}

SnapshotStats::SnapshotStats(const SnapshotStats& prev,
                             const std::vector<std::size_t>& touched_attrs)
    : max_distinct_(prev.max_distinct_) {
  // prev may be concurrently filling lazily; copy under its lock.
  std::lock_guard<std::mutex> lock(prev.mutex_);
  distinct_ = prev.distinct_;
  distinct_stale_ = prev.distinct_stale_;
  fd_cache_ = prev.fd_cache_;
  co_cache_ = prev.co_cache_;
  for (const std::size_t a : touched_attrs) {
    distinct_stale_.at(a) = true;
    for (auto it = fd_cache_.begin(); it != fd_cache_.end();) {
      it = (it->first.first == a || it->first.second == a)
               ? fd_cache_.erase(it)
               : std::next(it);
    }
    for (auto it = co_cache_.begin(); it != co_cache_.end();) {
      it = (it->first.first == a || it->first.second == a)
               ? co_cache_.erase(it)
               : std::next(it);
    }
  }
}

const std::optional<std::vector<std::uint64_t>>& SnapshotStats::distinct_locked(
    std::size_t attr, const PimStore& reader) const {
  if (distinct_stale_.at(attr)) {
    // Same capping rule as the builder, read through the snapshot's
    // crossbars.
    distinct_[attr] = scan_distinct(reader, attr, max_distinct_);
    distinct_stale_[attr] = false;
  }
  return distinct_.at(attr);
}

const std::optional<std::vector<std::uint64_t>>& SnapshotStats::distinct_values(
    std::size_t attr, const PimStore& reader) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return distinct_locked(attr, reader);
}

const std::unordered_map<std::uint64_t, std::uint64_t>*
SnapshotStats::functional_dependency(std::size_t attr_a, std::size_t attr_b,
                                     const PimStore& reader) const {
  if (attr_a == attr_b) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!distinct_locked(attr_a, reader) || !distinct_locked(attr_b, reader)) {
    return nullptr;
  }
  const auto key = std::make_pair(attr_a, attr_b);
  const auto it = fd_cache_.find(key);
  if (it != fd_cache_.end()) {
    return it->second ? &*it->second : nullptr;
  }
  auto [stored, ignored] = fd_cache_.emplace(
      key, build_functional_dependency(reader, attr_a, attr_b,
                                       distinct_[attr_a]->size()));
  (void)ignored;
  return stored->second ? &*stored->second : nullptr;
}

const std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>*
SnapshotStats::co_occurrence(std::size_t attr_a, std::size_t attr_b,
                             const PimStore& reader) const {
  if (attr_a == attr_b) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!distinct_locked(attr_a, reader) || !distinct_locked(attr_b, reader)) {
    return nullptr;
  }
  const auto key = std::make_pair(attr_a, attr_b);
  const auto it = co_cache_.find(key);
  if (it != co_cache_.end()) return &it->second;

  auto [stored, fresh] = co_cache_.emplace(
      key, build_co_occurrence(reader, attr_a, attr_b,
                               distinct_[attr_a]->size()));
  (void)fresh;
  return &stored->second;
}

StoreSnapshot::StoreSnapshot(
    std::uint64_t version,
    std::vector<std::vector<pim::CrossbarSegment>> segments,
    std::size_t pages_per_part, std::shared_ptr<const ZoneMaps> zones,
    std::shared_ptr<SnapshotStats> stats, FilterCache* filter_cache,
    std::shared_ptr<std::atomic<std::int64_t>> live_counter)
    : version_(version),
      segments_(std::move(segments)),
      pages_per_part_(pages_per_part),
      zones_(std::move(zones)),
      stats_(std::move(stats)),
      filter_cache_(filter_cache),
      live_counter_(std::move(live_counter)) {
  if (live_counter_) live_counter_->fetch_add(1, std::memory_order_acq_rel);
}

StoreSnapshot::~StoreSnapshot() {
  if (live_counter_) live_counter_->fetch_sub(1, std::memory_order_acq_rel);
}

std::shared_ptr<const StoreSnapshot> freeze_snapshot(
    PimStore& builder, std::uint64_t version, const StoreSnapshot* prev,
    const std::vector<std::size_t>& touched_attrs,
    std::shared_ptr<std::atomic<std::int64_t>> live_counter) {
  std::vector<std::vector<pim::CrossbarSegment>> segments;
  segments.reserve(static_cast<std::size_t>(builder.parts()) *
                   builder.pages_per_part());
  for (int part = 0; part < builder.parts(); ++part) {
    for (std::size_t p = 0; p < builder.pages_per_part(); ++p) {
      pim::Page& page = builder.page(part, p);
      std::vector<pim::CrossbarSegment> xbs;
      xbs.reserve(page.crossbar_count());
      for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
        xbs.push_back(page.crossbar(x).data_segment());
      }
      segments.push_back(std::move(xbs));
    }
  }
  // The accessor settles staleness, so the copy is exact for this version.
  auto zones = std::make_shared<const ZoneMaps>(builder.zone_maps());
  auto stats = prev != nullptr
                   ? std::make_shared<SnapshotStats>(prev->stats(),
                                                     touched_attrs)
                   : std::make_shared<SnapshotStats>(builder);
  return std::make_shared<StoreSnapshot>(
      version, std::move(segments), builder.pages_per_part(),
      std::move(zones), std::move(stats), &builder.filter_cache(),
      std::move(live_counter));
}

}  // namespace bbpim::engine
