#include "engine/snapshot_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "engine/pim_store.hpp"

namespace bbpim::engine {

SnapshotStats::SnapshotStats(const SnapshotStats& prev, std::size_t touched)
    : attrs_(prev.attrs_),
      distinct_(prev.distinct_,
                [touched](std::size_t a) { return a != touched; }),
      co_(prev.co_, [touched](const std::pair<std::size_t, std::size_t>& k) {
        return k.first != touched && k.second != touched;
      }) {}

const SnapshotStats::Distinct& SnapshotStats::distinct_values(
    std::size_t attr, const PimStore& reader) const {
  if (attr >= attrs_) throw std::out_of_range("SnapshotStats: attribute");
  // Read through the reader's crossbars, 64 records at a time.
  return *distinct_
              .get_or_compute(attr, [&] { return scan_distinct(reader, attr); })
              .value;
}

const SnapshotStats::CoOccurrence* SnapshotStats::co_occurrence(
    std::size_t attr_a, std::size_t attr_b, const PimStore& reader) const {
  if (attr_a == attr_b) return nullptr;
  const Distinct& a = distinct_values(attr_a, reader);
  const Distinct& b = distinct_values(attr_b, reader);
  if (!a || !b) return nullptr;
  return co_
      .get_or_compute(std::make_pair(attr_a, attr_b),
                      [&] {
                        return build_co_occurrence(reader, attr_a, *a, attr_b,
                                                   *b);
                      })
      .value.get();
}

StoreDerived::StoreDerived(ZoneMaps zones, std::size_t attrs)
    : filter_cache(std::make_shared<FilterCache>()),
      zones(std::move(zones)),
      stats(attrs) {}

StoreDerived::StoreDerived(const StoreDerived& prev, std::size_t attr)
    : filter_cache(prev.filter_cache),
      zones(prev.zones),
      stats(prev.stats, attr) {}

StoreSnapshot::StoreSnapshot(
    std::uint64_t version, std::vector<PageGroupsPtr> pages,
    std::size_t pages_per_part, std::shared_ptr<const StoreDerived> derived,
    std::shared_ptr<std::atomic<std::int64_t>> live_counter)
    : version_(version),
      pages_(std::move(pages)),
      pages_per_part_(pages_per_part),
      derived_(std::move(derived)),
      live_counter_(std::move(live_counter)) {
  if (live_counter_) live_counter_->fetch_add(1, std::memory_order_acq_rel);
}

StoreSnapshot::~StoreSnapshot() {
  if (live_counter_) live_counter_->fetch_sub(1, std::memory_order_acq_rel);
}

std::shared_ptr<const StoreSnapshot> freeze_snapshot(
    PimStore& builder, std::uint64_t version,
    std::shared_ptr<std::atomic<std::int64_t>> live_counter,
    const StoreSnapshot* prev) {
  std::vector<PageGroupsPtr> pages;
  pages.reserve(static_cast<std::size_t>(builder.parts()) *
                builder.pages_per_part());
  for (int part = 0; part < builder.parts(); ++part) {
    for (std::size_t p = 0; p < builder.pages_per_part(); ++p) {
      const pim::Page& page = builder.page(part, p);
      if (prev != nullptr) {
        const PageGroupsPtr& old = prev->page_groups(part, p);
        bool same = true;
        for (std::uint32_t x = 0; x < page.crossbar_count() && same; ++x) {
          const auto now = page.crossbar(x).data_groups();
          const auto was = prev->data_groups(part, p, x);
          same = std::equal(now.begin(), now.end(), was.begin(), was.end());
        }
        if (same) {
          pages.push_back(old);
          continue;
        }
      }
      auto pg = std::make_shared<PageGroups>();
      pg->per_crossbar = page.crossbar(0).data_group_count();
      pg->groups.reserve(std::size_t{page.crossbar_count()} *
                         pg->per_crossbar);
      for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
        const auto groups = page.crossbar(x).data_groups();
        pg->groups.insert(pg->groups.end(), groups.begin(), groups.end());
      }
      pages.push_back(std::move(pg));
    }
  }
  return std::make_shared<StoreSnapshot>(version, std::move(pages),
                                         builder.pages_per_part(),
                                         builder.derived(),
                                         std::move(live_counter));
}

}  // namespace bbpim::engine
