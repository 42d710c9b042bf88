// Immutable store snapshots: the engine half of MVCC serving.
//
// A StoreSnapshot is one published version of a PIM-resident relation: the
// reference-counted data column groups of every crossbar (see Crossbar's
// per-group copy-on-write) and that version's StoreDerived — the zone-map
// sketches, the derived statistics (distinct values, co-occurrence maps)
// the GROUP-BY planner consults, and the memoized page classifications.
// Snapshots are immutable once published: an UPDATE builds the next version
// by cloning only the column groups whose bits it actually changes
// (value-aware CoW) and by switching the builder to a successor
// StoreDerived, so the published version keeps its own derived state
// untouched.
//
// Readers pin a snapshot by holding its shared_ptr; that reference IS the
// epoch. A retired version is reclaimed the moment its last pinned reader
// drains (shared_ptr deferred destruction), which the owning manager
// observes through a live-snapshot counter. Readers therefore never block
// writers, and writers never block already-pinned readers.
//
// The db-layer counterpart (db/snapshot_manager) owns the mutable builder
// store, decides when to publish, and hands snapshots to executors.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/memo.hpp"
#include "engine/zone_map.hpp"
#include "pim/crossbar.hpp"

namespace bbpim::engine {

class PimStore;
class FilterCache;
struct FilterPruneAnalysis;

/// Distinct-value stats are kept only up to this cardinality; higher
/// attributes never qualify for pure-PIM group enumeration anyway.
inline constexpr std::size_t kMaxDistinct = 4096;

/// Derived statistics of one store version: distinct values per attribute
/// and co-occurrence maps per attribute pair, each an unbounded Memo filled
/// lazily (single-flight, built outside any lock), version 0 included.
/// Carried forward across versions — an UPDATE to one attribute drops only
/// the entries involving that attribute and shares every other entry by
/// pointer, so a planner-warmed cache survives unrelated writes without a
/// deep copy.
///
/// Lazy computation reads the crossbars of a `reader` store (the caller's
/// PimStore, which holds this version's data), 64 records at a time through
/// PimStore::scan_blocks. A co-occurrence map is built only when both
/// attributes have capped distinct lists; build_co_occurrence indexes both
/// lists and fills a bitmap in one walk. Since both lists are settled from
/// the same version first, a stored value missing from either can only mean
/// stale stats, and the build throws std::logic_error rather than index
/// out of bounds. All accessors are safe to call from any number of reader
/// threads.
class SnapshotStats {
 public:
  using Distinct = std::optional<std::vector<std::uint64_t>>;
  using CoOccurrence =
      std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>;

  /// Version-0 stats of a relation with `attrs` attributes: every entry
  /// fills on demand.
  explicit SnapshotStats(std::size_t attrs) : attrs_(attrs) {}
  /// Carries `prev` forward across an UPDATE of `touched`: every entry
  /// not involving it is shared by pointer; its distinct values and its
  /// co-occurrence maps are rebuilt on first use.
  SnapshotStats(const SnapshotStats& prev, std::size_t touched);

  /// Sorted distinct values of `attr`, or nullopt above the cap. The
  /// returned reference is stable: entries settle exactly once and are
  /// never dropped. Throws std::out_of_range for an unknown attribute.
  const Distinct& distinct_values(std::size_t attr,
                                  const PimStore& reader) const;

  /// Sorted attr_b values co-occurring with each attr_a value, or nullptr
  /// when either side's cardinality is uncapped. Stable like
  /// distinct_values, and the same address on every version that carried
  /// the entry forward.
  const CoOccurrence* co_occurrence(std::size_t attr_a, std::size_t attr_b,
                                    const PimStore& reader) const;

 private:
  std::size_t attrs_;  ///< attribute count of the relation
  Memo<std::size_t, Distinct> distinct_;
  Memo<std::pair<std::size_t, std::size_t>, CoOccurrence> co_;
};

/// Everything derived from one store version's data, shared by the builder
/// that produced the version and every view serving it. Never mutated once
/// published: PimStore::note_mutation switches the builder to a successor
/// built from the predecessor, so a pinned version keeps its own.
struct StoreDerived {
  /// Version 0 of a freshly loaded store of `attrs` attributes: its zones,
  /// and stats that fill on demand.
  StoreDerived(ZoneMaps zones, std::size_t attrs);
  /// The successor of `prev` across an UPDATE of `attr`: the same filter
  /// cache, copied zones (the caller rebuilds the touched crossbars'
  /// sketches before publishing), stats carried forward and an empty
  /// classification memo.
  StoreDerived(const StoreDerived& prev, std::size_t attr);

  /// Compiled-WHERE memo, one per builder and shared by all its versions:
  /// programs depend on layout, predicates and allocator state, never on
  /// data, so a hit is indistinguishable from compiling fresh at any
  /// version.
  std::shared_ptr<FilterCache> filter_cache;
  ZoneMaps zones;
  SnapshotStats stats;
  /// Static page classifications of this version — the full
  /// FilterPruneAnalysis of one ordered predicate list (see
  /// analyze_filters_cached), keyed by its textual serialization. They
  /// depend on the sketches, so each version starts its own, which dies
  /// with it. Distinct WHERE shapes per version are few; overflowing
  /// kClassificationCapacity clears it.
  static constexpr std::size_t kClassificationCapacity = 256;
  Memo<std::string, FilterPruneAnalysis> class_memo{kClassificationCapacity};
};

/// The data groups of one page's crossbars, back to back: crossbar x owns
/// groups [x * per_crossbar, (x + 1) * per_crossbar). Immutable once
/// published; a successor version shares the table of every page whose
/// groups it did not change.
struct PageGroups {
  std::uint32_t per_crossbar = 0;
  std::vector<pim::ColumnGroup> groups;
};
using PageGroupsPtr = std::shared_ptr<const PageGroups>;

/// One immutable published version of a PIM-resident relation.
class StoreSnapshot {
 public:
  /// `pages[part * pages_per_part + page]` holds that page's crossbars'
  /// data groups. `live_counter` (shared with the owning manager) is bumped
  /// here and dropped in the destructor, making reclamation observable.
  StoreSnapshot(std::uint64_t version, std::vector<PageGroupsPtr> pages,
                std::size_t pages_per_part,
                std::shared_ptr<const StoreDerived> derived,
                std::shared_ptr<std::atomic<std::int64_t>> live_counter);
  ~StoreSnapshot();
  StoreSnapshot(const StoreSnapshot&) = delete;
  StoreSnapshot& operator=(const StoreSnapshot&) = delete;

  /// Position in the table's update log this snapshot reflects (log-prefix
  /// length, i.e. TableWrites::committed at publish time).
  std::uint64_t version() const { return version_; }

  std::size_t pages_per_part() const { return pages_per_part_; }
  /// The data-group table of `page` of `part`.
  const PageGroupsPtr& page_groups(int part, std::size_t page) const {
    return pages_.at(static_cast<std::size_t>(part) * pages_per_part_ + page);
  }
  /// The data groups of crossbar `xb` of `page` of `part`.
  std::span<const pim::ColumnGroup> data_groups(int part, std::size_t page,
                                                std::uint32_t xb) const {
    const PageGroups& pg = *page_groups(part, page);
    return std::span<const pim::ColumnGroup>(pg.groups)
        .subspan(std::size_t{xb} * pg.per_crossbar, pg.per_crossbar);
  }

  /// This version's zone maps, stats, classification memo and the
  /// builder's filter cache.
  const std::shared_ptr<const StoreDerived>& derived() const {
    return derived_;
  }

 private:
  std::uint64_t version_;
  std::vector<PageGroupsPtr> pages_;
  std::size_t pages_per_part_;
  std::shared_ptr<const StoreDerived> derived_;
  std::shared_ptr<std::atomic<std::int64_t>> live_counter_;
};

/// Publishes the builder store's current contents as version `version`.
/// Capturing a crossbar's data groups bumps their reference counts, which
/// is what arms the builder's copy-on-write: its next change to a group
/// clones that group alone, leaving this snapshot untouched. A page whose
/// groups all equal `prev`'s (the builder's previous version, if any)
/// shares `prev`'s table. The snapshot shares the builder's current
/// StoreDerived; nothing is copied.
std::shared_ptr<const StoreSnapshot> freeze_snapshot(
    PimStore& builder, std::uint64_t version,
    std::shared_ptr<std::atomic<std::int64_t>> live_counter,
    const StoreSnapshot* prev);

}  // namespace bbpim::engine
