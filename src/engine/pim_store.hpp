// PimStore: a relation resident in the PIM module.
//
// Loads a (pre-joined) relation into hugepages, one record per crossbar row.
// Supports the paper's two placements: one-xb (whole record in one crossbar
// row) and two-xb (vertical partitioning of Section III/V-A: fact attributes
// in one aligned page set, dimension attributes in another; record i lives
// at the same crossbar/row coordinate in both parts). The split is the
// relation's own: engine::prejoin flags each attribute it carries in from a
// dimension (rel::Attribute::dimension), and those go in part 1. A relation
// with no dimension attribute loads as one part on either placement.
//
// Also serves per-attribute distinct-value statistics used by the GROUP-BY
// planner to enumerate candidate subgroups ("total number of potential
// subgroups according to query and database details", Table II), through
// the StoreDerived of the version it holds.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/filter_compiler.hpp"
#include "engine/layout.hpp"
#include "engine/snapshot_store.hpp"
#include "engine/zone_map.hpp"
#include "pim/module.hpp"
#include "relational/table.hpp"

namespace bbpim::engine {

// A PimStore runs in one of two modes:
//
//   builder — the classic mutable store: loads the relation into its
//     module's crossbars, folds version 0's zone sketches from the blocks
//     it writes, and accepts in-place mutation through the lock +
//     note_mutation protocol. db::SnapshotManager keeps exactly one builder
//     per table and publishes its state as StoreSnapshots.
//
//   view — an immutable serving store over one published StoreSnapshot:
//     its crossbars' data groups point at the snapshot's shared groups
//     (zero copy; see Crossbar::adopt_data_groups), and it holds the
//     snapshot's StoreDerived. Its scratch groups are its own and are
//     allocated only as queries write them. Views skip loading entirely,
//     never mutate (note_mutation throws), and re-point to a newer snapshot
//     via adopt(), which reassigns only the data groups that changed.
//
// Either way the derived-state accessors (distinct_values, co_occurrence,
// zone_maps, classification_memo, filter_cache) read the one StoreDerived
// of the version the store holds.
class PimStore {
 public:
  struct Options {
    /// Two-xb: dimension attributes in part 1, fact attributes in part 0
    /// (the paper's worst-case partitioning). Ignored by a relation with no
    /// dimension attribute, which loads as one part.
    bool two_crossbar = false;
  };

  PimStore(pim::PimModule& module, const rel::Table& table, Options opt);
  /// One-crossbar store with default options.
  PimStore(pim::PimModule& module, const rel::Table& table)
      : PimStore(module, table, Options()) {}
  /// View store over a published snapshot: allocates pages in `module`
  /// (the data groups are adopted from `snap`, not loaded; scratch groups
  /// are allocated on first write) and serves queries against that
  /// immutable version. `opt` must describe the same placement the builder
  /// used.
  PimStore(pim::PimModule& module, const rel::Table& table, Options opt,
           std::shared_ptr<const StoreSnapshot> snap);

  /// Re-points a view store at a newer snapshot of the same geometry:
  /// skips every page whose group table the two versions share and
  /// reassigns only the changed groups of the rest (nothing is copied or
  /// replayed).
  void adopt(std::shared_ptr<const StoreSnapshot> snap);

  bool is_view() const { return snap_ != nullptr; }

  pim::PimModule& module() { return *module_; }
  const pim::PimConfig& module_config() const { return module_->config(); }
  const rel::Table& table() const { return *table_; }

  int parts() const { return two_crossbar_ ? 2 : 1; }
  std::size_t record_count() const { return records_; }
  /// Pages per part (the paper's M counts pages per copy of the records).
  std::size_t pages_per_part() const { return pages_per_part_; }
  std::uint32_t records_per_page() const { return records_per_page_; }

  int part_of_attr(std::size_t attr) const { return attr_part_.at(attr); }
  const RecordLayout& layout(int part) const { return layouts_.at(part); }
  pim::Field field(std::size_t attr) const {
    return layouts_.at(attr_part_.at(attr)).field(attr);
  }

  /// Module page holding page `i` of `part`.
  pim::Page& page(int part, std::size_t i);
  const pim::Page& page(int part, std::size_t i) const;
  std::size_t module_page_index(int part, std::size_t i) const;

  /// Valid records in page i (the last page may be partial).
  std::uint32_t page_records(std::size_t i) const;

  /// Functional host read of one attribute of one record.
  std::uint64_t read_attr(std::size_t record, std::size_t attr) const;

  /// Block host read of the 64 records [64 * block, 64 * block + 64): one
  /// Crossbar::read_field_block per attribute. out[k][j] is the code of
  /// attrs[k] for record 64 * block + j (zero past record_count()).
  void read_block(std::size_t block, std::span<const std::size_t> attrs,
                  std::span<pim::RowBlock> out) const;

  /// Streams `attrs` of records [begin, end) through read_block, 64 records
  /// at a time and in record order: visit(first, count, blocks) sees
  /// blocks[k][j] = attrs[k] of record first + j for j < count. `begin`
  /// must be a multiple of 64; stops early when visit returns false. Holds
  /// one block per attribute, never a whole column.
  void scan_blocks(
      std::span<const std::size_t> attrs, std::size_t begin, std::size_t end,
      const std::function<bool(std::size_t, std::uint32_t,
                               std::span<const pim::RowBlock>)>& visit) const;

  /// Sorted distinct values of an attribute, or nullopt when cardinality
  /// exceeded kMaxDistinct. Filled lazily from the crossbars on first
  /// access, per version (an UPDATE of the attribute starts them over).
  const std::optional<std::vector<std::uint64_t>>& distinct_values(
      std::size_t attr) const {
    return derived_->stats.distinct_values(attr, *this);
  }

  /// Bytes of the data and scratch column groups this store's crossbars
  /// hold allocated (a data group shared with a snapshot or another store
  /// counts for each holder).
  pim::ResidentBytes resident_bytes() const;

  /// Full-store FNV-1a digest over every record's attribute codes, read
  /// through the crossbars — the store-equivalence checksum the HTAP bench
  /// and determinism tests compare against their serial oracles.
  std::uint64_t contents_checksum() const;

  /// Sorted attr_b values co-occurring with each attr_a value (e.g.
  /// d_yearmonth = 'Dec1997' leaves d_year = {1997}): SSB's hierarchies
  /// (brand -> category -> mfgr, city -> nation -> region) are what let the
  /// planner derive Table II's "total subgroups according to query and
  /// database details". nullptr when either side's cardinality is uncapped.
  /// Computed lazily, cached per version.
  const SnapshotStats::CoOccurrence* co_occurrence(std::size_t attr_a,
                                                   std::size_t attr_b) const {
    return derived_->stats.co_occurrence(attr_a, attr_b, *this);
  }

  /// Memoized WHERE compilations against this store's layouts (repeated
  /// prepared-statement executions skip recompilation). One cache per
  /// builder, shared by all its versions and their views: programs are pure
  /// functions of (predicates, layout, allocator state) and never read the
  /// data, so an UPDATE leaves every entry valid.
  FilterCache& filter_cache() const { return *derived_->filter_cache; }

  /// Memoized static page classifications (StoreDerived::class_memo) of
  /// this version; a mutation starts the next version with an empty memo.
  const Memo<std::string, FilterPruneAnalysis>& classification_memo() const {
    return derived_->class_memo;
  }

  /// Zone-map sketches: per (attribute, crossbar) min/max code plus a
  /// distinct-code bitmap for low-cardinality attributes. Folded from the
  /// blocks the load writes and kept exact across in-place mutation
  /// (note_mutation rebuilds the touched crossbars' sketches). Crossbar
  /// index = record / rows — parts share coordinates, so one index space
  /// covers both layouts.
  const ZoneMaps& zone_maps() const { return derived_->zones; }

  /// The derived state of the version this store holds (what
  /// freeze_snapshot publishes alongside the data groups).
  const std::shared_ptr<const StoreDerived>& derived() const {
    return derived_;
  }

  // --- mutation (Algorithm-1 UPDATE) ---------------------------------------
  // Crossbar data can be rewritten in place (engine::pim_update). Everything
  // derived from the data — distinct-value stats, co-occurrence maps, zone
  // sketches, page classifications — observes mutation through the protocol
  // below: take the mutation lock, mutate, call note_mutation(attr,
  // touched_crossbars). Queries racing a mutation on the SAME store are the
  // caller's bug (the db facade's per-table writer gate enforces exclusion);
  // the lock exists so that bug is caught, not silently raced.

  /// RAII exclusive mutation lock. pim_update asserts (debug builds) that
  /// the calling thread holds it.
  class MutationLock {
   public:
    explicit MutationLock(PimStore& store) : store_(&store) {
      store_->mutation_mutex_.lock();
      store_->mutation_owner_.store(std::this_thread::get_id(),
                                    std::memory_order_release);
    }
    ~MutationLock() {
      if (store_ != nullptr) {
        store_->mutation_owner_.store(std::thread::id{},
                                      std::memory_order_release);
        store_->mutation_mutex_.unlock();
      }
    }
    MutationLock(MutationLock&& other) noexcept : store_(other.store_) {
      other.store_ = nullptr;
    }
    MutationLock(const MutationLock&) = delete;
    MutationLock& operator=(const MutationLock&) = delete;
    MutationLock& operator=(MutationLock&&) = delete;

   private:
    PimStore* store_;
  };

  MutationLock lock_mutation() { return MutationLock(*this); }

  /// True when the calling thread holds the mutation lock.
  bool mutation_locked_by_caller() const {
    return mutation_owner_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  /// Bumped once per data mutation (note_mutation); lets callers detect
  /// that cached derivations of store contents are stale. Views report
  /// their snapshot's published version (the update-log prefix length).
  std::uint64_t data_version() const {
    return snap_ != nullptr ? snap_->version()
                            : data_version_.load(std::memory_order_acquire);
  }

  /// Records that `attr`'s stored values changed in place: bumps
  /// data_version and switches the builder to a successor StoreDerived, so
  /// a published snapshot keeps the old one untouched. The successor
  /// carries the stats forward with `attr`'s distinct values stale and its
  /// co-occurrence entries dropped, copies the zones and rebuilds the
  /// sketches of `touched_crossbars` (global crossbar indices whose rows
  /// were rewritten) exactly from the crossbars, and starts an empty
  /// classification memo; the shared filter cache stays as it is.
  /// Caller must hold the mutation lock.
  void note_mutation(std::size_t attr,
                     const std::vector<std::uint32_t>& touched_crossbars);

 private:
  /// Writes `part`'s attributes from the table, 64 records at a time, and
  /// folds each block into its crossbar's `zones` sketches.
  void load_part(int part, ZoneMaps& zones);

  pim::PimModule* module_;
  const rel::Table* table_;
  bool two_crossbar_ = false;
  std::size_t records_ = 0;
  std::uint32_t records_per_page_ = 0;
  std::size_t pages_per_part_ = 0;
  std::vector<int> attr_part_;               // attr -> part
  std::vector<RecordLayout> layouts_;        // per part
  std::vector<std::size_t> base_page_;       // per part
  std::uint32_t rows_per_crossbar_ = 0;
  /// The held version's derived state: built at load (builder), switched by
  /// note_mutation, or the snapshot's (view).
  std::shared_ptr<const StoreDerived> derived_;
  mutable std::mutex mutation_mutex_;
  std::atomic<std::thread::id> mutation_owner_{};
  std::atomic<std::uint64_t> data_version_{0};
  /// Set iff this store is a view; pins the snapshot it serves.
  std::shared_ptr<const StoreSnapshot> snap_;
};

// Statistics derived from a store's crossbars through PimStore::scan_blocks
// (SnapshotStats' lazy rebuilds).

/// Sorted distinct codes of `attr`, or nullopt once more than kMaxDistinct
/// are seen (PimStore::distinct_values' capping rule).
std::optional<std::vector<std::uint64_t>> scan_distinct(const PimStore& store,
                                                        std::size_t attr);

/// Sorted attr_b codes co-occurring with each attr_a code, from one
/// scan_blocks walk. `distinct_a` / `distinct_b` are the attributes' sorted
/// distinct codes (capped lists, so at most kMaxDistinct each): each code is
/// indexed by its list position through a CodeIndex, every record sets one
/// bit of an |a| x |b| bitmap (at most 2 MB), and each a code's list is
/// read off its bitmap row in order, already sorted. A stored code missing
/// from either list means the lists are stale: throws std::logic_error.
SnapshotStats::CoOccurrence build_co_occurrence(
    const PimStore& store, std::size_t attr_a,
    std::span<const std::uint64_t> distinct_a, std::size_t attr_b,
    std::span<const std::uint64_t> distinct_b);

}  // namespace bbpim::engine
