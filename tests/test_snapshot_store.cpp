// Snapshot subsystem (engine::StoreSnapshot + db::SnapshotManager):
// epoch-pinned MVCC snapshots over one shared builder store.
//
// What must hold, and is asserted here:
//   - Copy-on-write isolation: an UPDATE publishes a successor version
//     without touching readers pinned to the old one, and clones only the
//     column groups of the rewritten field on the crossbars whose bits
//     actually change (every other group stays shared).
//   - Lazy scratch: a view allocates only the scratch groups its queries
//     write; a builder that only loads holds none.
//   - Epoch reclamation: retired snapshots die exactly when their last
//     pinned reader drains; live_snapshots() never grows with history.
//   - Concurrent pin/unpin: readers racing a writer always observe a
//     store whose contents are a committed log prefix, byte-consistent
//     per version (run under TSan in CI).
//   - Store-equals-log-fold: after a concurrent mixed run, the final
//     shared store equals a serial replay of the committed update order —
//     the regression that pinned the htap_mix workers=4 final-checksum
//     divergence (non-commuting updates replayed out of commit order).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "db/db.hpp"
#include "db/snapshot_manager.hpp"
#include "engine_test_util.hpp"
#include "sql/parser.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/queries.hpp"

namespace bbpim {
namespace {

sql::BoundUpdate bound(const rel::Table& table, const std::string& sql_text) {
  return sql::bind_update(sql::parse_statement(sql_text).update,
                          table.schema());
}

/// Update programs need more scratch than the 128-column test geometry
/// leaves (same widening test_htap_determinism uses).
pim::PimConfig update_capable_pim() {
  pim::PimConfig pim = testutil::small_pim_config();
  pim.crossbar_cols = 256;
  return pim;
}

/// The synthetic relation with d_tag taken as a fact attribute: one
/// provenance, so Algorithm 1 accepts every SET / WHERE pair the seeded
/// update sequences below draw.
rel::Table one_provenance_table(std::size_t rows, std::uint64_t seed) {
  const rel::Table t = testutil::make_synthetic_table(rows, seed);
  std::vector<rel::Attribute> attrs = t.schema().attributes();
  attrs.back().dimension = false;  // d_tag
  std::vector<std::vector<std::uint64_t>> columns;
  for (std::size_t a = 0; a < attrs.size(); ++a) columns.push_back(t.column(a));
  return rel::Table::from_columns(rel::Schema(std::move(attrs)), t.name(),
                                  std::move(columns));
}

struct ManagerFixture {
  pim::PimConfig pim = update_capable_pim();
  host::HostConfig hcfg;
  db::Database database;
  const rel::Table* table = nullptr;
  db::SnapshotManager* mgr = nullptr;

  explicit ManagerFixture(std::size_t rows = 600, std::uint64_t seed = 42) {
    table = &database.register_table(one_provenance_table(rows, seed));
    mgr = &database.snapshot_manager(*table, /*two_crossbar=*/false, pim);
  }

  /// A fresh view store pinned to `snap` (private scratch, shared data).
  struct View {
    pim::PimModule module;
    engine::PimStore store;
    View(const ManagerFixture& fx,
         std::shared_ptr<const engine::StoreSnapshot> snap)
        : module(fx.pim),
          store(module, *fx.table, fx.mgr->store_options(), std::move(snap)) {}
  };
};

TEST(SnapshotStore, CopyOnWriteIsolatesPinnedReaders) {
  ManagerFixture fx;
  const auto snap0 = fx.mgr->acquire(fx.hcfg);
  EXPECT_EQ(snap0->version(), 0u);
  EXPECT_TRUE(snap0.get() == fx.mgr->acquire(fx.hcfg).get())
      << "re-acquiring an unchanged version must return the same snapshot";

  ManagerFixture::View view0(fx, snap0);
  EXPECT_TRUE(view0.store.is_view());
  const std::uint64_t checksum0 = view0.store.contents_checksum();

  // A selective update: rewrite f_val2 of the rows sharing record 0's
  // f_key. Only the crossbars holding those rows change bits.
  const std::size_t f_key = *fx.table->schema().index_of("f_key");
  const std::size_t f_val2 = *fx.table->schema().index_of("f_val2");
  const std::uint64_t key = fx.table->column(f_key)[0];
  const std::uint64_t fresh = (fx.table->column(f_val2)[0] + 1) % 50;
  std::uint64_t version = 0;
  const engine::UpdateStats stats = fx.mgr->apply_update(
      bound(*fx.table, "UPDATE synthetic SET f_val2 = " +
                           std::to_string(fresh) + " WHERE f_key = " +
                           std::to_string(key)),
      fx.hcfg, &version);
  EXPECT_EQ(version, 1u);
  EXPECT_GE(stats.updated_records, 1u);

  const auto snap1 = fx.mgr->acquire(fx.hcfg);
  EXPECT_EQ(snap1->version(), 1u);

  // The pinned v0 reader is untouched; a v1 reader sees the write.
  EXPECT_EQ(view0.store.contents_checksum(), checksum0);
  EXPECT_EQ(view0.store.read_attr(0, f_val2), fx.table->column(f_val2)[0]);
  ManagerFixture::View view1(fx, snap1);
  EXPECT_NE(view1.store.contents_checksum(), checksum0);
  EXPECT_EQ(view1.store.read_attr(0, f_val2), fresh);

  // CoW granularity: the versions share every data group except f_val2's,
  // and those only on the crossbars holding a selected record.
  const engine::PimStore& store = view1.store;
  const pim::Field field = store.field(f_val2);
  std::set<std::pair<std::size_t, std::uint32_t>> selected;
  for (std::size_t r = 0; r < fx.table->row_count(); ++r) {
    if (fx.table->column(f_key)[r] != key) continue;
    const std::size_t in_page = r % store.records_per_page();
    selected.emplace(
        r / store.records_per_page(),
        static_cast<std::uint32_t>(in_page / fx.pim.crossbar_rows));
  }
  ASSERT_FALSE(selected.empty());
  std::size_t shared = 0, total = 0;
  for (std::size_t p = 0; p < store.pages_per_part(); ++p) {
    for (std::uint32_t x = 0; x < fx.pim.crossbars_per_page; ++x) {
      const pim::Crossbar& xb = view1.module.page(store.module_page_index(0, p))
                                    .crossbar(x);
      const auto g0 = snap0->data_groups(0, p, x);
      const auto g1 = snap1->data_groups(0, p, x);
      ASSERT_EQ(g0.size(), xb.data_group_count());
      ASSERT_EQ(g1.size(), g0.size());
      const bool touched = selected.count({p, x}) != 0;
      for (std::uint32_t g = 0; g < g0.size(); ++g) {
        const bool holds_field =
            g >= xb.group_of(field.offset) &&
            g <= xb.group_of(field.offset + field.width - 1);
        const bool same = g0[g].get() == g1[g].get();
        EXPECT_EQ(same, !(holds_field && touched))
            << "page " << p << " crossbar " << x << " group " << g;
        // The view serves exactly the snapshot's groups.
        EXPECT_EQ(xb.data_groups()[g].get(), g1[g].get())
            << "page " << p << " crossbar " << x << " group " << g;
        ++total;
        shared += same;
      }
    }
  }
  EXPECT_LT(shared, total) << "the touched crossbars' groups must be cloned";
  EXPECT_GT(shared, total / 2)
      << "a selective update must leave most groups shared";

  // A page with no selected record shares v0's whole group table, and
  // re-pointing the v0 view at v1 leaves it serving exactly v1's groups.
  view0.store.adopt(snap1);
  for (std::size_t p = 0; p < store.pages_per_part(); ++p) {
    bool touched = false;
    for (std::uint32_t x = 0; x < fx.pim.crossbars_per_page; ++x) {
      touched |= selected.count({p, x}) != 0;
      const pim::Crossbar& xb =
          view0.module.page(view0.store.module_page_index(0, p)).crossbar(x);
      const auto want = snap1->data_groups(0, p, x);
      EXPECT_TRUE(std::equal(want.begin(), want.end(),
                             xb.data_groups().begin(), xb.data_groups().end()))
          << "page " << p << " crossbar " << x;
    }
    EXPECT_EQ(snap0->page_groups(0, p) == snap1->page_groups(0, p), !touched)
        << "page " << p;
  }
  EXPECT_EQ(view0.store.contents_checksum(), view1.store.contents_checksum());
}

TEST(SnapshotStore, ViewHoldsOnlyWrittenScratch) {
  // The 13 SSB texts as star joins over the normalized SF-0.01 catalog.
  ssb::SsbConfig cfg;
  cfg.scale_factor = 0.01;
  const ssb::SsbData data = ssb::generate(cfg);
  db::Database database;
  for (const rel::Table* t : {&data.lineorder, &data.date, &data.customer,
                              &data.supplier, &data.part}) {
    database.attach_table(*t);
  }
  db::Session session(database);
  for (const ssb::SsbQuery& q : ssb::queries()) {
    session.execute(q.sql, db::BackendKind::kOneXb);
  }

  const pim::PimConfig& pim = session.options().pim;
  const std::size_t group_bytes = std::size_t{pim::kGroupCols} *
                                  (pim.crossbar_rows / 64) *
                                  sizeof(std::uint64_t);
  for (const rel::Table* t : {&data.lineorder, &data.date, &data.customer,
                              &data.supplier, &data.part}) {
    const pim::ResidentBytes builder =
        database.snapshot_manager(*t, /*two_crossbar=*/false, pim)
            .builder_resident_bytes();
    EXPECT_GT(builder.data, 0u) << t->name();
    EXPECT_EQ(builder.scratch, 0u)
        << t->name() << ": a builder that only loads writes no scratch";
    // The view shares the builder's version-0 data groups one for one.
    const engine::PimStore& view =
        session.pim_engine(engine::EngineKind::kOneXb, t->name()).store();
    ASSERT_TRUE(view.is_view());
    EXPECT_EQ(view.resident_bytes().data, builder.data) << t->name();
  }
  // Each crossbar of the fact view wrote its few filter columns into at
  // most its first scratch group.
  engine::PimStore& fact =
      session.pim_engine(engine::EngineKind::kOneXb, "lineorder").store();
  const std::size_t crossbars = fact.pages_per_part() * pim.crossbars_per_page;
  EXPECT_GT(fact.resident_bytes().scratch, 0u);
  EXPECT_LE(fact.resident_bytes().scratch, crossbars * group_bytes);
  for (std::size_t p = 0; p < fact.pages_per_part(); ++p) {
    const pim::Page& page = fact.page(0, p);
    for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
      const pim::Crossbar& xb = page.crossbar(x);
      std::uint32_t scratch_groups = 0;
      for (std::uint32_t g = xb.data_group_count(); g < xb.group_count(); ++g) {
        scratch_groups += xb.group_resident(g);
      }
      EXPECT_LE(scratch_groups, 1u) << "page " << p << " crossbar " << x;
    }
  }
}

/// Independent oracles for the derived statistics: plain ordered
/// containers filled one record at a time through PimStore::read_attr.
std::optional<std::vector<std::uint64_t>> reference_distinct(
    const engine::PimStore& store, std::size_t attr) {
  std::set<std::uint64_t> seen;
  for (std::size_t r = 0; r < store.record_count(); ++r) {
    seen.insert(store.read_attr(r, attr));
  }
  if (seen.size() > engine::kMaxDistinct) return std::nullopt;
  return std::vector<std::uint64_t>(seen.begin(), seen.end());
}

std::map<std::uint64_t, std::vector<std::uint64_t>> reference_co_occurrence(
    const engine::PimStore& store, std::size_t attr_a, std::size_t attr_b) {
  std::map<std::uint64_t, std::set<std::uint64_t>> co;
  for (std::size_t r = 0; r < store.record_count(); ++r) {
    co[store.read_attr(r, attr_a)].insert(store.read_attr(r, attr_b));
  }
  std::map<std::uint64_t, std::vector<std::uint64_t>> out;
  for (const auto& [a, bs] : co) out[a].assign(bs.begin(), bs.end());
  return out;
}

/// The store's co-occurrence map in the oracle's shape; the per-key value
/// order is kept, so comparing with the oracle also checks it is sorted.
std::map<std::uint64_t, std::vector<std::uint64_t>> ordered(
    const std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>& co) {
  return {co.begin(), co.end()};
}

TEST(SnapshotStore, DerivedStateIsPerVersion) {
  // Seeded UPDATE sequences with a view pinned at every version. Each
  // view's distinct stats and co-occurrence maps must equal a row-by-row
  // reference over that view's own crossbars, and its zone sketches a
  // recompute from them: no later UPDATE may leak into an earlier
  // version's derived state, and no lazily filled entry may be computed
  // from another version's data. Even versions warm their stats at pin
  // time (so carry-forward copies see filled caches); odd versions fill
  // lazily at the end, after every later version exists.
  for (const std::uint64_t seed : {5u, 17u, 2024u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ManagerFixture fx(600, seed);
    const rel::Schema& schema = fx.table->schema();
    const std::size_t nattrs = schema.attribute_count();
    const std::size_t f_val2 = *schema.index_of("f_val2");
    const std::pair<std::size_t, std::size_t> pairs[] = {
        {*schema.index_of("f_gid"), *schema.index_of("d_tag")},
        {*schema.index_of("d_tag"), f_val2},
        {f_val2, *schema.index_of("f_gid")},
        {*schema.index_of("f_key"), *schema.index_of("f_val")},
    };
    const auto warm = [&](const engine::PimStore& store) {
      for (std::size_t a = 0; a < nattrs; ++a) store.distinct_values(a);
      for (const auto& [a, b] : pairs) store.co_occurrence(a, b);
    };

    // SET targets and their code ranges; d_tag never takes 7 here, so
    // "WHERE d_tag = 7" matches nothing.
    const std::pair<const char*, std::uint64_t> targets[] = {
        {"f_gid", 10}, {"f_val2", 50}, {"d_tag", 7}, {"f_val", 1000}};
    Rng rng(seed + 2019);
    std::vector<std::string> updates;
    for (int i = 0; i < 22; ++i) {
      const auto& [set, set_codes] = targets[rng.next_below(4)];
      const auto& [where, where_codes] = targets[rng.next_below(3)];
      updates.push_back("UPDATE synthetic SET " + std::string(set) + " = " +
                        std::to_string(rng.next_below(set_codes)) + " WHERE " +
                        where + " = " +
                        std::to_string(rng.next_below(where_codes)));
    }
    updates[6] = "UPDATE synthetic SET f_val2 = 60 WHERE f_gid = 1";  // new
    updates[13] = "UPDATE synthetic SET f_val = 5 WHERE d_tag = 7";   // none

    std::vector<std::unique_ptr<ManagerFixture::View>> views;
    views.push_back(
        std::make_unique<ManagerFixture::View>(fx, fx.mgr->acquire(fx.hcfg)));
    warm(views.back()->store);
    for (const std::string& u : updates) {
      fx.mgr->apply_update(bound(*fx.table, u), fx.hcfg, nullptr);
      views.push_back(std::make_unique<ManagerFixture::View>(
          fx, fx.mgr->acquire(fx.hcfg)));
      if (views.size() % 2 == 1) warm(views.back()->store);
    }
    ASSERT_EQ(views.back()->store.data_version(), updates.size());

    bool saw_code_60 = false;
    for (const auto& view : views) {
      const engine::PimStore& store = view->store;
      const std::string what =
          "version " + std::to_string(store.data_version());
      for (std::size_t a = 0; a < nattrs; ++a) {
        EXPECT_EQ(store.distinct_values(a), reference_distinct(store, a))
            << what << ", attr " << a;
      }
      const auto& f_val2_values = store.distinct_values(f_val2);
      saw_code_60 |= f_val2_values &&
                     std::binary_search(f_val2_values->begin(),
                                        f_val2_values->end(), 60);
      for (const auto& [a, b] : pairs) {
        const auto* co = store.co_occurrence(a, b);
        ASSERT_NE(co, nullptr) << what;
        EXPECT_EQ(ordered(*co), reference_co_occurrence(store, a, b))
            << what << ", pair " << a << "," << b;
      }
      const engine::ZoneMaps& zones = store.zone_maps();
      for (std::size_t a = 0; a < nattrs; ++a) {
        for (std::size_t x = 0; x < zones.crossbar_count(); ++x) {
          engine::ZoneSketch want;
          const std::size_t first = x * fx.pim.crossbar_rows;
          store.scan_blocks({&a, 1}, first, first + fx.pim.crossbar_rows,
                            [&](std::size_t, std::uint32_t count,
                                std::span<const pim::RowBlock> blocks) {
                              for (std::uint32_t j = 0; j < count; ++j) {
                                want.add(blocks[0][j], zones.bitmap_attr(a));
                              }
                              return true;
                            });
          const engine::ZoneSketch& got = zones.sketch(a, x);
          EXPECT_EQ(got.min, want.min)
              << what << ", attr " << a << ", xb " << x;
          EXPECT_EQ(got.max, want.max)
              << what << ", attr " << a << ", xb " << x;
          EXPECT_EQ(got.codes, want.codes)
              << what << ", attr " << a << ", xb " << x;
        }
      }
    }
    EXPECT_TRUE(saw_code_60) << "the new-code UPDATE must reach some version";
  }
}

TEST(SnapshotStore, CarryForwardSharesStatsByPointer) {
  // An UPDATE of X builds the successor's stats by sharing every entry that
  // does not involve X: the same distinct list and co-occurrence map, at
  // the same address. Entries involving X are rebuilt from the successor's
  // own crossbars, while the old version keeps its own.
  ManagerFixture fx(600, 5);
  const rel::Schema& schema = fx.table->schema();
  const std::size_t f_gid = *schema.index_of("f_gid");
  const std::size_t d_tag = *schema.index_of("d_tag");
  const std::size_t x = *schema.index_of("f_val2");
  using Pairs = std::vector<std::pair<std::size_t, std::size_t>>;
  const Pairs kept = {{f_gid, d_tag}, {d_tag, f_gid}};
  const Pairs rebuilt = {{d_tag, x}, {x, f_gid}};

  ManagerFixture::View v0(fx, fx.mgr->acquire(fx.hcfg));
  for (const auto& pairs : {kept, rebuilt}) {
    for (const auto& [a, b] : pairs) {
      ASSERT_NE(v0.store.co_occurrence(a, b), nullptr);
    }
  }

  fx.mgr->apply_update(
      bound(*fx.table, "UPDATE synthetic SET f_val2 = 60 WHERE f_gid = 1"),
      fx.hcfg, nullptr);
  ManagerFixture::View v1(fx, fx.mgr->acquire(fx.hcfg));
  ASSERT_EQ(v1.store.data_version(), 1u);

  for (const auto& [a, b] : kept) {
    EXPECT_EQ(v1.store.co_occurrence(a, b), v0.store.co_occurrence(a, b))
        << "pair " << a << "," << b;
  }
  for (const std::size_t a : {f_gid, d_tag}) {
    EXPECT_EQ(&v1.store.distinct_values(a), &v0.store.distinct_values(a))
        << "attr " << a;
  }
  EXPECT_NE(&v1.store.distinct_values(x), &v0.store.distinct_values(x));
  EXPECT_EQ(v1.store.distinct_values(x), reference_distinct(v1.store, x));
  for (const auto& [a, b] : rebuilt) {
    const auto* now = v1.store.co_occurrence(a, b);
    const auto* was = v0.store.co_occurrence(a, b);
    ASSERT_NE(now, nullptr);
    EXPECT_NE(now, was) << "pair " << a << "," << b;
    EXPECT_EQ(ordered(*now), reference_co_occurrence(v1.store, a, b));
    EXPECT_EQ(ordered(*was), reference_co_occurrence(v0.store, a, b));
  }
}

/// A store over a table with a 40-bit attribute: `wide` takes 12 values
/// spread above 2^32, `grp` 6 values, and `wide` is a function of the row
/// index so every grp value pairs with several wide values.
struct WideFixture {
  pim::PimConfig pim = testutil::small_pim_config();
  pim::PimModule module{pim};
  rel::Table table;
  std::unique_ptr<engine::PimStore> store;

  WideFixture() {
    table = rel::Table(rel::Schema({{"wide", rel::DataType::kInt, 40, nullptr},
                                    {"grp", rel::DataType::kInt, 3, nullptr}}),
                       "wide");
    Rng rng(77);
    for (std::uint64_t r = 0; r < 700; ++r) {
      const std::uint64_t row[] = {(1ULL << 39) + (r % 12) * (1ULL << 33) + r % 5,
                                   rng.next_below(6)};
      table.append_row(row);
    }
    store = std::make_unique<engine::PimStore>(module, table);
  }
};

TEST(SnapshotStore, CoOccurrenceOfWideAttribute) {
  WideFixture fx;
  for (const auto& [a, b] : {std::pair<std::size_t, std::size_t>{0, 1},
                             std::pair<std::size_t, std::size_t>{1, 0}}) {
    ASSERT_TRUE(fx.store->distinct_values(a).has_value());
    EXPECT_EQ(fx.store->distinct_values(a), reference_distinct(*fx.store, a));
    const auto* co = fx.store->co_occurrence(a, b);
    ASSERT_NE(co, nullptr);
    EXPECT_EQ(ordered(*co), reference_co_occurrence(*fx.store, a, b))
        << "pair " << a << "," << b;
  }
  EXPECT_GT(fx.store->distinct_values(0)->front(), 1ULL << 32);
}

TEST(SnapshotStore, StaleDistinctListThrows) {
  // A distinct list lacking a stored value can only be stale; the build
  // must refuse it rather than index past its bitmap.
  WideFixture fx;
  std::vector<std::uint64_t> wide = *fx.store->distinct_values(0);
  const std::vector<std::uint64_t> grp = *fx.store->distinct_values(1);
  wide.erase(wide.begin() + 3);
  EXPECT_THROW(engine::build_co_occurrence(*fx.store, 0, wide, 1, grp),
               std::logic_error);
  EXPECT_THROW(engine::build_co_occurrence(*fx.store, 1, grp, 0, wide),
               std::logic_error);
  EXPECT_NO_THROW(engine::build_co_occurrence(
      *fx.store, 1, grp, 0, *fx.store->distinct_values(0)));
}

TEST(SnapshotStore, RetiredSnapshotsReclaimWhenReadersDrain) {
  ManagerFixture fx;
  auto current = fx.mgr->acquire(fx.hcfg);
  EXPECT_EQ(fx.mgr->live_snapshots(), 1);

  // A dozen update rounds with a reader that re-pins each round: history
  // grows, the live set does not.
  const std::string toggle[] = {
      "UPDATE synthetic SET d_tag = 7 WHERE d_tag = 1",
      "UPDATE synthetic SET d_tag = 1 WHERE d_tag = 7",
  };
  for (int round = 0; round < 12; ++round) {
    fx.mgr->apply_update(bound(*fx.table, toggle[round % 2]), fx.hcfg,
                         nullptr);
    current = fx.mgr->acquire(fx.hcfg);  // drop the old pin, pin the new
    EXPECT_EQ(current->version(), static_cast<std::uint64_t>(round + 1));
    EXPECT_EQ(fx.mgr->live_snapshots(), 1)
        << "retired versions must die when their last reader drains";
  }
  EXPECT_EQ(fx.mgr->published_count(), 13u);  // v0 + 12 updates

  // A stale pin keeps exactly its version alive — and only until released.
  const auto pinned = current;
  fx.mgr->apply_update(bound(*fx.table, toggle[0]), fx.hcfg, nullptr);
  current = fx.mgr->acquire(fx.hcfg);
  EXPECT_EQ(fx.mgr->live_snapshots(), 2);
  ManagerFixture::View stale_view(fx, pinned);
  const std::uint64_t stale_checksum = stale_view.store.contents_checksum();
  EXPECT_NE(stale_checksum, 0u);
}

TEST(SnapshotStore, StalePinReleasesAfterLastReader) {
  ManagerFixture fx;
  auto pinned = fx.mgr->acquire(fx.hcfg);
  fx.mgr->apply_update(
      bound(*fx.table, "UPDATE synthetic SET d_tag = 7 WHERE d_tag = 1"),
      fx.hcfg, nullptr);
  const auto current = fx.mgr->acquire(fx.hcfg);
  EXPECT_EQ(fx.mgr->live_snapshots(), 2);
  pinned.reset();
  EXPECT_EQ(fx.mgr->live_snapshots(), 1);
}

TEST(SnapshotStore, ConcurrentReadersSeeConsistentVersions) {
  ManagerFixture fx(500, 77);
  constexpr int kReaders = 3;
  constexpr int kUpdates = 8;

  std::mutex mu;
  std::map<std::uint64_t, std::uint64_t> checksum_of_version;
  bool mismatch = false;
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&fx, &mu, &checksum_of_version, &mismatch, &stop] {
      ManagerFixture::View view(fx, fx.mgr->acquire(fx.hcfg));
      do {
        const auto snap = fx.mgr->acquire(fx.hcfg);
        view.store.adopt(snap);
        const std::uint64_t ck = view.store.contents_checksum();
        std::lock_guard lock(mu);
        const auto [it, inserted] =
            checksum_of_version.emplace(snap->version(), ck);
        if (!inserted && it->second != ck) mismatch = true;
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  const std::string updates[] = {
      "UPDATE synthetic SET d_tag = 7 WHERE d_tag = 1",
      "UPDATE synthetic SET f_val2 = 13 WHERE f_gid = 2",
      "UPDATE synthetic SET d_tag = 1 WHERE d_tag = 7",
      "UPDATE synthetic SET f_val2 = 5 WHERE f_val2 = 13",
  };
  for (int i = 0; i < kUpdates; ++i) {
    fx.mgr->apply_update(bound(*fx.table, updates[i % std::size(updates)]),
                         fx.hcfg, nullptr);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(mismatch)
      << "two readers pinned to one version read different bytes";

  // Every observed version's checksum must equal the serial fold of that
  // log prefix on a fresh builder.
  ManagerFixture oracle(500, 77);
  auto expect_matches = [&](std::uint64_t version) {
    const auto it = checksum_of_version.find(version);
    if (it == checksum_of_version.end()) return;
    ManagerFixture::View view(oracle, oracle.mgr->acquire(oracle.hcfg));
    EXPECT_EQ(view.store.contents_checksum(), it->second)
        << "version " << version << " diverged from its serial log fold";
  };
  expect_matches(0);
  for (int i = 0; i < kUpdates; ++i) {
    oracle.mgr->apply_update(
        bound(*oracle.table, updates[i % std::size(updates)]), oracle.hcfg,
        nullptr);
    expect_matches(static_cast<std::uint64_t>(i) + 1);
  }
}

TEST(SnapshotStore, CommitOrderOfNonCommutingUpdatesIsPinnedByTheLog) {
  // These two renames do not commute: applied 1→2 then 2→3, the original
  // tag-1 rows end at 3; applied 2→3 then 1→2, they end at 2. The update
  // log's commit order is therefore load-bearing — any replay (a fresh
  // builder, the serial oracle) must fold the log in order, which is
  // exactly what the htap_mix workers=4 checksum divergence came down to.
  const std::string u12 = "UPDATE synthetic SET d_tag = 2 WHERE d_tag = 1";
  const std::string u23 = "UPDATE synthetic SET d_tag = 3 WHERE d_tag = 2";

  ManagerFixture ab;
  ab.mgr->apply_update(bound(*ab.table, u12), ab.hcfg, nullptr);
  ab.mgr->apply_update(bound(*ab.table, u23), ab.hcfg, nullptr);
  ManagerFixture::View view_ab(ab, ab.mgr->acquire(ab.hcfg));

  ManagerFixture ba;
  ba.mgr->apply_update(bound(*ba.table, u23), ba.hcfg, nullptr);
  ba.mgr->apply_update(bound(*ba.table, u12), ba.hcfg, nullptr);
  ManagerFixture::View view_ba(ba, ba.mgr->acquire(ba.hcfg));

  EXPECT_NE(view_ab.store.contents_checksum(),
            view_ba.store.contents_checksum());
}

TEST(SnapshotStore, ConcurrentFinalStoreEqualsCommittedLogFold) {
  // Regression for the htap_mix workers=4 final-checksum divergence: after
  // a concurrent mixed run, the shared store must equal a single-threaded
  // replay of the updates in COMMITTED order (recovered from each update's
  // data_version). Under the retired per-worker-replica design this held
  // only when updates commuted; the shared-builder design makes it
  // structural.
  db::SessionOptions opts;
  opts.pim = update_capable_pim();

  db::Database database;
  database.register_table(testutil::make_synthetic_table(600, 9));
  db::QueryServiceOptions service_opts;
  service_opts.workers = 4;
  service_opts.session = opts;
  db::QueryService service(database, service_opts);
  service.warm_up(db::BackendKind::kOneXb);

  // Deliberately non-commuting chains racing each other across workers.
  const std::string updates[] = {
      "UPDATE synthetic SET d_tag = 2 WHERE d_tag = 1",
      "UPDATE synthetic SET d_tag = 3 WHERE d_tag = 2",
      "UPDATE synthetic SET d_tag = 1 WHERE d_tag = 3",
      "UPDATE synthetic SET f_val2 = 21 WHERE f_gid = 1",
      "UPDATE synthetic SET f_val2 = 8 WHERE f_val2 = 21",
  };
  std::vector<std::pair<std::string, std::future<db::ResultSet>>> submitted;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& u : updates) {
      submitted.emplace_back(u, service.submit(u));
    }
    submitted.emplace_back("SELECT COUNT(*) FROM synthetic",
                           service.submit("SELECT COUNT(*) FROM synthetic"));
  }
  std::map<std::uint64_t, std::string> committed;  // version -> sql
  for (auto& [sql_text, future] : submitted) {
    const db::ResultSet rs = future.get();
    if (rs.is_update()) {
      ASSERT_TRUE(committed.emplace(rs.data_version(), sql_text).second)
          << "two updates committed at one log position";
    }
  }
  service.shutdown();
  ASSERT_EQ(committed.size(), 15u);

  // Serial fold of the committed order on a fresh database.
  db::Database oracle_db;
  oracle_db.register_table(testutil::make_synthetic_table(600, 9));
  db::Session oracle(oracle_db, opts);
  for (const auto& [version, sql_text] : committed) {
    const db::ResultSet rs =
        oracle.execute(sql_text, db::BackendKind::kOneXb);
    EXPECT_EQ(rs.data_version(), version);
  }

  // The concurrent database's current store must equal the fold.
  db::Session reader(database, opts);
  reader.execute("SELECT COUNT(*) FROM synthetic", db::BackendKind::kOneXb);
  EXPECT_EQ(reader.pim_engine(engine::EngineKind::kOneXb)
                .store()
                .contents_checksum(),
            oracle.pim_engine(engine::EngineKind::kOneXb)
                .store()
                .contents_checksum());
}

TEST(SnapshotStore, JoinPinsOneConsistentSnapshotPerTable) {
  // A multi-table join concurrent with UPDATEs on the fact table must see
  // exactly ONE data version per touched table: every joined result must
  // equal the serial oracle at its reported fact version, with the
  // dimension pinned at its own (unmutated) version. A join that read the
  // fact mid-update, or mixed two fact versions across its scan and the
  // hash join, produces rows no oracle version can reproduce.
  db::SessionOptions opts;
  opts.pim = update_capable_pim();

  const auto make_fact = [] {
    rel::Schema schema{{{"fk", rel::DataType::kInt, 8, nullptr},
                        {"v", rel::DataType::kInt, 8, nullptr}}};
    rel::Table fact(schema, "orders");
    for (std::size_t r = 0; r < 240; ++r) {
      fact.append_row(std::vector<std::uint64_t>{r % 10, r % 50});
    }
    return fact;
  };
  const auto make_dim = [] {
    rel::Schema schema{{{"dk", rel::DataType::kInt, 8, nullptr},
                        {"g", rel::DataType::kInt, 8, nullptr}}};
    rel::Table dim(schema, "cat");
    for (std::uint64_t k = 0; k < 10; ++k) {
      dim.append_row(std::vector<std::uint64_t>{k, k % 3});
    }
    return dim;
  };

  db::Database database;
  database.register_table(make_fact());
  database.register_table(make_dim());

  const std::string join_sql =
      "SELECT g, SUM(v) AS s FROM orders, cat WHERE fk = dk "
      "GROUP BY g ORDER BY g";
  // Non-commuting value rotation: consecutive versions answer differently.
  const std::string updates[] = {
      "UPDATE orders SET v = 50 WHERE v = 3",
      "UPDATE orders SET v = 51 WHERE v = 50",
      "UPDATE orders SET v = 3 WHERE v = 51",
  };
  constexpr int kUpdates = 9;

  // Readers race the updater; each records (fact version -> joined rows).
  std::mutex mu;
  std::map<std::uint64_t, std::vector<engine::ResultRow>> seen;
  bool version_mix = false;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      db::Session session(database, opts);
      do {
        const db::ResultSet rs =
            session.execute(join_sql, db::BackendKind::kOneXb);
        std::uint64_t fact_version = 0, dim_version = 0;
        for (const auto& [name, version] : rs.table_versions()) {
          (name == "orders" ? fact_version : dim_version) = version;
        }
        std::lock_guard lock(mu);
        if (fact_version != rs.data_version() || dim_version != 0) {
          version_mix = true;
        }
        const auto [it, inserted] =
            seen.emplace(rs.data_version(), rs.rows());
        if (!inserted && it->second != rs.rows()) version_mix = true;
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  db::Session updater(database, opts);
  for (int i = 0; i < kUpdates; ++i) {
    const db::ResultSet rs = updater.execute(
        updates[i % std::size(updates)], db::BackendKind::kOneXb);
    EXPECT_EQ(rs.data_version(), static_cast<std::uint64_t>(i) + 1);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(version_mix)
      << "a join mixed data versions across its per-table scans";
  EXPECT_FALSE(seen.empty());

  // Serial oracle: rebuild the fact table at each version by folding the
  // update log on the host, and join it on the reference backend. Every
  // concurrently observed result must match its version's oracle exactly.
  rel::Table fact = make_fact();
  for (int version = 0; version <= kUpdates; ++version) {
    if (version > 0) {
      const sql::BoundUpdate u =
          bound(fact, updates[(version - 1) % std::size(updates)]);
      rel::Table next(fact.schema(), fact.name());
      std::vector<std::uint64_t> row(2);
      for (std::size_t r = 0; r < fact.row_count(); ++r) {
        for (std::size_t a = 0; a < 2; ++a) row[a] = fact.value(r, a);
        bool hit = true;
        for (const sql::BoundPredicate& p : u.filters) {
          if (!p.matches(fact.value(r, p.attr))) {
            hit = false;
            break;
          }
        }
        if (hit) row[u.attr] = u.value;
        next.append_row(row);
      }
      fact = std::move(next);
    }
    const auto it = seen.find(static_cast<std::uint64_t>(version));
    if (it == seen.end()) continue;
    db::Database oracle_db;
    oracle_db.register_table(rel::Table(fact));
    oracle_db.register_table(make_dim());
    db::Session oracle(oracle_db, opts);
    const db::ResultSet expected =
        oracle.execute(join_sql, db::BackendKind::kReference);
    EXPECT_EQ(it->second, expected.rows())
        << "joined rows at version " << version
        << " diverged from the serial oracle";
  }
}

}  // namespace
}  // namespace bbpim
