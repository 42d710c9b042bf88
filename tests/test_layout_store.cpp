// Tests for the record layout and the PIM-resident store (loading,
// partitioning, validity bits, distinct stats) and the block transfers
// behind loading and scan readback.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "engine_test_util.hpp"
#include "host/read_set.hpp"

namespace bbpim::engine {
namespace {

using testutil::make_synthetic_table;
using testutil::small_pim_config;

TEST(RecordLayout, PacksDenselyAndReservesValidity) {
  const rel::Table t = make_synthetic_table(10, 1);
  const pim::PimConfig cfg = small_pim_config();
  const std::vector<std::size_t> all = {0, 1, 2, 3, 4};
  const RecordLayout l = RecordLayout::build(t.schema(), all, cfg);
  EXPECT_EQ(l.field(0).offset, 0u);
  EXPECT_EQ(l.field(0).width, 12u);
  EXPECT_EQ(l.field(1).offset, 12u);
  // valid bit right after the data, scratch after that.
  EXPECT_EQ(l.valid_col(), t.schema().record_bits());
  EXPECT_EQ(l.scratch_begin(), l.valid_col() + 1);
  EXPECT_TRUE(l.has(3));
  EXPECT_THROW(l.field(99), std::out_of_range);

  const std::vector<std::size_t> subset = {1, 4};
  const RecordLayout part = RecordLayout::build(t.schema(), subset, cfg);
  EXPECT_TRUE(part.has(4));
  EXPECT_FALSE(part.has(0));
}

TEST(RecordLayout, OverflowThrows) {
  pim::PimConfig cfg = small_pim_config();
  cfg.crossbar_cols = 16;  // too small for the 35-bit record
  const rel::Table t = make_synthetic_table(1, 1);
  const std::vector<std::size_t> all = {0, 1, 2, 3, 4};
  EXPECT_THROW(RecordLayout::build(t.schema(), all, cfg), std::runtime_error);
}

TEST(PimStoreTest, LoadRoundTripOneXb) {
  pim::PimModule module(small_pim_config());
  const rel::Table t = make_synthetic_table(600, 2);  // 2.34 pages
  PimStore store(module, t);
  EXPECT_EQ(store.parts(), 1);
  EXPECT_EQ(store.record_count(), 600u);
  EXPECT_EQ(store.records_per_page(), 256u);
  EXPECT_EQ(store.pages_per_part(), 3u);
  EXPECT_EQ(store.page_records(0), 256u);
  EXPECT_EQ(store.page_records(2), 88u);  // tail page partial

  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const std::size_t r = rng.next_below(600);
    const std::size_t a = rng.next_below(5);
    EXPECT_EQ(store.read_attr(r, a), t.value(r, a)) << r << "," << a;
  }

  // Validity bits: set for real records, clear for padding.
  const RecordLayout& l = store.layout(0);
  pim::Page& tail = store.page(0, 2);
  const auto c_valid = tail.locate(87);
  const auto c_pad = tail.locate(88);
  EXPECT_EQ(tail.crossbar(c_valid.crossbar)
                .read_row_bits(c_valid.row, l.valid_col(), 1),
            1u);
  EXPECT_EQ(
      tail.crossbar(c_pad.crossbar).read_row_bits(c_pad.row, l.valid_col(), 1),
      0u);
}

TEST(PimStoreTest, TwoCrossbarPartitioning) {
  pim::PimModule module(small_pim_config());
  const rel::Table t = make_synthetic_table(300, 4);
  PimStore store(module, t, {.two_crossbar = true});
  EXPECT_EQ(store.parts(), 2);
  EXPECT_EQ(store.part_of_attr(0), 0);  // f_key
  EXPECT_EQ(store.part_of_attr(4), 1);  // d_tag
  EXPECT_EQ(store.pages_per_part(), 2u);
  EXPECT_EQ(module.page_count(), 4u);  // 2 pages per part

  // Both parts answer functional reads; coordinates align across parts.
  for (std::size_t r : {0u, 255u, 256u, 299u}) {
    EXPECT_EQ(store.read_attr(r, 0), t.value(r, 0));
    EXPECT_EQ(store.read_attr(r, 4), t.value(r, 4));
  }
}

TEST(PimStoreTest, DistinctStats) {
  pim::PimModule module(small_pim_config());
  // `key` takes one more distinct value than the cap, `tag` seven.
  rel::Table t(rel::Schema({{"key", rel::DataType::kInt, 13, nullptr},
                            {"tag", rel::DataType::kInt, 3, nullptr}}),
               "distinct");
  for (std::uint64_t r = 0; r <= kMaxDistinct; ++r) {
    const std::uint64_t row[] = {r, (r * 5) % 7};
    t.append_row(row);
  }
  PimStore store(module, t);
  // Under the cap: every value, sorted.
  const auto& tags = store.distinct_values(1);
  ASSERT_TRUE(tags.has_value());
  EXPECT_EQ(*tags, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6}));
  // Over the cap: no stats.
  EXPECT_FALSE(store.distinct_values(0).has_value());
  EXPECT_EQ(scan_distinct(store, 0), std::nullopt);
  EXPECT_EQ(scan_distinct(store, 1), tags);
}

TEST(PimStoreTest, RejectsEmptyRelation) {
  pim::PimModule module(small_pim_config());
  rel::Table t(rel::Schema({{"a", rel::DataType::kInt, 4, nullptr}}), "empty");
  EXPECT_THROW(PimStore(module, t), std::invalid_argument);
}

// --- Block transfers: parity with the per-record path -----------------------

/// 128-row crossbars (two column words each), four per page.
pim::PimConfig two_word_config() {
  pim::PimConfig cfg = small_pim_config();
  cfg.crossbar_rows = 128;
  return cfg;
}

void expect_block_load_matches_per_record_writes(const PimStore::Options& opt) {
  const pim::PimConfig cfg = two_word_config();
  // 1100 records: the last 64-row word holds 12, the last 512-record page
  // 76, so both the word and the page are partial.
  const rel::Table t = make_synthetic_table(1100, 8);
  pim::PimModule module(cfg);
  const PimStore store(module, t, opt);
  ASSERT_EQ(store.pages_per_part(), 3u);

  // Reference: the same pages, every record written field by field.
  pim::PimModule ref(cfg);
  for (int part = 0; part < store.parts(); ++part) {
    const RecordLayout& layout = store.layout(part);
    const std::size_t base =
        ref.allocate_pages(store.pages_per_part(), layout.scratch_begin());
    for (std::size_t r = 0; r < t.row_count(); ++r) {
      pim::Page& pg = ref.page(base + r / store.records_per_page());
      const pim::Page::RecordCoord c = pg.locate(
          static_cast<std::uint32_t>(r % store.records_per_page()));
      pim::Crossbar& xb = pg.crossbar(c.crossbar);
      for (const std::size_t a : layout.attrs()) {
        const pim::Field f = layout.field(a);
        xb.write_row_bits(c.row, f.offset, f.width, t.value(r, a));
      }
      xb.write_row_bits(c.row, layout.valid_col(), 1, 1);
    }
    for (std::size_t p = 0; p < store.pages_per_part(); ++p) {
      const pim::Page& got = module.page(store.module_page_index(part, p));
      const pim::Page& want = ref.page(base + p);
      for (std::uint32_t x = 0; x < got.crossbar_count(); ++x) {
        for (std::uint32_t c = 0; c < layout.scratch_begin(); ++c) {
          EXPECT_EQ(got.crossbar(x).column(c), want.crossbar(x).column(c))
              << "part " << part << " page " << p << " crossbar " << x
              << " column " << c;
        }
        // Both writers are value-aware: the same groups hold bits.
        EXPECT_EQ(got.crossbar(x).resident_bytes().data,
                  want.crossbar(x).resident_bytes().data)
            << "part " << part << " page " << p << " crossbar " << x;
        EXPECT_EQ(got.crossbar(x).max_extra_row_writes(),
                  want.crossbar(x).max_extra_row_writes())
            << "part " << part << " page " << p << " crossbar " << x;
      }
    }
  }

  // The checksum reads the crossbars; it must fold the table's values.
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t r = 0; r < t.row_count(); ++r) {
    for (std::size_t a = 0; a < t.schema().attribute_count(); ++a) {
      h = (h ^ t.value(r, a)) * 1099511628211ULL;
    }
  }
  EXPECT_EQ(store.contents_checksum(), h);
}

TEST(PimStoreBlock, LoadMatchesPerRecordWritesOneXb) {
  expect_block_load_matches_per_record_writes(PimStore::Options());
}

TEST(PimStoreBlock, LoadMatchesPerRecordWritesTwoXb) {
  // Two-crossbar split of the synthetic relation: f_* in part 0, d_tag in 1.
  expect_block_load_matches_per_record_writes({.two_crossbar = true});
}

/// execute_scan against a record-at-a-time oracle: the survivors from the
/// table, their codes through PimStore::read_attr, and the unique lines of
/// one ReadSet::touch per survivor per chunk. The scan sizes its output
/// from per-page survivor counts and fills each page's rows in place, in
/// parallel at sim_threads > 1.
void expect_scan_matches_per_record_walk(EngineKind kind, bool prune,
                                         std::uint32_t sim_threads) {
  testutil::EngineFixture fx(kind, 900, 31);  // partial last word and page
  const PimStore& store = *fx.store;
  // A key range around record 5's key: survivors on page 0, while the
  // other pages' zone maps (min/max over ~256 random 12-bit keys) cannot
  // refute it, so pruning leaves them active with few or no survivors.
  const std::uint64_t key = fx.table->value(5, 0);
  const std::vector<std::string> texts = {
      "SELECT COUNT(*) FROM t WHERE f_key < 2400 AND f_gid BETWEEN 1 AND 4",
      "SELECT COUNT(*) FROM t WHERE f_key BETWEEN " + std::to_string(key) +
          " AND " + std::to_string(key + 2),
  };
  const std::vector<std::size_t> attrs = {1, 4, 2};
  std::set<std::pair<int, std::uint32_t>> chunks;
  for (const std::size_t a : attrs) {
    const pim::Field f = store.field(a);
    for (std::uint32_t c = f.offset / fx.cfg.read_bits;
         c <= (f.offset + f.width - 1) / fx.cfg.read_bits; ++c) {
      chunks.insert({store.part_of_attr(a), c});
    }
  }
  std::size_t empty_active_pages = 0;
  for (const std::string& text : texts) {
    SCOPED_TRACE(text);
    const sql::BoundQuery q = fx.bind_sql(text);
    const ScanOutput out =
        fx.arm(sim_threads, prune).execute_scan(q.filters, attrs, {});

    std::vector<std::uint64_t> ids;
    std::vector<std::vector<std::uint64_t>> cols(attrs.size());
    std::vector<std::size_t> page_survivors(store.pages_per_part(), 0);
    host::ReadSet lines(store.pages_per_part());
    for (std::size_t r = 0; r < store.record_count(); ++r) {
      bool pass = true;
      for (const sql::BoundPredicate& pred : q.filters) {
        pass = pass && pred.matches(fx.table->value(r, pred.attr));
      }
      if (!pass) continue;
      ids.push_back(r);
      ++page_survivors[r / store.records_per_page()];
      for (std::size_t k = 0; k < attrs.size(); ++k) {
        cols[k].push_back(store.read_attr(r, attrs[k]));
      }
      const auto row = static_cast<std::uint32_t>(r % fx.cfg.crossbar_rows);
      for (const auto& [part, chunk] : chunks) {
        lines.touch(
            static_cast<std::uint32_t>(r / store.records_per_page()), row,
            static_cast<std::uint32_t>(part) * fx.cfg.chunks_per_row() +
                chunk);
      }
    }
    ASSERT_FALSE(ids.empty());
    EXPECT_EQ(out.row_ids, ids);
    EXPECT_EQ(out.columns, cols);
    EXPECT_EQ(out.stats.host_lines, lines.unique_lines());
    const std::size_t empty_pages = static_cast<std::size_t>(std::count(
        page_survivors.begin(), page_survivors.end(), std::size_t{0}));
    empty_active_pages += empty_pages - out.stats.pages_skipped;
  }
  // Some page ran the filter yet kept no survivor.
  EXPECT_GT(empty_active_pages, 0u);
}

TEST(PimStoreBlock, ScanMatchesPerRecordWalk) {
  for (const EngineKind kind : {EngineKind::kOneXb, EngineKind::kTwoXb}) {
    for (const bool prune : {false, true}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(testing::Message()
                     << "two-xb " << (kind == EngineKind::kTwoXb) << " prune "
                     << prune << " sim_threads " << threads);
        expect_scan_matches_per_record_walk(kind, prune, threads);
      }
    }
  }
}

}  // namespace
}  // namespace bbpim::engine
