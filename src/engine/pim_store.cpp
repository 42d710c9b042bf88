#include "engine/pim_store.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/group_index.hpp"

namespace bbpim::engine {

std::optional<std::vector<std::uint64_t>> scan_distinct(const PimStore& store,
                                                        std::size_t attr) {
  CodeIndex seen(kMaxDistinct + 1);
  bool capped = false;
  store.scan_blocks(
      {&attr, 1}, 0, store.record_count(),
      [&](std::size_t, std::uint32_t count,
          std::span<const pim::RowBlock> blocks) {
        const pim::RowBlock& codes = blocks[0];
        for (std::uint32_t i = 0; i < count && !capped; ++i) {
          if (i > 0 && codes[i] == codes[i - 1]) continue;  // a run probes once
          seen.insert(codes[i]);
          capped = seen.codes().size() > kMaxDistinct;
        }
        return !capped;
      });
  if (capped) return std::nullopt;
  std::vector<std::uint64_t> vals = seen.codes();
  std::sort(vals.begin(), vals.end());
  return vals;
}

SnapshotStats::CoOccurrence build_co_occurrence(
    const PimStore& store, std::size_t attr_a,
    std::span<const std::uint64_t> distinct_a, std::size_t attr_b,
    std::span<const std::uint64_t> distinct_b) {
  CodeIndex index_a(distinct_a.size());
  CodeIndex index_b(distinct_b.size());
  for (const std::uint64_t v : distinct_a) index_a.insert(v);
  for (const std::uint64_t v : distinct_b) index_b.insert(v);
  // Bit (ia, ib) of a row-padded na x nb bitmap: value ia of attr_a shares
  // a record with value ib of attr_b.
  const std::size_t words_per_a = (distinct_b.size() + 63) / 64;
  std::vector<std::uint64_t> seen(distinct_a.size() * words_per_a, 0);
  const std::size_t attrs[2] = {attr_a, attr_b};
  store.scan_blocks(
      attrs, 0, store.record_count(),
      [&](std::size_t first, std::uint32_t count,
          std::span<const pim::RowBlock> blocks) {
        for (std::uint32_t j = 0; j < count; ++j) {
          const std::uint32_t ia = index_a.find(blocks[0][j]);
          const std::uint32_t ib = index_b.find(blocks[1][j]);
          if (ia == CodeIndex::kAbsent || ib == CodeIndex::kAbsent) {
            throw std::logic_error(
                "build_co_occurrence: record " + std::to_string(first + j) +
                " holds a value missing from the distinct list (stale stats)");
          }
          seen[ia * words_per_a + ib / 64] |= 1ULL << (ib % 64);
        }
        return true;
      });
  // Rows of the bitmap in order, set bits in order: each key's values come
  // out sorted because distinct_b is.
  SnapshotStats::CoOccurrence map;
  map.reserve(distinct_a.size());
  for (std::size_t ia = 0; ia < distinct_a.size(); ++ia) {
    std::vector<std::uint64_t> vals;
    for (std::size_t w = 0; w < words_per_a; ++w) {
      for (std::uint64_t bits = seen[ia * words_per_a + w]; bits != 0;
           bits &= bits - 1) {
        vals.push_back(distinct_b[w * 64 + std::countr_zero(bits)]);
      }
    }
    if (!vals.empty()) map.emplace(distinct_a[ia], std::move(vals));
  }
  return map;
}

PimStore::PimStore(pim::PimModule& module, const rel::Table& table, Options opt)
    : PimStore(module, table, std::move(opt), nullptr) {}

PimStore::PimStore(pim::PimModule& module, const rel::Table& table, Options opt,
                   std::shared_ptr<const StoreSnapshot> snap)
    : module_(&module),
      table_(&table),
      two_crossbar_(opt.two_crossbar && table.schema().has_dimension_attrs()) {
  const rel::Schema& schema = table.schema();
  const std::size_t nattrs = schema.attribute_count();
  if (nattrs == 0) throw std::invalid_argument("PimStore: empty schema");

  // Part assignment by provenance.
  attr_part_.resize(nattrs, 0);
  if (two_crossbar_) {
    for (std::size_t a = 0; a < nattrs; ++a) {
      attr_part_[a] = schema.attribute(a).dimension ? 1 : 0;
    }
  }

  // Layouts per part.
  const pim::PimConfig& cfg = module.config();
  for (int part = 0; part < parts(); ++part) {
    std::vector<std::size_t> attrs;
    for (std::size_t a = 0; a < nattrs; ++a) {
      if (attr_part_[a] == part) attrs.push_back(a);
    }
    if (attrs.empty()) {
      throw std::invalid_argument("PimStore: a part has no attributes");
    }
    layouts_.push_back(RecordLayout::build(schema, attrs, cfg));
  }

  // Page allocation: all parts span the same number of pages so that record
  // coordinates align across parts.
  records_ = table.row_count();
  if (records_ == 0) throw std::invalid_argument("PimStore: empty relation");
  records_per_page_ = cfg.records_per_page();
  pages_per_part_ = (records_ + records_per_page_ - 1) / records_per_page_;
  for (int part = 0; part < parts(); ++part) {
    // Data columns (attributes + validity, [0, scratch_begin)) form the
    // shareable CoW groups of every crossbar; scratch groups stay private.
    base_page_.push_back(
        module.allocate_pages(pages_per_part_, layouts_[part].scratch_begin()));
  }
  rows_per_crossbar_ = cfg.crossbar_rows;

  if (snap != nullptr) {
    // View mode: data and derived state come from the snapshot — nothing
    // to load.
    adopt(std::move(snap));
    return;
  }

  // Version 0's derived state: the zone sketches fold from the blocks the
  // load writes; the stats fill on demand from the crossbars, as every
  // later version's do.
  std::vector<std::uint32_t> attr_bits;
  attr_bits.reserve(nattrs);
  for (std::size_t a = 0; a < nattrs; ++a) {
    attr_bits.push_back(schema.attribute(a).bits);
  }
  ZoneMaps zones(pages_per_part_ * cfg.crossbars_per_page, attr_bits);
  for (int part = 0; part < parts(); ++part) load_part(part, zones);
  derived_ = std::make_shared<const StoreDerived>(std::move(zones), nattrs);
}

void PimStore::adopt(std::shared_ptr<const StoreSnapshot> snap) {
  if (snap == nullptr) {
    throw std::invalid_argument("PimStore::adopt: null snapshot");
  }
  if (snap->pages_per_part() != pages_per_part_) {
    throw std::invalid_argument("PimStore::adopt: geometry mismatch");
  }
  for (int part = 0; part < parts(); ++part) {
    for (std::size_t p = 0; p < pages_per_part_; ++p) {
      // A page table shared with the version held already holds its groups.
      if (snap_ != nullptr &&
          snap_->page_groups(part, p) == snap->page_groups(part, p)) {
        continue;
      }
      pim::Page& pg = page(part, p);
      for (std::uint32_t x = 0; x < pg.crossbar_count(); ++x) {
        pg.crossbar(x).adopt_data_groups(snap->data_groups(part, p, x));
      }
    }
  }
  derived_ = snap->derived();
  snap_ = std::move(snap);
}

void PimStore::load_part(int part, ZoneMaps& zones) {
  // One block write per (64-record word, attribute), straight from the
  // table's columns at their native widths; a partial last word writes only
  // its valid rows, and only they widen the sketch of their crossbar
  // (record r lives in crossbar r / rows).
  const RecordLayout& layout = layouts_[part];
  pim::RowBlock values{};
  pim::RowBlock ones{};
  ones.fill(1);
  for (std::size_t first = 0; first < records_; first += 64) {
    const std::size_t p = first / records_per_page_;
    const auto x = static_cast<std::uint32_t>((first % records_per_page_) /
                                              rows_per_crossbar_);
    const auto word =
        static_cast<std::uint32_t>((first % rows_per_crossbar_) / 64);
    pim::Crossbar& xb = page(part, p).crossbar(x);
    const std::size_t zone = first / rows_per_crossbar_;
    const std::size_t count = std::min<std::size_t>(64, records_ - first);
    const std::uint64_t rows = count == 64 ? ~0ULL : (1ULL << count) - 1;
    for (const std::size_t a : layout.attrs()) {
      table_->visit_column(a, [&](auto col) {
        std::copy_n(col.begin() + static_cast<std::ptrdiff_t>(first), count,
                    values.begin());
      });
      const pim::Field f = layout.field(a);
      xb.write_field_block(word, f.offset, f.width, values, rows);
      for (std::size_t j = 0; j < count; ++j) {
        zones.add(a, zone, values[j]);
      }
    }
    xb.write_field_block(word, layout.valid_col(), 1, ones, rows);
  }
}

pim::Page& PimStore::page(int part, std::size_t i) {
  return module_->page(module_page_index(part, i));
}

const pim::Page& PimStore::page(int part, std::size_t i) const {
  return std::as_const(*module_).page(module_page_index(part, i));
}

std::size_t PimStore::module_page_index(int part, std::size_t i) const {
  if (i >= pages_per_part_) throw std::out_of_range("PimStore: page index");
  return base_page_.at(part) + i;
}

std::uint32_t PimStore::page_records(std::size_t i) const {
  const std::size_t first = i * records_per_page_;
  if (first >= records_) return 0;
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(records_per_page_, records_ - first));
}

std::uint64_t PimStore::read_attr(std::size_t record, std::size_t attr) const {
  const int part = attr_part_.at(attr);
  const std::size_t p = record / records_per_page_;
  const std::uint32_t in_page = static_cast<std::uint32_t>(record % records_per_page_);
  return module_->read_record_field(module_page_index(part, p), in_page,
                                    layouts_[part].field(attr));
}

void PimStore::read_block(std::size_t block, std::span<const std::size_t> attrs,
                          std::span<pim::RowBlock> out) const {
  const std::size_t first = block * 64;
  if (first >= pages_per_part_ * records_per_page_ ||
      out.size() < attrs.size()) {
    throw std::out_of_range("PimStore::read_block");
  }
  const std::size_t p = first / records_per_page_;
  const std::uint32_t in_page =
      static_cast<std::uint32_t>(first % records_per_page_);
  const std::uint32_t x = in_page / rows_per_crossbar_;
  const std::uint32_t word = (in_page % rows_per_crossbar_) / 64;
  for (std::size_t k = 0; k < attrs.size(); ++k) {
    const int part = attr_part_.at(attrs[k]);
    const pim::Field f = layouts_[part].field(attrs[k]);
    module_->page(module_page_index(part, p))
        .crossbar(x)
        .read_field_block(word, f.offset, f.width, out[k]);
  }
}

void PimStore::scan_blocks(
    std::span<const std::size_t> attrs, std::size_t begin, std::size_t end,
    const std::function<bool(std::size_t, std::uint32_t,
                             std::span<const pim::RowBlock>)>& visit) const {
  if (begin % 64 != 0) throw std::invalid_argument("PimStore::scan_blocks");
  std::vector<pim::RowBlock> blocks(attrs.size());
  end = std::min(end, records_);
  for (std::size_t first = begin; first < end; first += 64) {
    read_block(first / 64, attrs, blocks);
    const auto count =
        static_cast<std::uint32_t>(std::min<std::size_t>(64, end - first));
    if (!visit(first, count, blocks)) return;
  }
}

pim::ResidentBytes PimStore::resident_bytes() const {
  pim::ResidentBytes bytes;
  for (int part = 0; part < parts(); ++part) {
    for (std::size_t p = 0; p < pages_per_part_; ++p) {
      const pim::Page& pg = module_->page(module_page_index(part, p));
      for (std::uint32_t x = 0; x < pg.crossbar_count(); ++x) {
        bytes += pg.crossbar(x).resident_bytes();
      }
    }
  }
  return bytes;
}

std::uint64_t PimStore::contents_checksum() const {
  std::uint64_t h = 1469598103934665603ULL;
  std::vector<std::size_t> attrs(table_->schema().attribute_count());
  std::iota(attrs.begin(), attrs.end(), std::size_t{0});
  scan_blocks(attrs, 0, records_,
              [&](std::size_t, std::uint32_t count,
                  std::span<const pim::RowBlock> blocks) {
                for (std::uint32_t j = 0; j < count; ++j) {
                  for (const pim::RowBlock& b : blocks) {
                    h = (h ^ b[j]) * 1099511628211ULL;
                  }
                }
                return true;
              });
  return h;
}

void PimStore::note_mutation(
    std::size_t attr, const std::vector<std::uint32_t>& touched_crossbars) {
  if (snap_ != nullptr) {
    throw std::logic_error(
        "PimStore: view stores are immutable; apply updates through the "
        "builder (db::SnapshotManager) and adopt the published snapshot");
  }
  assert(mutation_locked_by_caller() &&
         "PimStore::note_mutation requires the mutation lock");
  data_version_.fetch_add(1, std::memory_order_acq_rel);

  // The successor version's derived state; published snapshots keep the
  // current one. Zone sketches: rebuild exactly the crossbars the mutation
  // touched (pim_update popcounts the select column per crossbar anyway).
  auto next = std::make_shared<StoreDerived>(*derived_, attr);
  for (const std::uint32_t x : touched_crossbars) {
    next->zones.clear(attr, x);
    const std::size_t first = std::size_t{x} * rows_per_crossbar_;
    scan_blocks({&attr, 1}, first, first + rows_per_crossbar_,
                [&](std::size_t, std::uint32_t count,
                    std::span<const pim::RowBlock> blocks) {
                  for (std::uint32_t j = 0; j < count; ++j) {
                    next->zones.add(attr, x, blocks[0][j]);
                  }
                  return true;
                });
  }
  derived_ = std::move(next);
}

}  // namespace bbpim::engine
