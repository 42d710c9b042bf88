#include "engine/filter_compiler.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "engine/pim_store.hpp"

namespace bbpim::engine {
namespace {

/// Field of a predicate's attribute, or a dummy for the constant kinds —
/// a kNever can name an attribute of *another* part (it is compiled on
/// every part so each result column is statically false), whose field this
/// layout cannot resolve.
pim::Field predicate_field(const RecordLayout& layout,
                           const sql::BoundPredicate& p) {
  using Kind = sql::BoundPredicate::Kind;
  if (p.kind == Kind::kNever || p.kind == Kind::kAlways) return pim::Field{};
  return layout.field(p.attr);
}

/// Emits one predicate; returns the owned result column.
std::uint16_t emit_predicate(pim::ProgramBuilder& pb, const RecordLayout& layout,
                             const sql::BoundPredicate& p) {
  using Kind = sql::BoundPredicate::Kind;
  const pim::Field f = predicate_field(layout, p);
  switch (p.kind) {
    case Kind::kEq: return pb.emit_eq_const(f, p.v1);
    case Kind::kLt: return pb.emit_lt_const(f, p.v1);
    case Kind::kLe: return pb.emit_le_const(f, p.v1);
    case Kind::kGt: return pb.emit_gt_const(f, p.v1);
    case Kind::kGe: return pb.emit_ge_const(f, p.v1);
    case Kind::kBetween: return pb.emit_between_const(f, p.v1, p.v2);
    case Kind::kIn: return pb.emit_in_set(f, p.in_values);
    case Kind::kNever: return pb.emit_const(false);
    case Kind::kAlways: return pb.emit_const(true);
  }
  throw std::logic_error("emit_predicate: unhandled kind");
}

/// Does the predicate compile into `layout`'s part? kAlways never compiles,
/// kNever compiles on every part (a statically-false column), everything
/// else follows its attribute.
bool in_part(const sql::BoundPredicate& p, const RecordLayout& layout) {
  using Kind = sql::BoundPredicate::Kind;
  if (p.kind == Kind::kAlways) return false;
  return p.kind == Kind::kNever || layout.has(p.attr);
}

}  // namespace

std::optional<std::uint16_t> emit_conjunction(
    pim::ProgramBuilder& pb, const std::vector<sql::BoundPredicate>& preds,
    const RecordLayout& layout) {
  std::optional<std::uint16_t> acc;
  for (const sql::BoundPredicate& p : preds) {
    if (!in_part(p, layout)) continue;
    const std::uint16_t term = emit_predicate(pb, layout, p);
    if (!acc) {
      acc = term;
    } else {
      const std::uint16_t next = pb.emit_and(*acc, term);
      pb.release(*acc);
      pb.release(term);
      acc = next;
    }
  }
  return acc;
}

CompiledFilter compile_filter(const std::vector<sql::BoundPredicate>& filters,
                              const RecordLayout& layout,
                              pim::ColumnAlloc& alloc) {
  pim::ProgramBuilder pb(alloc);
  const std::optional<std::uint16_t> acc = emit_conjunction(pb, filters, layout);

  // Fold in validity: padding rows must never pass.
  std::uint16_t result;
  if (acc) {
    result = pb.emit_and(*acc, layout.valid_col());
    pb.release(*acc);
  } else {
    result = pb.emit_copy(layout.valid_col());
  }

  CompiledFilter out;
  out.program = pb.take();
  out.result_col = result;
  out.predicate_count = static_cast<std::size_t>(std::count_if(
      filters.begin(), filters.end(),
      [&](const sql::BoundPredicate& p) { return in_part(p, layout); }));
  return out;
}

namespace {

/// Exact (collision-free) serialization of every predicate field, in order.
void append_predicates(std::ostringstream& key,
                       const std::vector<sql::BoundPredicate>& filters) {
  for (const sql::BoundPredicate& p : filters) {
    key << '|' << static_cast<int>(p.kind) << ',' << p.attr << ',' << p.v1
        << ',' << p.v2;
    for (const std::uint64_t v : p.in_values) key << ';' << v;
  }
}

/// Key over everything compilation reads: the part, the verbatim allocator
/// state, and every predicate field.
std::string filter_cache_key(const std::vector<sql::BoundPredicate>& filters,
                             int part, const std::string& alloc_state) {
  std::ostringstream key;
  key << part << '#' << alloc_state;
  append_predicates(key, filters);
  return key.str();
}

/// Key over everything classification reads beyond the store itself (the
/// memo is scoped to one store version, so data and layout are implicit).
std::string classification_memo_key(
    const std::vector<sql::BoundPredicate>& filters) {
  std::ostringstream key;
  append_predicates(key, filters);
  return key.str();
}

}  // namespace

std::shared_ptr<const CompiledFilter> FilterCache::get_or_compile(
    const std::vector<sql::BoundPredicate>& filters, int part,
    const RecordLayout& layout, pim::ColumnAlloc& alloc, bool* hit) {
  // The key pins the allocator state, so a caller that waited on another's
  // compile holds the same state and replays the same effect.
  auto [compiled, found] =
      get_or_compute(filter_cache_key(filters, part, alloc.state_key()),
                     [&] { return compile_filter(filters, layout, alloc); });
  if (found) alloc.acquire(compiled->result_col);
  if (hit != nullptr) *hit = found;
  return compiled;
}

// --- zone-map static analysis ----------------------------------------------

namespace {

/// Sketch classification of one compiled predicate on crossbar `xb`.
ZoneClass classify_on(const sql::BoundPredicate& p, const ZoneMaps& zones,
                      std::size_t xb) {
  if (p.kind == sql::BoundPredicate::Kind::kNever) {
    return ZoneClass::kAlwaysFalse;
  }
  return classify_predicate(p, zones.sketch(p.attr, xb),
                            zones.bitmap_attr(p.attr));
}

/// Can no record of crossbar `xb` satisfy the conjunction `preds`? True as
/// soon as the sketches refute one predicate (kAlways refutes nothing).
bool crossbar_refuted(const std::vector<sql::BoundPredicate>& preds,
                      const ZoneMaps& zones, std::size_t xb) {
  for (const sql::BoundPredicate& p : preds) {
    if (p.kind == sql::BoundPredicate::Kind::kAlways) continue;
    if (classify_on(p, zones, xb) == ZoneClass::kAlwaysFalse) return true;
  }
  return false;
}

/// Crossbars per page of the store's zone maps.
std::uint32_t crossbars_per_page(const PimStore& store) {
  return static_cast<std::uint32_t>(store.zone_maps().crossbar_count() /
                                    store.pages_per_part());
}

/// Runs the analyzer over every page of the store. Sound under the sketch
/// over-approximation: a skipped page provably selects zero records, a
/// synthesized (part, page) provably selects exactly its valid records.
FilterPruneAnalysis analyze_filters(
    const std::vector<sql::BoundPredicate>& filters, const PimStore& store) {
  const ZoneMaps& zones = store.zone_maps();
  const std::size_t pages = store.pages_per_part();
  const std::uint32_t xpp = crossbars_per_page(store);
  const int parts = store.parts();

  FilterPruneAnalysis out;
  out.page_skip.assign(pages, 0);
  out.page_synth.assign(pages, {0, 0});

  // Compiled predicate counts per part (for the short-circuit counter).
  std::array<std::size_t, 2> part_preds{0, 0};
  std::size_t compiled_preds = 0;
  for (const sql::BoundPredicate& p : filters) {
    for (int part = 0; part < parts; ++part) {
      if (in_part(p, store.layout(part))) ++part_preds[part];
    }
    if (p.kind != sql::BoundPredicate::Kind::kAlways) ++compiled_preds;
  }

  for (std::size_t pg = 0; pg < pages; ++pg) {
    bool all_false = true;
    std::size_t valid_crossbars = 0;
    for (std::uint32_t x = 0; x < xpp; ++x) {
      const std::size_t xb = pg * xpp + x;
      // A crossbar with no valid records (tail of the last page) has empty
      // sketches; it contributes nothing and constrains nothing — the
      // validity column already rejects its rows.
      if (zones.sketch(0, xb).empty()) continue;
      ++valid_crossbars;
      if (!crossbar_refuted(filters, zones, xb)) all_false = false;
    }
    if (all_false) {
      out.page_skip[pg] = 1;
      ++out.pages_skipped;
      out.crossbars_skipped += valid_crossbars;
      out.predicates_short_circuited += compiled_preds;
      continue;
    }
    // Synthesis needs EVERY valid crossbar of the page all-true for the
    // part (a single residual or refuted crossbar forces the real program —
    // its true select differs from the validity column). Crossbars with no
    // valid records are fine: their validity column zeroes the synthesized
    // copy.
    for (int part = 0; part < parts; ++part) {
      if (part_preds[part] == 0) {
        // Vacuously true: the part's program would be a bare validity copy.
        out.page_synth[pg][part] = 1;
        ++out.pages_synthesized;
        continue;
      }
      const RecordLayout& layout = store.layout(part);
      bool synth = true;
      for (std::uint32_t x = 0; x < xpp && synth; ++x) {
        const std::size_t xb = pg * xpp + x;
        if (zones.sketch(0, xb).empty()) continue;
        for (const sql::BoundPredicate& p : filters) {
          if (in_part(p, layout) &&
              classify_on(p, zones, xb) != ZoneClass::kAlwaysTrue) {
            synth = false;
            break;
          }
        }
      }
      if (synth) {
        out.page_synth[pg][part] = 1;
        ++out.pages_synthesized;
        out.predicates_short_circuited += part_preds[part];
      }
    }
  }
  return out;
}

}  // namespace

std::shared_ptr<const FilterPruneAnalysis> analyze_filters_cached(
    const std::vector<sql::BoundPredicate>& filters, const PimStore& store,
    std::size_t* memo_pages_reused) {
  auto [analysis, hit] = store.classification_memo().get_or_compute(
      classification_memo_key(filters),
      [&] { return analyze_filters(filters, store); });
  if (hit && memo_pages_reused != nullptr) {
    *memo_pages_reused += analysis->page_skip.size();
  }
  return analysis;
}

std::vector<std::size_t> pages_may_match(
    const std::vector<sql::BoundPredicate>& preds, const PimStore& store,
    const std::vector<std::size_t>& candidate_pages) {
  const ZoneMaps& zones = store.zone_maps();
  const std::uint32_t xpp = crossbars_per_page(store);
  std::vector<std::size_t> out;
  for (const std::size_t pg : candidate_pages) {
    for (std::uint32_t x = 0; x < xpp; ++x) {
      const std::size_t xb = pg * xpp + x;
      if (zones.sketch(0, xb).empty()) continue;
      if (!crossbar_refuted(preds, zones, xb)) {
        out.push_back(pg);
        break;
      }
    }
  }
  return out;
}

std::vector<sql::BoundPredicate> order_by_selectivity(
    std::vector<sql::BoundPredicate> filters, const PimStore& store,
    std::vector<double>* estimates) {
  const ZoneMaps& zones = store.zone_maps();
  const std::size_t n = filters.size();

  // Mean of the per-crossbar sketch estimates over valid (non-empty)
  // crossbars; each crossbar counts once regardless of how many records it
  // holds (only the partial tail crossbar could differ anyway).
  std::vector<double> est(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const sql::BoundPredicate& p = filters[i];
    if (p.kind == sql::BoundPredicate::Kind::kAlways) {
      est[i] = 1.0;
      continue;
    }
    if (p.kind == sql::BoundPredicate::Kind::kNever) {
      est[i] = 0.0;
      continue;
    }
    double sum = 0;
    std::size_t counted = 0;
    for (std::size_t xb = 0; xb < zones.crossbar_count(); ++xb) {
      const ZoneSketch& s = zones.sketch(p.attr, xb);
      if (s.empty()) continue;
      sum += sketch_selectivity(p, s, zones.bitmap_attr(p.attr));
      ++counted;
    }
    est[i] = counted > 0 ? sum / static_cast<double>(counted) : 0.0;
  }

  // Rough per-predicate gate cost, for the "cheapest first" tiebreak.
  auto cost_of = [](const sql::BoundPredicate& p) -> std::size_t {
    switch (p.kind) {
      case sql::BoundPredicate::Kind::kIn:
        return 2 + p.in_values.size();
      case sql::BoundPredicate::Kind::kBetween:
        return 3;
      case sql::BoundPredicate::Kind::kNever:
      case sql::BoundPredicate::Kind::kAlways:
        return 0;
      default:
        return 2;
    }
  };

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (est[a] != est[b]) return est[a] < est[b];
                     const std::size_t ca = cost_of(filters[a]);
                     const std::size_t cb = cost_of(filters[b]);
                     if (ca != cb) return ca < cb;
                     return a < b;
                   });

  std::vector<sql::BoundPredicate> out;
  out.reserve(n);
  if (estimates != nullptr) {
    estimates->clear();
    estimates->reserve(n);
  }
  for (const std::size_t i : order) {
    out.push_back(std::move(filters[i]));
    if (estimates != nullptr) estimates->push_back(est[i]);
  }
  return out;
}

}  // namespace bbpim::engine
