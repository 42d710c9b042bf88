// Zone-map sketches: per-crossbar small materialized aggregates for data
// skipping.
//
// A crossbar holds up to 1024 records; for every (attribute, crossbar) pair
// the store keeps the min/max attribute code over the crossbar's valid
// records, plus — for low-cardinality attributes whose codes fit a 64-bit
// bitmap — the exact set of distinct codes present. A compiled WHERE
// conjunction can then be classified statically per crossbar:
//
//   always-false  no code in the sketch can satisfy some predicate — the
//                 crossbar provably contributes zero selected rows;
//   always-true   every code in the sketch satisfies every predicate — the
//                 select column equals the validity column, no gate program
//                 needed;
//   residual      anything else: run the program as usual.
//
// Sketches are an over-approximation of the value set (a superset never
// under-reports), which makes BOTH classifications sound: an empty
// intersection with a superset implies no real value matches, and a superset
// fully inside the predicate implies every real value matches.
//
// The sketches also drive the selectivity estimates used to order residual
// predicates (most-selective-first) and the EXPLAIN rendering of both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sql/logical_plan.hpp"

namespace bbpim::engine {

/// Codes of an attribute fit the distinct-code bitmap when they are < 64.
/// Codes are < 2^bits by construction, so the packed width decides.
inline constexpr std::uint32_t kZoneBitmapMaxBits = 6;

/// Min/max (+ optional distinct-code bitmap) over one crossbar's valid
/// records of one attribute. Default state is empty (no valid records).
struct ZoneSketch {
  std::uint64_t min = ~0ULL;
  std::uint64_t max = 0;
  /// Bit i set <=> code i present; maintained only for bitmap attributes.
  std::uint64_t codes = 0;

  bool empty() const { return min > max; }

  void add(std::uint64_t v, bool bitmap) {
    if (v < min) min = v;
    if (v > max) max = v;
    if (bitmap) codes |= 1ULL << v;
  }
};

enum class ZoneClass : std::uint8_t { kAlwaysFalse, kAlwaysTrue, kResidual };

/// Classifies one predicate against one sketch. `bitmap` selects the exact
/// distinct-code test; otherwise only the min/max range is consulted.
/// An empty sketch (crossbar with no valid records) is always-false: the
/// validity bit already rejects every row there.
ZoneClass classify_predicate(const sql::BoundPredicate& p, const ZoneSketch& s,
                             bool bitmap);

/// Estimated fraction of the crossbar's records matching the predicate, in
/// [0, 1]. Exact for bitmap attributes under a uniform-within-code
/// assumption; a range-overlap ratio otherwise. Deterministic.
double sketch_selectivity(const sql::BoundPredicate& p, const ZoneSketch& s,
                          bool bitmap);

/// The sketch store: one ZoneSketch per (attribute, crossbar). Crossbar
/// indices are global within a part — record r lives in crossbar r /
/// crossbar_rows — and parts share coordinates (vertical partitioning keeps
/// record i at the same crossbar/row in every part), so one index space
/// covers all attributes.
class ZoneMaps {
 public:
  ZoneMaps() = default;
  /// `attr_bits[a]` is attribute a's packed width (decides bitmap mode).
  ZoneMaps(std::size_t crossbars, const std::vector<std::uint32_t>& attr_bits);

  bool enabled() const { return crossbars_ > 0; }
  std::size_t crossbar_count() const { return crossbars_; }
  bool bitmap_attr(std::size_t attr) const { return bitmap_.at(attr); }

  const ZoneSketch& sketch(std::size_t attr, std::size_t crossbar) const {
    return sketches_[attr * crossbars_ + crossbar];
  }

  /// Widens the sketch with one observed value (the load's block fold and
  /// note_mutation's rebuild).
  void add(std::size_t attr, std::size_t crossbar, std::uint64_t v) {
    sketches_[attr * crossbars_ + crossbar].add(v, bitmap_[attr]);
  }

  /// Resets one (attr, crossbar) sketch to empty before an exact rebuild.
  void clear(std::size_t attr, std::size_t crossbar) {
    sketches_[attr * crossbars_ + crossbar] = ZoneSketch{};
  }

 private:
  std::size_t crossbars_ = 0;
  std::vector<bool> bitmap_;           // per attr
  std::vector<ZoneSketch> sketches_;   // [attr * crossbars_ + crossbar]
};

}  // namespace bbpim::engine
