#include "engine/zone_map.hpp"

#include <algorithm>
#include <bit>

namespace bbpim::engine {
namespace {

/// Bitmap of the sketch's codes that satisfy the predicate. Only meaningful
/// for bitmap attributes (codes < 64).
std::uint64_t matching_codes(const sql::BoundPredicate& p, std::uint64_t codes) {
  std::uint64_t match = 0;
  for (std::uint64_t rest = codes; rest != 0; rest &= rest - 1) {
    const std::uint64_t v =
        static_cast<std::uint64_t>(std::countr_zero(rest));
    if (p.matches(v)) match |= 1ULL << v;
  }
  return match;
}

}  // namespace

ZoneClass classify_predicate(const sql::BoundPredicate& p, const ZoneSketch& s,
                             bool bitmap) {
  using Kind = sql::BoundPredicate::Kind;
  if (p.kind == Kind::kAlways) return ZoneClass::kAlwaysTrue;
  // No valid record in the crossbar: nothing can match (the validity column
  // rejects padding rows anyway, so skipping is exact).
  if (s.empty() || p.kind == Kind::kNever) return ZoneClass::kAlwaysFalse;

  if (bitmap) {
    const std::uint64_t match = matching_codes(p, s.codes);
    if (match == 0) return ZoneClass::kAlwaysFalse;
    if (match == s.codes) return ZoneClass::kAlwaysTrue;
    return ZoneClass::kResidual;
  }

  switch (p.kind) {
    case Kind::kEq:
      if (p.v1 < s.min || p.v1 > s.max) return ZoneClass::kAlwaysFalse;
      if (s.min == s.max) return ZoneClass::kAlwaysTrue;  // == p.v1 here
      return ZoneClass::kResidual;
    case Kind::kLt:
      if (s.min >= p.v1) return ZoneClass::kAlwaysFalse;
      if (s.max < p.v1) return ZoneClass::kAlwaysTrue;
      return ZoneClass::kResidual;
    case Kind::kLe:
      if (s.min > p.v1) return ZoneClass::kAlwaysFalse;
      if (s.max <= p.v1) return ZoneClass::kAlwaysTrue;
      return ZoneClass::kResidual;
    case Kind::kGt:
      if (s.max <= p.v1) return ZoneClass::kAlwaysFalse;
      if (s.min > p.v1) return ZoneClass::kAlwaysTrue;
      return ZoneClass::kResidual;
    case Kind::kGe:
      if (s.max < p.v1) return ZoneClass::kAlwaysFalse;
      if (s.min >= p.v1) return ZoneClass::kAlwaysTrue;
      return ZoneClass::kResidual;
    case Kind::kBetween:
      if (p.v2 < p.v1 || s.max < p.v1 || s.min > p.v2) {
        return ZoneClass::kAlwaysFalse;
      }
      if (p.v1 <= s.min && s.max <= p.v2) return ZoneClass::kAlwaysTrue;
      return ZoneClass::kResidual;
    case Kind::kIn: {
      bool any_inside = false;
      for (const std::uint64_t v : p.in_values) {
        if (v >= s.min && v <= s.max) {
          any_inside = true;
          break;
        }
      }
      if (!any_inside) return ZoneClass::kAlwaysFalse;
      // Exact only when the range is a single code (min == max).
      if (s.min == s.max) return ZoneClass::kAlwaysTrue;
      return ZoneClass::kResidual;
    }
    case Kind::kNever:
    case Kind::kAlways:
      break;  // handled above
  }
  return ZoneClass::kResidual;
}

double sketch_selectivity(const sql::BoundPredicate& p, const ZoneSketch& s,
                          bool bitmap) {
  using Kind = sql::BoundPredicate::Kind;
  if (p.kind == Kind::kAlways) return 1.0;
  if (s.empty() || p.kind == Kind::kNever) return 0.0;

  if (bitmap) {
    const int present = std::popcount(s.codes);
    if (present == 0) return 0.0;
    const int match = std::popcount(matching_codes(p, s.codes));
    return static_cast<double>(match) / static_cast<double>(present);
  }

  // Codes matching the predicate within [s.min, s.max], as a fraction of
  // the sketch span. All interval arithmetic is on clamped closed ranges
  // (b >= a before the +1), so nothing wraps even at the u64 extremes.
  const double span = static_cast<double>(s.max - s.min) + 1.0;
  auto clamp01 = [](double x) { return std::min(1.0, std::max(0.0, x)); };
  auto overlap = [&](std::uint64_t lo, std::uint64_t hi) -> double {
    const std::uint64_t a = std::max(lo, s.min);
    const std::uint64_t b = std::min(hi, s.max);
    if (b < a) return 0.0;
    return static_cast<double>(b - a) + 1.0;
  };
  constexpr std::uint64_t kMax = ~0ULL;
  switch (p.kind) {
    case Kind::kEq:
      return clamp01(overlap(p.v1, p.v1) / span);
    case Kind::kLt:
      return p.v1 == 0 ? 0.0 : clamp01(overlap(0, p.v1 - 1) / span);
    case Kind::kLe:
      return clamp01(overlap(0, p.v1) / span);
    case Kind::kGt:
      return p.v1 == kMax ? 0.0 : clamp01(overlap(p.v1 + 1, kMax) / span);
    case Kind::kGe:
      return clamp01(overlap(p.v1, kMax) / span);
    case Kind::kBetween:
      return p.v2 < p.v1 ? 0.0 : clamp01(overlap(p.v1, p.v2) / span);
    case Kind::kIn: {
      double inside = 0;
      for (const std::uint64_t v : p.in_values) {
        if (v >= s.min && v <= s.max) inside += 1.0;
      }
      return clamp01(inside / span);
    }
    case Kind::kNever:
    case Kind::kAlways:
      break;  // handled above
  }
  return 1.0;
}

ZoneMaps::ZoneMaps(std::size_t crossbars,
                   const std::vector<std::uint32_t>& attr_bits)
    : crossbars_(crossbars),
      sketches_(attr_bits.size() * crossbars) {
  bitmap_.reserve(attr_bits.size());
  for (const std::uint32_t bits : attr_bits) {
    bitmap_.push_back(bits <= kZoneBitmapMaxBits);
  }
}

}  // namespace bbpim::engine
