// Empirical latency models of Section IV (Equations 1-3).
//
// The hybrid GROUP-BY needs to predict, for a candidate split of subgroups,
// (a) T_host-gb(M, s, r): the host-side path — reading the filter result
//     bit-vector plus s 16-bit chunks of each selected record (ratio r of
//     the relation) — modeled as M * (a(s)*sqrt(r) + b(s));
// (b) T_pim-gb(M, n): the PIM-side cost of aggregating ONE subgroup whose
//     value field spans n 16-bit reads — modeled as slope(n)*M + const(n).
// a, b, slope, const are lookup tables over the (few, discrete) values of s
// and n, obtained by measuring the simulator on synthetic relations
// (model_fitter.hpp), exactly as the paper fits its Fig. 4.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>

#include "common/fit.hpp"
#include "common/units.hpp"

namespace bbpim::engine {

/// Which engine variant a model (or executor) describes.
enum class EngineKind : std::uint8_t {
  kOneXb,  ///< pre-joined record in a single crossbar row + agg circuit
  kTwoXb,  ///< vertical partitioning across two aligned pages + agg circuit
  kPimdb,  ///< single row, aggregation via pure bulk-bitwise logic [1]
};

/// Every engine variant, in paper order — the canonical iteration set for
/// benches and tests ("for each engine kind ...").
inline constexpr EngineKind kAllEngineKinds[] = {
    EngineKind::kOneXb, EngineKind::kTwoXb, EngineKind::kPimdb};

const char* engine_kind_name(EngineKind kind);

struct LatencyModels {
  /// Per s: slope of T_host-gb in M as a function of r (Equation 1).
  std::map<std::uint32_t, SqrtFit> host_slope;
  /// Per n: T_pim-gb as a function of M (Equation 2).
  std::map<std::uint32_t, LinearFit> pim_gb;

  bool fitted() const { return !host_slope.empty() && !pim_gb.empty(); }

  /// Equation 1: T_host-gb(M, s, r) in ns. `s` snaps to the nearest fitted
  /// lookup entry (s is discrete; queries may fall between grid points).
  TimeNs host_gb_ns(double pages, std::uint32_t s, double r) const;

  /// Equation 2: per-subgroup T_pim-gb(M, n) in ns.
  TimeNs pim_gb_ns(double pages, std::uint32_t n) const;

  /// Plain-text (de)serialization so benches can cache a fitting campaign.
  /// A non-zero `fingerprint` (config_fingerprint of the pim/host/fit
  /// configuration the models were fitted under) is written as a header
  /// record so readers can reject models fitted under other configurations.
  void save(std::ostream& os, std::uint64_t fingerprint = 0) const;
  /// Throws std::runtime_error on malformed input. When `fingerprint` is
  /// non-null it receives the file's fingerprint header (0 if absent — the
  /// pre-fingerprint format).
  static LatencyModels load(std::istream& is,
                            std::uint64_t* fingerprint = nullptr);
};

}  // namespace bbpim::engine
