// Star Schema Benchmark data generation (Section V-A).
//
// Generates the SSB star schema at a configurable scale factor with the
// skewed population of Rabl et al. [15]: GROUP-BY identifier hierarchies
// (customer/supplier city -> nation -> region; part brand -> category ->
// mfgr) are drawn from a Zipf distribution whose ranks interleave the
// hierarchy, so leaf subgroup sizes are heavily skewed — what the hybrid
// GROUP-BY technique exploits — while the coarse attributes the queries
// filter on keep their uniform selectivities (region 1/5, nation 1/25),
// matching the paper's "similar query selectivity" requirement without
// changing the query constants. Filter attributes (dates, quantity,
// discount) are uniform.
#pragma once

#include <cstdint>

#include "relational/table.hpp"

namespace bbpim::ssb {

struct SsbConfig {
  /// Scale factor: lineorder has 6,000,000 * sf rows (as 1,500,000 * sf
  /// orders of 4 lines), customer 30,000 * sf, supplier 2,000 * sf,
  /// part 200,000 * min(sf, 1) * (1 + log2(max(sf, 1))), date 2555 days.
  double scale_factor = 0.2;
  /// Zipf exponent for the skewed hierarchies (0 = uniform).
  double zipf_theta = 0.75;
  std::uint64_t seed = 42;
};

struct SsbData {
  rel::Table date;
  rel::Table customer;
  rel::Table supplier;
  rel::Table part;
  rel::Table lineorder;
};

/// Generates the five relations. Deterministic for a given config.
/// Surrogate keys run 1..n in row order and follow the hierarchies, as a
/// warehouse loader assigns them: customer and supplier by (region, nation,
/// city), part by (mfgr, category, brand), ties in draw order; lineorder's
/// foreign keys name the same entities. So every value of a hierarchy level
/// covers one run of consecutive keys.
SsbData generate(const SsbConfig& cfg);

/// The paper's pre-joined relation: lineorder equi-joined with all four
/// dimensions on their keys, dropping the NAME and ADDRESS attributes of
/// CUSTOMER and SUPPLIER so a record fits one crossbar row (Section V-A).
rel::Table prejoin_ssb(const SsbData& data);

}  // namespace bbpim::ssb
