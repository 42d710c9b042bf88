// The 13 Star Schema Benchmark queries (O'Neil et al. [12]).
//
// SQL text follows the SSB specification with two mechanical rewrites:
// OR-pairs become IN lists (q4.1/q4.2: "x = a OR x = b" -> "x IN (a, b)"),
// matching the subset our front-end accepts while selecting identical rows.
// Query constants are unchanged — the skewed generator was designed so the
// paper's selectivities hold without retuning (README, "Deviations from
// the paper").
#pragma once

#include <span>
#include <string_view>

namespace bbpim::ssb {

struct SsbQuery {
  std::string_view id;   ///< "1.1" .. "4.3"
  std::string_view sql;
  /// Selectivity the paper reports for this query (Table II), for the
  /// comparison column of the query-summary bench.
  double paper_selectivity;
  /// "Total subgroups" from Table II (0 = no GROUP BY).
  std::size_t paper_total_subgroups;
};

/// All 13 queries in paper order.
std::span<const SsbQuery> queries();

/// Lookup by id; throws std::out_of_range for unknown ids.
const SsbQuery& query(std::string_view id);

}  // namespace bbpim::ssb
