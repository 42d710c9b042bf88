// Scalar reference executor: the semantics oracle.
//
// Executes a bound query by scanning a host-resident table row by row.
// Every PIM engine variant must produce byte-identical result rows — the
// property tests enforce it. Also the functional core of the MonetDB-like
// baseline.
#pragma once

#include <vector>

#include "engine/query_exec.hpp"
#include "relational/table.hpp"
#include "sql/logical_plan.hpp"

namespace bbpim::baseline {

struct ReferenceRun {
  std::vector<engine::ResultRow> rows;
  std::size_t selected_records = 0;
};

/// True when row `r` of `table` satisfies every predicate in `filters`.
bool row_matches(const rel::Table& table, std::size_t r,
                 const std::vector<sql::BoundPredicate>& filters);

/// Exact scan-based execution over the (pre-joined) relation.
ReferenceRun scan_execute(const rel::Table& table, const sql::BoundQuery& q);

}  // namespace bbpim::baseline
