// EXPLAIN: human-readable physical plans.
//
// `explain_query` renders what the executor will do for a bound query on a
// given store — which predicates compile to which part, the micro-program
// cycle budget per phase, the aggregation passes (the engine's own
// plan_agg_passes, so EXPLAIN throws what execution throws), and the model
// parameters (n, s) fed to the GROUP-BY planner.
#pragma once

#include <iosfwd>
#include <string>

#include "engine/hash_join.hpp"
#include "engine/pim_store.hpp"
#include "sql/logical_plan.hpp"

namespace bbpim::engine {

/// Renders the physical plan for `q` on `store`. Throws, like
/// PimQueryEngine::execute, for an aggregate the engine refuses.
void explain_query(const sql::BoundQuery& q, const PimStore& store,
                   std::ostream& os);

/// Convenience: explain to a string.
std::string explain_query(const sql::BoundQuery& q, const PimStore& store);

/// Renders a filter-only scan (the per-table half of a join plan): compiled
/// predicate order with estimated selectivities plus the zone-map summary,
/// exactly as explain_query prints them.
void explain_scan(const std::vector<sql::BoundPredicate>& filters,
                  const PimStore& store, std::ostream& os);

/// Renders the join tree of a bound multi-table query: build sides in probe
/// order with their keys (and, for single-key sides, the fact-scan semijoin
/// predicate the cost model may push), the aggregation over joined rows,
/// then the stages that run as `join` (plan_star_join) decided them: the
/// dimension scans as one concurrent stage, the fact scan with the semijoin
/// predicates it takes (only when every build side has survivors), and the
/// host join. `tables` is the catalog tables aligned with plan.table_names
/// (attribute names come from their schemas).
void explain_join_tree(const sql::BoundJoin& plan,
                       const std::vector<const rel::Table*>& tables,
                       const StarJoin& join, std::ostream& os);

}  // namespace bbpim::engine
