// Host-side hash join over PIM scan survivors.
//
// The PIM store filters each table of a star query (bulk-bitwise WHERE,
// zone-map pruning), the fact last: semijoin_candidates turns each filtered
// dimension's surviving keys into a fact-key predicate the fact scan may
// AND in when its cost model says so, and join_is_empty finds the empty
// joins whose fact scan can be skipped. The host then joins the survivors
// column at a time: each filtered dimension's join keys get a TupleIndex
// (engine/group_index.hpp; duplicate keys chain through head/next row
// arrays), the fact survivors probe them in build order (most filtered
// dimension first, so misses drop rows out of the cascade early), and the
// joined rows fold into one GroupFold, the single-table host-gb's group
// fold, then sort with its ORDER BY sort (sort_rows), so a normalized-schema
// query returns row-identical results to the same query on the pre-joined
// relation. Field maxima come from the data (each column's largest code):
// a key whose maxima fit 64 bits packs into one word, a wider one falls
// back to a GroupKey hash map, and a probe field above its maximum misses
// without a lookup. Build and probe cost is modeled with the host CPU
// parameters (cpu_ns_per_record across `threads` workers), the same knobs
// the host-gb phase uses.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "engine/query_exec.hpp"
#include "host/config.hpp"
#include "sql/logical_plan.hpp"

namespace bbpim::engine {

/// The attributes each table's scan must read back for `plan`: its join
/// keys plus the group/aggregate columns living on it. Sorted and deduped,
/// indexed like plan.table_names — the contract between the per-table
/// ScanOutput columns and JoinScanInput.
std::vector<std::vector<std::size_t>> join_scan_attrs(
    const sql::BoundJoin& plan);

/// One table's filtered survivors: columns[i] holds the codes of
/// join_scan_attrs(plan)[t][i], aligned across i (one entry per survivor).
struct JoinScanInput {
  std::vector<std::vector<std::uint64_t>> columns;

  std::size_t row_count() const {
    return columns.empty() ? 0 : columns.front().size();
  }
};

struct JoinStats {
  std::vector<std::size_t> build_rows;  ///< per build side, plan.builds order
  std::size_t probe_rows = 0;           ///< fact survivors entering the probe
  std::size_t joined_rows = 0;          ///< rows surviving every probe
  TimeNs build_ns = 0;
  TimeNs probe_ns = 0;
  TimeNs finalize_ns = 0;
};

struct JoinOutput {
  std::vector<ResultRow> rows;
  JoinStats stats;
};

/// Semijoin reduction candidates, one per single-key build side in
/// plan.builds order: the predicate on the fact's key attribute that keeps
/// exactly the fact rows whose key occurs among the side's filtered
/// dimension survivors (`scans`, aligned with plan.table_names; the fact's
/// entry is unused). No survivors give kNever, one key kEq, sorted keys
/// forming one run of consecutive codes kBetween, anything else kIn. The
/// key fraction divides the distinct keys by `table_rows[side.table]`.
std::vector<SemijoinCandidate> semijoin_candidates(
    const sql::BoundJoin& plan, const std::vector<JoinScanInput>& scans,
    const std::vector<std::size_t>& table_rows);

/// True when a build side of `plan` has no survivors in `scans` (aligned
/// with plan.table_names): the inner join is then empty, whatever the fact
/// holds.
bool join_is_empty(const sql::BoundJoin& plan,
                   const std::vector<JoinScanInput>& scans);

/// Executes the join tree over per-table scan survivors (`scans` aligned
/// with plan.table_names). Duplicate build keys produce the full cross
/// product, matching SQL join semantics. `cancel` is checked per build side
/// and periodically inside the probe loop, so an expired or cancelled join
/// unwinds with the usual engine::QueryTimeout/QueryCancelled instead of
/// probing to completion.
JoinOutput hash_join_execute(const sql::BoundJoin& plan,
                             const std::vector<JoinScanInput>& scans,
                             const host::HostConfig& hcfg,
                             const CancelToken& cancel = {});

}  // namespace bbpim::engine
