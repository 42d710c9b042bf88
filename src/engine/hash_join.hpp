// Star joins over PIM scan survivors: the join's plan and its host side.
//
// The PIM store filters each table of a star query (bulk-bitwise WHERE,
// zone-map pruning). The dimensions scan first, as one concurrent stage;
// plan_star_join takes their outputs and makes every decision of the join:
// it prices that stage, skips the fact scan when a build side has no
// survivors, turns each filtered dimension's surviving keys into a
// fact-key predicate, and picks the prefix of those the fact scan ANDs in
// (semijoin_prefix). finish_star_join then joins the survivors on the host
// and adds up the join's stats. The host joins column at a time: each
// filtered dimension's join keys get a TupleIndex (engine/group_index.hpp;
// duplicate keys chain through head/next row arrays), the fact survivors
// probe them in build order (most filtered dimension first, so misses drop
// rows out of the cascade early), and the joined rows fold into one
// GroupFold, the single-table host-gb's group fold, then sort in its
// finalize (finalize_rows), so a normalized-schema query returns
// row-identical results to the same query on the pre-joined relation.
// Field maxima come from the data (each column's largest code): a key whose
// maxima fit 64 bits packs into one word, a wider one falls back to a
// GroupKey hash map, and a probe field above its maximum misses without a
// lookup. Build and probe cost is modeled with the host CPU parameters
// (cpu_ns_per_record across `threads` workers), the same knobs the host-gb
// phase uses.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "engine/query_exec.hpp"
#include "host/config.hpp"
#include "sql/logical_plan.hpp"

namespace bbpim::engine {

/// The attributes each table's scan must read back for `plan`: its join
/// keys plus the group/aggregate columns living on it. Sorted and deduped,
/// indexed like plan.table_names — the contract between the per-table
/// ScanOutput columns and the host join.
std::vector<std::vector<std::size_t>> join_scan_attrs(
    const sql::BoundJoin& plan);

/// One table's filtered survivors as the host join reads them: only
/// `columns`, where columns[i] holds the codes of join_scan_attrs(plan)[t][i]
/// (one entry per survivor).
using JoinScanInput = ScanOutput;

struct JoinStats {
  std::vector<std::size_t> build_rows;  ///< per build side, plan.builds order
  std::size_t probe_rows = 0;           ///< fact survivors entering the probe
  TimeNs build_ns = 0;
  TimeNs probe_ns = 0;
  TimeNs finalize_ns = 0;
};

struct JoinOutput {
  std::vector<ResultRow> rows;
  JoinStats stats;
};

/// A run-time semijoin predicate a star join may AND into its fact scan:
/// it keeps exactly the fact rows whose foreign key occurs among one
/// filtered dimension's surviving keys.
struct SemijoinCandidate {
  sql::BoundPredicate predicate;  ///< on the fact's foreign-key attribute
  double key_fraction = 1;        ///< distinct surviving keys / dimension rows
};

/// A star join after its dimension stage: that stage's scans and cost, and
/// what runs next.
struct StarJoin {
  /// Every table's scan, aligned with plan.table_names. The fact's entry
  /// holds only the version its scan will read until that scan runs, and
  /// it runs only when scans_fact().
  std::vector<ScanOutput> scans;
  /// The dimension stage: the dimension scans priced as one concurrent
  /// stage (price_concurrent_scans), with dims_ns its total_ns.
  QueryStats stage;
  /// One candidate per single-key build side, in plan.builds order. No
  /// survivors give kNever, one key kEq, sorted keys forming one run of
  /// consecutive codes kBetween, anything else kIn. The key fraction
  /// divides the distinct keys by the dimension's rows.
  std::vector<SemijoinCandidate> candidates;
  /// The first dimension in build order (index into plan.table_names)
  /// without survivors, if any: the inner join is then empty whatever the
  /// fact holds, and the fact is not scanned.
  std::optional<std::size_t> empty_dimension;
  /// The fact scan's filters: its own, then the semijoin prefix that
  /// semijoin_prefix picks (none without a fact store to price it on).
  std::vector<sql::BoundPredicate> fact_filters;

  bool scans_fact() const { return !empty_dimension.has_value(); }
};

/// Plans a star join from its dimension scans. `scans` and `tables` (the
/// catalog tables) align with plan.table_names; the fact's scan has not run
/// and its entry is empty. `fact` is the fact's store at the version its
/// scan will read, or null for the host baselines: they have no cost model,
/// so their join is not priced (a zero stage) and their fact scan keeps its
/// own filters. The fact's entry in join.scans records that version, so a
/// join that skips the fact scan still reports what it pinned.
StarJoin plan_star_join(const sql::BoundJoin& plan,
                        std::vector<ScanOutput> scans,
                        const std::vector<const rel::Table*>& tables,
                        const PimStore* fact, const host::HostConfig& hcfg);

/// Semijoin reduction for a join's scan of the fact store `fact`: returns
/// `filters` with the best prefix of the candidates ANDed in, candidates
/// ranked by -ln(key fraction) per extra gate cycle of their own (at equal
/// gate cost, most selective first). A prefix is priced as its extra gate
/// cycles plus the readback and host probes its survivors still cost; the
/// prefix with the lowest modeled time wins among those whose modeled
/// energy is not above the plain scan's, and the empty prefix (the plain
/// scan) keeps ties. The cycle cost is the compiled cycle delta over every
/// crossbar; the survivor cost follows from the survivor fraction (sketch
/// estimate of `filters` times the prefix's key fractions), the expected
/// unique lines of a walk reading `attrs`, and one probe per survivor and
/// build side (`probe_builds`). Defined in query_exec.cpp, beside the scan
/// readback model it prices with.
std::vector<sql::BoundPredicate> semijoin_prefix(
    const std::vector<sql::BoundPredicate>& filters,
    const std::vector<SemijoinCandidate>& candidates,
    const std::vector<std::size_t>& attrs, std::size_t probe_builds,
    const PimStore& fact, const host::HostConfig& hcfg);

/// Finishes a star join once its fact scan, if any, is in join.scans: the
/// host hash join over the scans and the join's stats, its stages added up
/// in the order they run: the dimension stage, the fact scan, then the
/// host build and probe (host-gb) and merge and sort (finalize). The
/// output's data_version is the fact entry's.
QueryOutput finish_star_join(const sql::BoundJoin& plan, StarJoin join,
                             const host::HostConfig& hcfg,
                             const CancelToken& cancel = {});

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
