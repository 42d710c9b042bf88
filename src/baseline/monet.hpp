// MonetDB-like in-memory columnar baseline (the paper's comparison system).
//
// The paper compares against MonetDB on a 2x16-core Xeon server in two
// configurations: mnt-reg (original star schema, hash equi-joins) and
// mnt-join (scanning the same pre-joined relation the PIM engines use).
// We rebuild that comparator as (a) a functional columnar executor — which
// doubles as the correctness oracle — and (b) a deterministic cost model of
// a column-at-a-time engine on such a server: full-column predicate scans,
// hash builds on qualifying dimension rows, FK probe cascades ordered by
// selectivity, and per-survivor aggregation. Deterministic modeled time
// keeps the benchmark machine-independent; real wall time is also reported
// for reference (README, "Deviations from the paper").
#pragma once

#include <cstdint>
#include <string>

#include "baseline/reference.hpp"
#include "common/units.hpp"
#include "relational/table.hpp"
#include "sql/logical_plan.hpp"
#include "ssb/dbgen.hpp"

namespace bbpim::baseline {

/// Cost parameters of the modeled 32-core DDR4 server.
struct ServerConfig {
  double scan_gbps = 12.0;        ///< effective aggregate column-scan rate
  TimeNs hash_build_ns = 18.0;    ///< per qualifying dimension row
  TimeNs hash_probe_ns = 25.0;    ///< per surviving fact row, per join
  TimeNs agg_update_ns = 10.0;    ///< per fully-qualified row
  TimeNs output_ns = 120.0;       ///< per result group
  TimeNs fixed_ns = 1.0e6;        ///< query startup (execution only)
  std::uint32_t value_bytes = 4;  ///< columnar width of encoded values
};

struct BaselineRun {
  std::vector<engine::ResultRow> rows;
  TimeNs model_ns = 0;       ///< deterministic modeled execution time
  TimeNs wall_ns = 0;        ///< measured wall time of the functional scan
  std::size_t selected_records = 0;
  std::uint64_t scanned_bytes = 0;
  std::uint64_t hash_probes = 0;
};

/// mnt-join: scan the pre-joined relation. Reads only the relation and the
/// server's cost parameters.
BaselineRun execute_prejoined(const rel::Table& prejoined,
                              const sql::BoundQuery& q,
                              const ServerConfig& cfg = {});

class MonetLikeEngine {
 public:
  /// `data` supplies the dimension tables for mnt-reg join costing;
  /// `prejoined` is the denormalized relation (also used functionally).
  MonetLikeEngine(const ssb::SsbData& data, const rel::Table& prejoined,
                  ServerConfig cfg = {});

  /// mnt-reg: star-schema plan with hash joins against the dimensions.
  BaselineRun execute_star(const sql::BoundQuery& q) const;

  const ServerConfig& config() const { return cfg_; }

 private:
  /// Fraction of `table` rows matching the query predicates that target it.
  double table_selectivity(const rel::Table& table, const sql::BoundQuery& q,
                           std::size_t* pred_attr_count) const;

  const ssb::SsbData* data_;
  const rel::Table* prejoined_;
  ServerConfig cfg_;
};

}  // namespace bbpim::baseline
