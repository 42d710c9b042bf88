#include "baseline/monet.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace bbpim::baseline {
namespace {

BaselineRun run_functional(const rel::Table& prejoined,
                           const sql::BoundQuery& q) {
  BaselineRun run;
  const auto t0 = std::chrono::steady_clock::now();
  ReferenceRun ref = scan_execute(prejoined, q);
  const auto t1 = std::chrono::steady_clock::now();
  run.rows = std::move(ref.rows);
  run.selected_records = ref.selected_records;
  run.wall_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  return run;
}

}  // namespace

MonetLikeEngine::MonetLikeEngine(const ssb::SsbData& data,
                                 const rel::Table& prejoined, ServerConfig cfg)
    : data_(&data), prejoined_(&prejoined), cfg_(cfg) {}

double MonetLikeEngine::table_selectivity(const rel::Table& table,
                                          const sql::BoundQuery& q,
                                          std::size_t* pred_attr_count) const {
  // Collect the query predicates that bind to attributes of `table`.
  struct Bound {
    std::size_t col;  // column in `table`
    const sql::BoundPredicate* pred;
  };
  std::vector<Bound> preds;
  for (const sql::BoundPredicate& p : q.filters) {
    if (p.kind == sql::BoundPredicate::Kind::kAlways) continue;
    const std::string& name = prejoined_->schema().attribute(p.attr).name;
    const auto col = table.schema().index_of(name);
    if (col) preds.push_back({*col, &p});
  }
  if (pred_attr_count != nullptr) *pred_attr_count = preds.size();
  if (preds.empty()) return 1.0;

  std::size_t pass = 0;
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    bool ok = true;
    for (const Bound& b : preds) {
      if (!b.pred->matches(table.value(r, b.col))) {
        ok = false;
        break;
      }
    }
    pass += ok;
  }
  return table.row_count() > 0
             ? static_cast<double>(pass) / static_cast<double>(table.row_count())
             : 0.0;
}

BaselineRun execute_prejoined(const rel::Table& prejoined,
                              const sql::BoundQuery& q,
                              const ServerConfig& cfg) {
  BaselineRun run = run_functional(prejoined, q);

  // Column-at-a-time scan: every referenced column is read in full; the
  // aggregation input is fetched only for survivors.
  std::size_t scanned_cols = 0;
  for (const sql::BoundPredicate& p : q.filters) {
    if (p.kind != sql::BoundPredicate::Kind::kAlways) ++scanned_cols;
  }
  scanned_cols += q.group_by.size();
  std::size_t agg_cols = 0;
  if (q.agg_func != sql::AggFunc::kCount) {
    agg_cols = q.agg_expr.kind == sql::Expr::Kind::kColumn ? 1 : 2;
  }
  const std::uint64_t rows = prejoined.row_count();
  run.scanned_bytes =
      rows * scanned_cols * cfg.value_bytes +
      static_cast<std::uint64_t>(run.selected_records) * agg_cols *
          cfg.value_bytes;

  run.model_ns = cfg.fixed_ns +
                 static_cast<double>(run.scanned_bytes) / cfg.scan_gbps +
                 static_cast<double>(run.selected_records) * cfg.agg_update_ns +
                 static_cast<double>(run.rows.size()) * cfg.output_ns;
  return run;
}

BaselineRun MonetLikeEngine::execute_star(const sql::BoundQuery& q) const {
  BaselineRun run = run_functional(*prejoined_, q);

  const std::uint64_t fact_rows = data_->lineorder.row_count();
  std::uint64_t scanned = 0;

  // Fact-local predicates: full-column scans, then the surviving fraction.
  std::size_t fact_pred_cols = 0;
  const double fact_sel =
      table_selectivity(data_->lineorder, q, &fact_pred_cols);
  scanned += fact_rows * fact_pred_cols * cfg_.value_bytes;

  // Dimensions touched by predicates or group columns join via hash.
  struct DimJoin {
    const rel::Table* dim;
    double sel;
    std::size_t pred_cols;
    std::size_t payload_cols;
  };
  std::vector<DimJoin> joins;
  const rel::Table* const dims[] = {&data_->date, &data_->customer,
                                    &data_->supplier, &data_->part};
  for (const rel::Table* dim : dims) {
    DimJoin j{dim, 1.0, 0, 0};
    j.sel = table_selectivity(*dim, q, &j.pred_cols);
    for (const std::size_t g : q.group_by) {
      const std::string& name = prejoined_->schema().attribute(g).name;
      if (dim->schema().index_of(name)) ++j.payload_cols;
    }
    if (j.pred_cols > 0 || j.payload_cols > 0) joins.push_back(j);
  }
  // Most selective join first (standard star-join ordering).
  std::sort(joins.begin(), joins.end(),
            [](const DimJoin& a, const DimJoin& b) { return a.sel < b.sel; });

  TimeNs join_ns = 0;
  double surviving = static_cast<double>(fact_rows) * fact_sel;
  for (const DimJoin& j : joins) {
    const std::uint64_t dim_rows = j.dim->row_count();
    // Scan predicate columns + key, build hash of qualifying rows.
    scanned += dim_rows * (j.pred_cols + 1 + j.payload_cols) * cfg_.value_bytes;
    join_ns += dim_rows * j.sel * cfg_.hash_build_ns;
    // Scan the FK column, probe for the current candidate set.
    scanned += fact_rows * cfg_.value_bytes;
    join_ns += surviving * cfg_.hash_probe_ns;
    run.hash_probes += static_cast<std::uint64_t>(surviving);
    surviving *= j.sel;
  }

  // Aggregation-input fetch for fully-qualified rows.
  std::size_t agg_cols = 0;
  if (q.agg_func != sql::AggFunc::kCount) {
    agg_cols = q.agg_expr.kind == sql::Expr::Kind::kColumn ? 1 : 2;
  }
  scanned += static_cast<std::uint64_t>(run.selected_records) *
             (agg_cols + q.group_by.size()) * cfg_.value_bytes;

  run.scanned_bytes = scanned;
  run.model_ns = cfg_.fixed_ns + static_cast<double>(scanned) / cfg_.scan_gbps +
                 join_ns +
                 static_cast<double>(run.selected_records) * cfg_.agg_update_ns +
                 static_cast<double>(run.rows.size()) * cfg_.output_ns;
  return run;
}

}  // namespace bbpim::baseline
