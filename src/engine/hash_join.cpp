#include "engine/hash_join.hpp"

#include <algorithm>
#include <stdexcept>

#include "engine/group_index.hpp"

namespace bbpim::engine {
namespace {

/// The column of attribute `attr` among one table's scan `columns`, read
/// for `attrs` (its join_scan_attrs entry).
const std::vector<std::uint64_t>& scan_column(
    const std::vector<std::size_t>& attrs,
    const std::vector<std::vector<std::uint64_t>>& columns, std::size_t attr) {
  return columns.at(std::lower_bound(attrs.begin(), attrs.end(), attr) -
                    attrs.begin());
}

/// The largest code of `col` (0 when empty).
std::uint64_t max_code(const std::vector<std::uint64_t>& col) {
  return col.empty() ? 0 : *std::max_element(col.begin(), col.end());
}

}  // namespace

std::vector<std::vector<std::size_t>> join_scan_attrs(
    const sql::BoundJoin& plan) {
  std::vector<std::vector<std::size_t>> attrs(plan.table_names.size());
  for (const sql::BoundBuildSide& b : plan.builds) {
    for (const std::size_t a : b.fact_attrs) attrs[plan.fact].push_back(a);
    for (const std::size_t a : b.dim_attrs) attrs[b.table].push_back(a);
  }
  for (const sql::BoundColumnRef& g : plan.group_by) {
    attrs[g.table].push_back(g.attr);
  }
  if (plan.agg_func != sql::AggFunc::kCount) {
    attrs[plan.agg_expr.a.table].push_back(plan.agg_expr.a.attr);
    if (plan.agg_expr.kind != sql::Expr::Kind::kColumn) {
      attrs[plan.agg_expr.b.table].push_back(plan.agg_expr.b.attr);
    }
  }
  for (std::vector<std::size_t>& v : attrs) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return attrs;
}

StarJoin plan_star_join(const sql::BoundJoin& plan,
                        std::vector<ScanOutput> scans,
                        const std::vector<const rel::Table*>& tables,
                        const PimStore* fact, const host::HostConfig& hcfg) {
  using Kind = sql::BoundPredicate::Kind;
  StarJoin out;
  const auto attrs = join_scan_attrs(plan);
  for (const sql::BoundBuildSide& side : plan.builds) {
    if (!out.empty_dimension && scans[side.table].row_ids.empty()) {
      out.empty_dimension = side.table;
    }
    if (side.dim_attrs.size() != 1) continue;  // composite keys stay on host
    std::vector<std::uint64_t> keys = scan_column(
        attrs[side.table], scans[side.table].columns, side.dim_attrs[0]);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    const std::size_t distinct = keys.size();

    SemijoinCandidate c;
    sql::BoundPredicate& p = c.predicate;
    p.attr = side.fact_attrs[0];
    if (keys.empty()) {
      p.kind = Kind::kNever;
    } else if (keys.size() == 1) {
      p.kind = Kind::kEq;
      p.v1 = keys.front();
    } else if (keys.back() - keys.front() + 1 == keys.size()) {
      p.kind = Kind::kBetween;
      p.v1 = keys.front();
      p.v2 = keys.back();
    } else {
      p.kind = Kind::kIn;
      p.in_values = std::move(keys);
    }
    const std::size_t rows = tables[side.table]->row_count();
    c.key_fraction = rows == 0 ? 0.0
                               : static_cast<double>(distinct) /
                                     static_cast<double>(rows);
    out.candidates.push_back(std::move(c));
  }

  out.fact_filters = plan.filters[plan.fact];
  if (fact != nullptr) {
    // The fact's entry is empty, so it adds nothing to the stage; it holds
    // the version the fact scan will read, and a skipped scan reports it.
    scans[plan.fact].data_version = fact->data_version();
    out.stage = price_concurrent_scans(scans, hcfg, fact->module_config());
    out.stage.dims_ns = out.stage.total_ns;
    if (out.scans_fact()) {
      out.fact_filters =
          semijoin_prefix(out.fact_filters, out.candidates, attrs[plan.fact],
                          plan.builds.size(), *fact, hcfg);
    }
  }
  out.scans = std::move(scans);
  return out;
}

JoinOutput hash_join_execute(const sql::BoundJoin& plan,
                             const std::vector<JoinScanInput>& scans,
                             const host::HostConfig& hcfg,
                             const CancelToken& cancel) {
  if (scans.size() != plan.table_names.size()) {
    throw std::invalid_argument("hash_join_execute: one scan per table");
  }
  JoinOutput out;
  JoinStats& js = out.stats;
  const double threads = hcfg.threads == 0 ? 1.0 : hcfg.threads;

  const auto attrs = join_scan_attrs(plan);
  const auto column = [&](std::size_t t, std::size_t attr)
      -> const std::vector<std::uint64_t>& {
    return scan_column(attrs[t], scans[t].columns, attr);
  };

  // --- build: one flat key index per filtered dimension --------------------
  // Dimension rows sharing a key chain through head/next; built from the
  // last row back, so every chain lists its rows in scan order.
  constexpr std::uint32_t kEnd = ~std::uint32_t{0};
  struct Build {
    std::size_t table = 0;
    std::vector<const std::uint64_t*> probe;  ///< fact key columns
    TupleIndex index;                         ///< dim key -> dense key id
    std::vector<std::uint32_t> head;  ///< per key id: its first dim row
    std::vector<std::uint32_t> next;  ///< per dim row: next row, or kEnd
  };
  std::vector<Build> builds;
  builds.reserve(plan.builds.size());
  std::size_t build_total = 0;
  for (const sql::BoundBuildSide& side : plan.builds) {
    cancel.check();  // per build side: each is a full pass over one dim scan
    std::vector<const std::uint64_t*> keys;
    std::vector<std::uint64_t> max_codes;
    for (const std::size_t a : side.dim_attrs) {
      const std::vector<std::uint64_t>& col = column(side.table, a);
      keys.push_back(col.data());
      max_codes.push_back(max_code(col));
    }
    const std::size_t rows = column(side.table, side.dim_attrs[0]).size();
    Build b{side.table, {}, TupleIndex(std::move(max_codes), rows), {}, {}};
    for (const std::size_t a : side.fact_attrs) {
      b.probe.push_back(column(plan.fact, a).data());
    }
    b.next.resize(rows);
    for (std::size_t r = rows; r-- > 0;) {
      const std::uint32_t k =
          b.index.insert([&](std::size_t i) { return keys[i][r]; });
      if (k == b.head.size()) b.head.push_back(kEnd);
      b.next[r] = b.head[k];
      b.head[k] = static_cast<std::uint32_t>(r);
    }
    js.build_rows.push_back(rows);
    build_total += rows;
    builds.push_back(std::move(b));
  }
  js.build_ns = static_cast<double>(build_total) * hcfg.cpu_ns_per_record /
                threads;

  // --- probe: fact survivors cascade through the build sides ---------------
  js.probe_rows = scans[plan.fact].columns.front().size();

  // Group/aggregate column access for a joined combination: the fact row,
  // or the current dim row of the build side owning the column.
  constexpr std::size_t kOnFact = ~std::size_t{0};
  struct RefSlot {
    const std::uint64_t* data = nullptr;
    std::size_t build = kOnFact;  ///< index into `builds`, or kOnFact
  };
  const auto slot_of = [&](const sql::BoundColumnRef& ref) {
    RefSlot s{column(ref.table, ref.attr).data()};
    if (ref.table == plan.fact) return s;
    for (std::size_t b = 0; b < builds.size(); ++b) {
      if (builds[b].table == ref.table) s.build = b;
    }
    return s;
  };
  std::vector<RefSlot> group_slots;
  std::vector<std::uint64_t> group_max;
  for (const sql::BoundColumnRef& g : plan.group_by) {
    group_slots.push_back(slot_of(g));
    group_max.push_back(max_code(column(g.table, g.attr)));
  }
  const bool want_values = plan.agg_func != sql::AggFunc::kCount;
  const bool have_b = plan.agg_expr.kind != sql::Expr::Kind::kColumn;
  RefSlot agg_a, agg_b;
  if (want_values) {
    agg_a = slot_of(plan.agg_expr.a);
    if (have_b) agg_b = slot_of(plan.agg_expr.b);
  }

  // Without GROUP BY every joined row folds into the empty key.
  GroupFold groups(plan.agg_func, std::move(group_max));
  // Per build side: the current probe row's chain start and position.
  std::vector<std::uint32_t> first(builds.size());
  std::vector<std::uint32_t> cur(builds.size());
  for (std::size_t r = 0; r < js.probe_rows; ++r) {
    // Periodic checkpoint: one clock read per 64K probed rows.
    if ((r & 0xFFFF) == 0) cancel.check();
    bool ok = true;
    for (std::size_t b = 0; b < builds.size() && ok; ++b) {
      Build& bd = builds[b];
      const std::uint32_t k =
          bd.index.find([&](std::size_t i) { return bd.probe[i][r]; });
      ok = k != TupleIndex::kAbsent;
      if (ok) first[b] = cur[b] = bd.head[k];
    }
    if (!ok) continue;

    // Odometer over the per-dimension match chains: duplicate build keys
    // yield the cross product (unique SSB keys make this one iteration).
    const auto value_of = [&](const RefSlot& s) {
      return s.data[s.build == kOnFact ? r : cur[s.build]];
    };
    while (true) {
      std::int64_t v = 1;
      if (want_values) {
        v = static_cast<std::int64_t>(plan.agg_expr.eval(
            value_of(agg_a), have_b ? value_of(agg_b) : 0));
      }
      groups.add([&](std::size_t i) { return value_of(group_slots[i]); }, v);
      std::size_t d = 0;
      for (; d < builds.size(); ++d) {
        cur[d] = builds[d].next[cur[d]];
        if (cur[d] != kEnd) break;
        cur[d] = first[d];
      }
      if (d == builds.size()) break;
    }
  }
  js.probe_ns = static_cast<double>(js.probe_rows) *
                static_cast<double>(builds.size()) * hcfg.cpu_ns_per_record /
                threads;

  // --- finalize: the single-table engine's sort ----------------------------
  out.rows = groups.rows();
  if (!plan.has_group_by() && out.rows.empty()) out.rows.push_back({});
  js.finalize_ns = finalize_rows(out.rows, plan.order_by);
  return out;
}

QueryOutput finish_star_join(const sql::BoundJoin& plan, StarJoin join,
                             const host::HostConfig& hcfg,
                             const CancelToken& cancel) {
  // A skipped fact scan is empty: its stats add nothing, and the host join
  // reads its columns empty.
  ScanOutput& fact = join.scans[plan.fact];
  fact.columns.resize(join_scan_attrs(plan)[plan.fact].size());
  QueryOutput out{{}, join.stage, fact.data_version};
  out.stats.merge(fact.stats, true);
  // The host join reads only the columns: release the fact's row ids, the
  // largest of the rest, before it builds its indexes.
  std::vector<std::uint64_t>().swap(fact.row_ids);
  JoinOutput joined = hash_join_execute(plan, join.scans, hcfg, cancel);
  QueryStats host;
  host.phases.host_gb = joined.stats.build_ns + joined.stats.probe_ns;
  host.phases.finalize = joined.stats.finalize_ns;
  host.total_ns = host.phases.host_gb + host.phases.finalize;
  out.stats.merge(host, false);
  out.rows = std::move(joined.rows);
  return out;
}

}  // namespace bbpim::engine
