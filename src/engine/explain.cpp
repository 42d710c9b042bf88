#include "engine/explain.hpp"

#include <iomanip>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>

#include "engine/filter_compiler.hpp"
#include "engine/query_exec.hpp"

namespace bbpim::engine {
namespace {

std::string pred_text(const sql::BoundPredicate& p, const rel::Schema& schema) {
  const std::string name = schema.attribute(p.attr).name;
  using Kind = sql::BoundPredicate::Kind;
  std::ostringstream ss;
  switch (p.kind) {
    case Kind::kEq: ss << name << " == " << p.v1; break;
    case Kind::kLt: ss << name << " < " << p.v1; break;
    case Kind::kLe: ss << name << " <= " << p.v1; break;
    case Kind::kGt: ss << name << " > " << p.v1; break;
    case Kind::kGe: ss << name << " >= " << p.v1; break;
    case Kind::kBetween:
      ss << p.v1 << " <= " << name << " <= " << p.v2;
      break;
    case Kind::kIn: {
      ss << name << " IN {";
      for (std::size_t i = 0; i < p.in_values.size(); ++i) {
        ss << (i ? "," : "") << p.in_values[i];
      }
      ss << "}";
      break;
    }
    case Kind::kNever: ss << "FALSE"; break;
    case Kind::kAlways: ss << "TRUE"; break;
  }
  return ss.str();
}

/// The aggregate as SQL text ("SUM(a * b) AS x"); `name` names a column.
template <class Ref, class Name>
std::string agg_text(const sql::AggregateTail<Ref>& q, Name&& name) {
  // Indexed by sql::AggFunc and sql::Expr::Kind.
  static const char* const kFunc[] = {"", "SUM", "MIN", "MAX", "COUNT"};
  static const char* const kOp[] = {"", " * ", " - ", " + "};
  std::string s = std::string(kFunc[static_cast<int>(q.agg_func)]) + "(";
  if (q.agg_func == sql::AggFunc::kCount) {
    s += "*";
  } else {
    s += name(q.agg_expr.a);
    if (q.agg_expr.kind != sql::Expr::Kind::kColumn) {
      s += kOp[static_cast<int>(q.agg_expr.kind)] + name(q.agg_expr.b);
    }
  }
  s += ")";
  if (!q.agg_alias.empty()) s += " AS " + q.agg_alias;
  return s;
}

/// Writes the part-0 attribute holding bit column `col`, with the bit's
/// position in it ("name[i]") when `bit` is set.
void put_column(std::ostream& os, const PimStore& store, std::uint16_t col,
                bool bit) {
  const rel::Schema& schema = store.table().schema();
  for (std::size_t a = 0; a < schema.attribute_count(); ++a) {
    if (store.part_of_attr(a) != 0) continue;
    const pim::Field f = store.field(a);
    if (col >= f.offset && col < f.offset + f.width) {
      os << schema.attribute(a).name;
      if (bit) os << "[" << col - f.offset << "]";
      return;
    }
  }
  os << "c" << col;
}

/// FILTER + ZONE MAP sections shared by explain_query and explain_scan.
void filter_section(const std::vector<sql::BoundPredicate>& filters,
                    const PimStore& store, std::ostream& os) {
  const rel::Schema& schema = store.table().schema();
  const pim::PimConfig& cfg = store.module_config();

  // Predicates in actual execution order (selectivity-ordered: the engine
  // compiles most-selective-first) with their sketch-estimated
  // selectivities.
  std::vector<double> estimates;
  const std::vector<sql::BoundPredicate> ordered =
      order_by_selectivity(filters, store, &estimates);
  for (int part = 0; part < store.parts(); ++part) {
    pim::ColumnAlloc alloc = store.layout(part).make_alloc();
    const CompiledFilter f = compile_filter(ordered, store.layout(part), alloc);
    os << "FILTER part " << part << ": " << f.predicate_count
       << " predicate(s), " << f.program.gates.size() << " cycles ("
       << f.program.gates.size() * cfg.logic_cycle_ns / 1000.0 << " us/page)\n";
    for (std::size_t i = 0; i < ordered.size(); ++i) {
      const sql::BoundPredicate& p = ordered[i];
      if (p.kind == sql::BoundPredicate::Kind::kAlways) continue;
      if (p.kind != sql::BoundPredicate::Kind::kNever &&
          !store.layout(part).has(p.attr)) {
        continue;
      }
      os << "    " << pred_text(p, schema) << "  [est sel "
         << std::setprecision(3) << estimates[i] << std::setprecision(6)
         << "]\n";
    }
  }

  // Zone-map classification: what pruning (HostConfig::prune) would skip.
  // Routed through the store's classification memo, so explaining a query a
  // pruned execution already classified reuses the cached analysis — and
  // the memo line below reports exactly that reuse.
  std::size_t memo_pages_reused = 0;
  const std::shared_ptr<const FilterPruneAnalysis> analysis =
      analyze_filters_cached(ordered, store, &memo_pages_reused);
  const FilterPruneAnalysis& zones = *analysis;
  os << "ZONE MAP: " << zones.pages_skipped << "/" << store.pages_per_part()
     << " pages skipped (" << zones.crossbars_skipped << " crossbars), "
     << zones.pages_synthesized << " always-true part-page program(s) "
     << "synthesized, " << zones.predicates_short_circuited
     << " predicate evaluation(s) short-circuited"
     << (zones.pages_skipped + zones.pages_synthesized > 0 ? " [with prune on]"
                                                           : "")
     << "\n";
  os << "ZONE MAP MEMO: "
     << (memo_pages_reused > 0
             ? "hit — " + std::to_string(memo_pages_reused) +
                   " page classification(s) reused"
             : "miss — classification computed and cached")
     << " (store memo: " << store.classification_memo().hit_count() << " hit(s), "
     << store.classification_memo().miss_count() << " miss(es))\n";
}

}  // namespace

void explain_query(const sql::BoundQuery& q, const PimStore& store,
                   std::ostream& os) {
  const rel::Schema& schema = store.table().schema();
  const pim::PimConfig& cfg = store.module_config();

  os << "== physical plan (" << (store.parts() == 2 ? "two-xb" : "one-xb")
     << ", M=" << store.pages_per_part() << " pages/part, "
     << store.record_count() << " records) ==\n";

  // Phase 1: filter programs per part + zone-map classification.
  filter_section(q.filters, store, os);
  if (store.parts() == 2) {
    os << "TRANSFER: part-1 result column -> host -> part-0 ("
       << cfg.crossbar_rows << " lines/page each way), AND on part 0\n";
  }

  // The executed pass plan: EXPLAIN refuses exactly what execution does.
  const AggPlan plan = plan_agg_passes(q, store);
  os << "AGGREGATE: "
     << agg_text(q, [&](std::size_t a) { return schema.attribute(a).name; })
     << ": " << plan.passes.size() << " pass(es), n=" << plan.n_chunks
     << ", s=" << plan.s_chunks << "\n";
  static const char* const kOp[] = {"SUM", "MIN", "MAX"};  // pim::AggOp
  for (std::size_t i = 0; i < plan.passes.size(); ++i) {
    const AggPass& p = plan.passes[i];
    os << "  pass " << i << ": " << kOp[static_cast<int>(p.op)] << "(";
    if (p.use_select_as_value) {
      os << "select";
    } else {
      put_column(os, store, p.value.offset, false);
    }
    os << ")";
    if (p.mask_attr_col) {
      os << " where ";
      put_column(os, store, *p.mask_attr_col, true);
    }
    if (p.scale == 0) {
      os << ", count only";
    } else if (p.scale != 1) {
      os << ", x" << p.scale;
    }
    if (p.carries_count) os << ", with count";
    os << "\n";
  }

  // GROUP BY.
  if (q.has_group_by()) {
    os << "GROUP BY:";
    for (const std::size_t g : q.group_by) {
      os << " " << schema.attribute(g).name << "(part "
         << store.part_of_attr(g) << ")";
    }
    os << "\n  hybrid split: sample 1 page -> Equation 3 picks k\n";
  } else {
    os << "NO GROUP BY: single PIM aggregation over the filter result\n";
  }
}

std::string explain_query(const sql::BoundQuery& q, const PimStore& store) {
  std::ostringstream ss;
  explain_query(q, store, ss);
  return ss.str();
}

void explain_scan(const std::vector<sql::BoundPredicate>& filters,
                  const PimStore& store, std::ostream& os) {
  os << "== scan (" << (store.parts() == 2 ? "two-xb" : "one-xb")
     << ", M=" << store.pages_per_part() << " pages/part, "
     << store.record_count() << " records) ==\n";
  filter_section(filters, store, os);
  os << "READBACK: residual bit-vector + survivor record lines "
     << "(unique-line accounting)\n";
}

void explain_join_tree(const sql::BoundJoin& plan,
                       const std::vector<const rel::Table*>& tables,
                       const StarJoin& join, std::ostream& os) {
  const auto attr_name = [&](std::size_t table, std::size_t attr) {
    return plan.table_names[table] + "." +
           tables[table]->schema().attribute(attr).name;
  };
  os << "== join plan: star over fact '" << plan.table_names[plan.fact]
     << "' (" << plan.table_names.size() << " tables) ==\n";
  for (const sql::BoundBuildSide& b : plan.builds) {
    os << "BUILD " << plan.table_names[b.table] << " (hash index, "
       << tables[b.table]->row_count() << " rows, "
       << plan.filters[b.table].size() << " filter(s)):";
    for (std::size_t i = 0; i < b.dim_attrs.size(); ++i) {
      os << (i ? " AND " : " ") << attr_name(plan.fact, b.fact_attrs[i])
         << " = " << attr_name(b.table, b.dim_attrs[i]);
    }
    os << "\n";
    if (b.fact_attrs.size() == 1) {
      os << "  SEMIJOIN: the " << plan.table_names[plan.fact]
         << " scan may receive a run-time predicate on "
         << attr_name(plan.fact, b.fact_attrs[0]) << " (the surviving "
         << plan.table_names[b.table]
         << " keys), decided by cost: pushed only when it lowers modeled "
            "time without raising modeled energy\n";
    }
  }
  os << "AGGREGATE "
     << agg_text(plan,
                 [&](const sql::BoundColumnRef& c) {
                   return attr_name(c.table, c.attr);
                 })
     << " over joined rows\n";
  if (plan.has_group_by()) {
    os << "GROUP BY:";
    for (const sql::BoundColumnRef& g : plan.group_by) {
      os << " " << attr_name(g.table, g.attr);
    }
    os << "\n";
  }

  const std::string& fact = plan.table_names[plan.fact];
  os << "STAGE 1, dimension scans as one concurrent stage (modeled "
     << join.stage.dims_ns / 1000.0 << " us)\n";
  if (join.empty_dimension) {
    os << "STAGE 2, host join: no fact scan, build side "
       << plan.table_names[*join.empty_dimension]
       << " has no survivors, so the join is empty\n";
    return;
  }
  const std::size_t own = plan.filters[plan.fact].size();
  os << "STAGE 2, fact scan " << fact << " (" << tables[plan.fact]->row_count()
     << " rows, " << own << " filter(s), " << join.fact_filters.size() - own
     << " semijoin(s)):";
  for (std::size_t i = own; i < join.fact_filters.size(); ++i) {
    os << " " << attr_name(plan.fact, join.fact_filters[i].attr);
  }
  os << "\nSTAGE 3, host join: PROBE " << fact << " survivors cascade through "
     << plan.builds.size() << " build side(s)\n";
}

}  // namespace bbpim::engine
