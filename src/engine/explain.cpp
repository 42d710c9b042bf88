#include "engine/explain.hpp"

#include <iomanip>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>

#include "engine/filter_compiler.hpp"
#include "pim/agg_circuit.hpp"

namespace bbpim::engine {
namespace {

const char* op_name(pim::MicroOpKind kind) {
  switch (kind) {
    case pim::MicroOpKind::kInit0: return "INIT0";
    case pim::MicroOpKind::kInit1: return "INIT1";
    case pim::MicroOpKind::kNot: return "NOT  ";
    case pim::MicroOpKind::kNor: return "NOR  ";
  }
  return "?";
}

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

  // Zone-map classification: what pruning (ExecOptions::prune) would skip.
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

void disassemble(const pim::MicroProgram& prog, std::ostream& os) {
  for (std::size_t i = 0; i < prog.size(); ++i) {
    const pim::MicroOp& op = prog[i];
    os << std::setw(4) << std::setfill('0') << i << ' ' << op_name(op.kind);
    switch (op.kind) {
      case pim::MicroOpKind::kInit0:
      case pim::MicroOpKind::kInit1:
        os << "              -> c" << op.out;
        break;
      case pim::MicroOpKind::kNot:
        os << " c" << std::setw(3) << op.a << "       -> c" << op.out;
        break;
      case pim::MicroOpKind::kNor:
        os << " c" << std::setw(3) << op.a << " c" << std::setw(3) << op.b
           << " -> c" << op.out;
        break;
    }
    os << '\n';
  }
  os << std::setfill(' ');
}

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

  // Aggregation passes (mirrors build_agg_passes).
  os << "AGGREGATE: ";
  if (q.agg_func == sql::AggFunc::kCount) {
    os << "COUNT via SUM of the select column (1 pass, n=1)\n";
  } else {
    const std::string a = schema.attribute(q.agg_expr.a).name;
    switch (q.agg_expr.kind) {
      case sql::Expr::Kind::kColumn:
        os << (q.agg_func == sql::AggFunc::kMin   ? "MIN("
               : q.agg_func == sql::AggFunc::kMax ? "MAX("
                                                  : "SUM(")
           << a << "): 1 circuit pass, n="
           << pim::chunk_span(store.field(q.agg_expr.a), cfg) << "\n";
        break;
      case sql::Expr::Kind::kSub:
      case sql::Expr::Kind::kAdd:
        os << "SUM(" << a
           << (q.agg_expr.kind == sql::Expr::Kind::kSub ? " - " : " + ")
           << schema.attribute(q.agg_expr.b).name
           << "): 2 passes by linearity\n";
        break;
      case sql::Expr::Kind::kMul: {
        const std::string b = schema.attribute(q.agg_expr.b).name;
        const auto fa = store.field(q.agg_expr.a);
        const auto fb = store.field(q.agg_expr.b);
        const auto narrow = fa.width <= fb.width ? fa : fb;
        os << "SUM(" << a << " * " << b << "): " << narrow.width
           << " masked passes (one per multiplier bit) + 1 count pass\n";
        break;
      }
    }
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

std::string explain_scan(const std::vector<sql::BoundPredicate>& filters,
                         const PimStore& store) {
  std::ostringstream ss;
  explain_scan(filters, store, ss);
  return ss.str();
}

void explain_join_tree(const sql::BoundJoin& plan,
                       const std::vector<const rel::Table*>& tables,
                       std::ostream& os) {
  const auto attr_name = [&](std::size_t table, std::size_t attr) {
    return plan.table_names[table] + "." +
           tables[table]->schema().attribute(attr).name;
  };
  os << "== join plan: star over fact '" << plan.table_names[plan.fact]
     << "' (" << plan.table_names.size() << " tables) ==\n";
  for (const sql::BoundBuildSide& b : plan.builds) {
    os << "BUILD " << plan.table_names[b.table] << " (partitioned hash, "
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
  os << "PROBE " << plan.table_names[plan.fact] << " ("
     << tables[plan.fact]->row_count() << " rows, "
     << plan.filters[plan.fact].size() << " filter(s)): survivors cascade "
     << "through " << plan.builds.size() << " build side(s)\n";
  os << "AGGREGATE ";
  switch (plan.agg_func) {
    case sql::AggFunc::kSum: os << "SUM"; break;
    case sql::AggFunc::kMin: os << "MIN"; break;
    case sql::AggFunc::kMax: os << "MAX"; break;
    default: os << "COUNT"; break;
  }
  os << "(";
  if (plan.agg_func == sql::AggFunc::kCount) {
    os << "*";
  } else {
    os << attr_name(plan.agg_a.table, plan.agg_a.attr);
    if (plan.agg_kind == sql::Expr::Kind::kMul) os << " * ";
    if (plan.agg_kind == sql::Expr::Kind::kSub) os << " - ";
    if (plan.agg_kind == sql::Expr::Kind::kAdd) os << " + ";
    if (plan.agg_kind != sql::Expr::Kind::kColumn) {
      os << attr_name(plan.agg_b.table, plan.agg_b.attr);
    }
  }
  os << ") over joined rows";
  if (!plan.agg_alias.empty()) os << " AS " << plan.agg_alias;
  os << "\n";
  if (plan.has_group_by()) {
    os << "GROUP BY:";
    for (const sql::BoundColumnRef& g : plan.group_by) {
      os << " " << attr_name(g.table, g.attr);
    }
    os << "\n";
  }
}

}  // namespace bbpim::engine
