#include "sql/logical_plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace bbpim::sql {

bool BoundPredicate::matches(std::uint64_t value) const {
  switch (kind) {
    case Kind::kEq: return value == v1;
    case Kind::kLt: return value < v1;
    case Kind::kLe: return value <= v1;
    case Kind::kGt: return value > v1;
    case Kind::kGe: return value >= v1;
    case Kind::kBetween: return v1 <= value && value <= v2;
    case Kind::kIn:
      return std::find(in_values.begin(), in_values.end(), value) !=
             in_values.end();
    case Kind::kNever: return false;
    case Kind::kAlways: return true;
  }
  return false;
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("SQL bind error: " + what);
}

std::size_t resolve(const rel::Schema& schema, const std::string& name) {
  const auto idx = schema.index_of(name);
  if (idx) return *idx;
  // Qualified name against a single-table schema: the pre-joined relation
  // subsumes the logical source tables, so any qualifier resolves by its
  // column part.
  if (const auto dot = name.find('.'); dot != std::string::npos) {
    const auto suffix = schema.index_of(name.substr(dot + 1));
    if (suffix) return *suffix;
  }
  fail("unknown column '" + name + "'");
}

std::uint64_t domain_max(const rel::Attribute& a) {
  return a.bits >= 64 ? ~0ULL : (1ULL << a.bits) - 1;
}

/// Binds one literal against an attribute; returns nullopt when a string
/// literal has no code (callers turn that into kNever / range clamping).
std::optional<std::uint64_t> bind_exact_literal(const rel::Attribute& a,
                                                const Literal& lit) {
  if (a.type == rel::DataType::kInt) {
    if (lit.kind != Literal::Kind::kInt) {
      fail("string literal compared with integer column '" + a.name + "'");
    }
    if (lit.int_value < 0) return std::nullopt;
    return static_cast<std::uint64_t>(lit.int_value);
  }
  if (lit.kind != Literal::Kind::kString) {
    fail("integer literal compared with string column '" + a.name + "'");
  }
  return a.dict->code(lit.str_value);
}

BoundPredicate bind_cmp(const rel::Schema& schema, const Predicate& p) {
  BoundPredicate b;
  b.attr = resolve(schema, p.column);
  const rel::Attribute& a = schema.attribute(b.attr);

  if (a.type == rel::DataType::kInt) {
    if (p.v1.kind != Literal::Kind::kInt) {
      fail("string literal compared with integer column '" + a.name + "'");
    }
    const std::int64_t v = p.v1.int_value;
    if (v < 0) {
      // Unsigned domains: x < negative is never true; x >= negative always.
      const bool lower_ops = p.op == CmpOp::kLt || p.op == CmpOp::kLe ||
                             p.op == CmpOp::kEq;
      b.kind = lower_ops ? BoundPredicate::Kind::kNever
                         : BoundPredicate::Kind::kAlways;
      return b;
    }
    b.v1 = static_cast<std::uint64_t>(v);
    switch (p.op) {
      case CmpOp::kEq: b.kind = BoundPredicate::Kind::kEq; break;
      case CmpOp::kLt: b.kind = BoundPredicate::Kind::kLt; break;
      case CmpOp::kLe: b.kind = BoundPredicate::Kind::kLe; break;
      case CmpOp::kGt: b.kind = BoundPredicate::Kind::kGt; break;
      case CmpOp::kGe: b.kind = BoundPredicate::Kind::kGe; break;
    }
    return b;
  }

  // String column: range semantics via the order-preserving dictionary.
  if (p.v1.kind != Literal::Kind::kString) {
    fail("integer literal compared with string column '" + a.name + "'");
  }
  const rel::Dictionary& dict = *a.dict;
  const std::uint64_t n = dict.size();
  switch (p.op) {
    case CmpOp::kEq: {
      const auto code = dict.code(p.v1.str_value);
      if (!code) {
        b.kind = BoundPredicate::Kind::kNever;
      } else {
        b.kind = BoundPredicate::Kind::kEq;
        b.v1 = *code;
      }
      return b;
    }
    case CmpOp::kLt: {
      const std::uint64_t lb = dict.code_lower_bound(p.v1.str_value);
      if (lb == 0) {
        b.kind = BoundPredicate::Kind::kNever;
      } else {
        b.kind = BoundPredicate::Kind::kLt;
        b.v1 = lb;
      }
      return b;
    }
    case CmpOp::kLe: {
      const std::uint64_t ub = dict.code_upper_bound(p.v1.str_value);
      if (ub == 0) {
        b.kind = BoundPredicate::Kind::kNever;
      } else if (ub >= n) {
        b.kind = BoundPredicate::Kind::kAlways;
      } else {
        b.kind = BoundPredicate::Kind::kLt;
        b.v1 = ub;
      }
      return b;
    }
    case CmpOp::kGt: {
      const std::uint64_t ub = dict.code_upper_bound(p.v1.str_value);
      if (ub >= n) {
        b.kind = BoundPredicate::Kind::kNever;
      } else {
        b.kind = BoundPredicate::Kind::kGe;
        b.v1 = ub;
      }
      return b;
    }
    case CmpOp::kGe: {
      const std::uint64_t lb = dict.code_lower_bound(p.v1.str_value);
      if (lb >= n) {
        b.kind = BoundPredicate::Kind::kNever;
      } else if (lb == 0) {
        b.kind = BoundPredicate::Kind::kAlways;
      } else {
        b.kind = BoundPredicate::Kind::kGe;
        b.v1 = lb;
      }
      return b;
    }
  }
  fail("unreachable comparison");
}

BoundPredicate bind_between(const rel::Schema& schema, const Predicate& p) {
  BoundPredicate b;
  b.attr = resolve(schema, p.column);
  const rel::Attribute& a = schema.attribute(b.attr);

  std::uint64_t lo = 0, hi = 0;
  if (a.type == rel::DataType::kInt) {
    if (p.v1.kind != Literal::Kind::kInt || p.v2.kind != Literal::Kind::kInt) {
      fail("BETWEEN bounds must be integers for column '" + a.name + "'");
    }
    if (p.v2.int_value < 0 || p.v2.int_value < p.v1.int_value) {
      b.kind = BoundPredicate::Kind::kNever;
      return b;
    }
    lo = p.v1.int_value < 0 ? 0 : static_cast<std::uint64_t>(p.v1.int_value);
    hi = static_cast<std::uint64_t>(p.v2.int_value);
  } else {
    if (p.v1.kind != Literal::Kind::kString ||
        p.v2.kind != Literal::Kind::kString) {
      fail("BETWEEN bounds must be strings for column '" + a.name + "'");
    }
    const rel::Dictionary& dict = *a.dict;
    const std::uint64_t lb = dict.code_lower_bound(p.v1.str_value);
    const std::uint64_t ub = dict.code_upper_bound(p.v2.str_value);
    if (lb >= ub) {
      b.kind = BoundPredicate::Kind::kNever;
      return b;
    }
    lo = lb;
    hi = ub - 1;
  }
  if (lo == 0 && hi >= domain_max(a)) {
    b.kind = BoundPredicate::Kind::kAlways;
  } else {
    b.kind = BoundPredicate::Kind::kBetween;
    b.v1 = lo;
    b.v2 = hi;
  }
  return b;
}

BoundPredicate bind_in(const rel::Schema& schema, const Predicate& p) {
  BoundPredicate b;
  b.attr = resolve(schema, p.column);
  const rel::Attribute& a = schema.attribute(b.attr);
  for (const Literal& lit : p.in_list) {
    const auto code = bind_exact_literal(a, lit);
    if (code) b.in_values.push_back(*code);
  }
  std::sort(b.in_values.begin(), b.in_values.end());
  b.in_values.erase(std::unique(b.in_values.begin(), b.in_values.end()),
                    b.in_values.end());
  if (b.in_values.empty()) {
    b.kind = BoundPredicate::Kind::kNever;
  } else if (b.in_values.size() == 1) {
    b.kind = BoundPredicate::Kind::kEq;
    b.v1 = b.in_values[0];
    b.in_values.clear();
  } else {
    b.kind = BoundPredicate::Kind::kIn;
  }
  return b;
}

/// One comparison, BETWEEN or IN predicate; join predicates are the
/// callers' business.
BoundPredicate bind_predicate(const rel::Schema& schema, const Predicate& p) {
  switch (p.kind) {
    case Predicate::Kind::kCmp: return bind_cmp(schema, p);
    case Predicate::Kind::kBetween: return bind_between(schema, p);
    case Predicate::Kind::kIn: return bind_in(schema, p);
    case Predicate::Kind::kJoinEq: break;
  }
  fail("unreachable filter kind");
}

// ---- multi-table resolution ------------------------------------------------

/// Resolves an (optionally qualified) column against the FROM list.
BoundColumnRef resolve_multi(const std::vector<JoinTableRef>& tables,
                             const std::string& name) {
  if (const auto dot = name.find('.'); dot != std::string::npos) {
    const std::string tbl = name.substr(0, dot);
    const std::string col = name.substr(dot + 1);
    for (std::size_t t = 0; t < tables.size(); ++t) {
      if (tables[t].name != tbl) continue;
      const auto idx = tables[t].schema->index_of(col);
      if (!idx) fail("unknown column '" + col + "' in table '" + tbl + "'");
      return {t, *idx};
    }
    fail("unknown table '" + tbl + "' in column reference '" + name + "'");
  }
  std::optional<BoundColumnRef> found;
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const auto idx = tables[t].schema->index_of(name);
    if (!idx) continue;
    if (found) {
      fail("ambiguous column '" + name + "': present in tables '" +
           tables[found->table].name + "' and '" + tables[t].name +
           "' — qualify it as <table>." + name);
    }
    found = BoundColumnRef{t, *idx};
  }
  if (!found) fail("unknown column '" + name + "' in any FROM table");
  return *found;
}

/// Binds one non-join WHERE predicate against the table its column lives
/// in; reports that table via `table_out`. Reuses the single-table literal
/// folding by rewriting the (possibly qualified) name to the plain
/// attribute name, which is unique within one schema.
BoundPredicate bind_filter(const std::vector<JoinTableRef>& tables,
                           const Predicate& p, std::size_t* table_out) {
  const BoundColumnRef ref = resolve_multi(tables, p.column);
  const rel::Schema& schema = *tables[ref.table].schema;
  Predicate local = p;
  local.column = schema.attribute(ref.attr).name;
  *table_out = ref.table;
  return bind_predicate(schema, local);
}

/// Binds GROUP BY, the SELECT list and ORDER BY into `out`, resolving every
/// column name through `resolve`. The SELECT list takes exactly one
/// aggregate and plain columns must be grouped; ORDER BY takes the
/// aggregate's alias or a GROUP BY column.
template <class Ref, class Resolve>
void bind_tail(const SelectStmt& stmt, Resolve&& resolve,
               AggregateTail<Ref>& out) {
  for (const std::string& col : stmt.group_by) {
    out.group_by.push_back(resolve(col));
  }

  bool have_agg = false;
  for (const SelectItem& item : stmt.items) {
    if (item.func == AggFunc::kNone) {
      const Ref ref = resolve(item.expr.col_a);
      if (std::find(out.group_by.begin(), out.group_by.end(), ref) ==
          out.group_by.end()) {
        fail("column '" + item.expr.col_a + "' is not in GROUP BY");
      }
      continue;
    }
    if (have_agg) fail("only one aggregate per query is supported");
    have_agg = true;
    out.agg_func = item.func;
    out.agg_alias = item.alias;
    if (item.func == AggFunc::kCount && item.expr.col_a.empty()) {
      out.agg_expr.kind = Expr::Kind::kColumn;  // COUNT(*): operands unused
    } else {
      out.agg_expr.kind = item.expr.kind;
      out.agg_expr.a = resolve(item.expr.col_a);
      if (item.expr.kind != Expr::Kind::kColumn) {
        out.agg_expr.b = resolve(item.expr.col_b);
      }
    }
  }
  if (!have_agg) fail("query must contain an aggregate");

  for (const OrderItem& item : stmt.order_by) {
    BoundOrderItem bo;
    bo.desc = item.desc;
    if (!out.agg_alias.empty() && item.column == out.agg_alias) {
      bo.is_agg = true;
    } else {
      const Ref ref = resolve(item.column);
      const auto it = std::find(out.group_by.begin(), out.group_by.end(), ref);
      if (it == out.group_by.end()) {
        fail("ORDER BY column '" + item.column + "' is not in GROUP BY");
      }
      bo.group_pos = static_cast<std::size_t>(it - out.group_by.begin());
    }
    out.order_by.push_back(bo);
  }
}

}  // namespace

BoundQuery bind(const SelectStmt& stmt, const rel::Schema& schema) {
  BoundQuery q;
  for (const Predicate& p : stmt.where) {
    if (p.kind != Predicate::Kind::kJoinEq) {
      q.filters.push_back(bind_predicate(schema, p));
    }
  }
  bind_tail(
      stmt, [&](const std::string& name) { return resolve(schema, name); }, q);
  return q;
}

BoundUpdate bind_update(const UpdateStmt& stmt, const rel::Schema& schema) {
  BoundUpdate u;
  u.attr = resolve(schema, stmt.column);
  const rel::Attribute& a = schema.attribute(u.attr);

  // SET value through the attribute's encoding. Unlike WHERE literals —
  // where an absent dictionary value folds to kNever — an unencodable SET
  // value is an error: writing it would produce records no decode can read.
  if (a.type == rel::DataType::kInt) {
    if (stmt.value.kind != Literal::Kind::kInt) {
      fail("string value assigned to integer column '" + a.name + "'");
    }
    if (stmt.value.int_value < 0 ||
        static_cast<std::uint64_t>(stmt.value.int_value) > domain_max(a)) {
      fail("value " + std::to_string(stmt.value.int_value) +
           " outside the domain of column '" + a.name + "'");
    }
    u.value = static_cast<std::uint64_t>(stmt.value.int_value);
  } else {
    if (stmt.value.kind != Literal::Kind::kString) {
      fail("integer value assigned to string column '" + a.name + "'");
    }
    const auto code = a.dict->code(stmt.value.str_value);
    if (!code) {
      fail("value '" + stmt.value.str_value +
           "' has no dictionary code for column '" + a.name + "'");
    }
    u.value = *code;
  }

  for (const Predicate& p : stmt.where) {
    if (p.kind == Predicate::Kind::kJoinEq) {
      fail("UPDATE does not support join predicates");
    }
    u.filters.push_back(bind_predicate(schema, p));
  }
  return u;
}

BoundJoin bind_join(const SelectStmt& stmt,
                    const std::vector<JoinTableRef>& tables) {
  if (tables.size() < 2) fail("join binding needs at least two tables");
  for (std::size_t i = 0; i < tables.size(); ++i) {
    for (std::size_t j = i + 1; j < tables.size(); ++j) {
      if (tables[i].name == tables[j].name) {
        fail("duplicate table '" + tables[i].name +
             "' in FROM: self-joins are not supported");
      }
    }
  }

  BoundJoin q;
  q.filters.resize(tables.size());
  for (const JoinTableRef& t : tables) q.table_names.push_back(t.name);

  // Split the WHERE conjunction into per-table filters and join key pairs.
  struct KeyPair {
    BoundColumnRef left, right;
  };
  std::vector<KeyPair> keys;
  for (const Predicate& p : stmt.where) {
    if (p.kind != Predicate::Kind::kJoinEq) {
      std::size_t t = 0;
      BoundPredicate b = bind_filter(tables, p, &t);
      q.filters[t].push_back(b);
      continue;
    }
    const BoundColumnRef l = resolve_multi(tables, p.column);
    const BoundColumnRef r = resolve_multi(tables, p.join_right);
    if (l.table == r.table) {
      fail("join predicate '" + p.column + " = " + p.join_right +
           "' relates two columns of table '" + tables[l.table].name + "'");
    }
    const rel::Attribute& la = tables[l.table].schema->attribute(l.attr);
    const rel::Attribute& ra = tables[r.table].schema->attribute(r.attr);
    // Codes only compare as values when the encodings agree: integers
    // directly, strings through one shared dictionary.
    if (la.type != ra.type ||
        (la.type == rel::DataType::kString && la.dict != ra.dict)) {
      fail("join keys '" + p.column + "' and '" + p.join_right +
           "' have incomparable encodings");
    }
    keys.push_back({l, r});
  }
  if (keys.empty()) {
    fail("multi-table query has no join predicate: cross joins are not "
         "supported");
  }

  // Fact = the table every join predicate touches (star shape); on a tie
  // (two tables, one join pair) the larger relation probes.
  std::vector<std::size_t> touched(tables.size(), 0);
  for (const KeyPair& k : keys) {
    ++touched[k.left.table];
    ++touched[k.right.table];
  }
  std::size_t fact = tables.size();
  for (std::size_t t = 0; t < tables.size(); ++t) {
    if (touched[t] != keys.size()) continue;
    if (fact == tables.size() ||
        tables[t].row_count > tables[fact].row_count) {
      fact = t;
    }
  }
  if (fact == tables.size()) {
    fail("only star-shaped join graphs are supported (one fact table "
         "equi-joined to every dimension)");
  }
  q.fact = fact;

  // Group key pairs per dimension (composite keys), first-appearance order.
  for (const KeyPair& k : keys) {
    const BoundColumnRef fact_side = k.left.table == fact ? k.left : k.right;
    const BoundColumnRef dim_side = k.left.table == fact ? k.right : k.left;
    BoundBuildSide* build = nullptr;
    for (BoundBuildSide& b : q.builds) {
      if (b.table == dim_side.table) build = &b;
    }
    if (build == nullptr) {
      q.builds.push_back({dim_side.table, {}, {}});
      build = &q.builds.back();
    }
    build->fact_attrs.push_back(fact_side.attr);
    build->dim_attrs.push_back(dim_side.attr);
  }
  for (std::size_t t = 0; t < tables.size(); ++t) {
    if (t == fact) continue;
    const bool joined =
        std::any_of(q.builds.begin(), q.builds.end(),
                    [&](const BoundBuildSide& b) { return b.table == t; });
    if (!joined) {
      fail("table '" + tables[t].name + "' has no join predicate connecting "
           "it to fact '" + tables[fact].name +
           "': cross joins are not supported");
    }
  }
  // Probe order: most-filtered dimensions first so fact survivors fall out
  // of the probe cascade early; ties go to the smaller build side.
  std::stable_sort(q.builds.begin(), q.builds.end(),
                   [&](const BoundBuildSide& a, const BoundBuildSide& b) {
                     const std::size_t fa = q.filters[a.table].size();
                     const std::size_t fb = q.filters[b.table].size();
                     if (fa != fb) return fa > fb;
                     return tables[a.table].row_count <
                            tables[b.table].row_count;
                   });

  bind_tail(
      stmt,
      [&](const std::string& name) { return resolve_multi(tables, name); },
      q);
  return q;
}

}  // namespace bbpim::sql
