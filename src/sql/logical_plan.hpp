// Binding SQL to a schema: the logical query plan.
//
// The binder resolves column names against a relation schema (for the PIM
// engine that is always the pre-joined relation), folds string literals to
// order-preserving dictionary codes, and normalizes predicates so that the
// back-ends (PIM filter compiler, columnar baseline, reference executor)
// share one representation. Join-equality predicates are carried separately:
// the pre-joined engines drop them (the join is materialized), the star-
// schema baseline uses them to plan hash joins.
//
// `bind_join` is the multi-table binder: it resolves (optionally qualified)
// columns against a FROM list of registered tables, splits the WHERE
// conjunction into per-table filter sets plus equi-join key pairs, and emits
// a star join tree — build hash tables on the filtered dimensions, probe
// with fact survivors (engine/hash_join executes it on the host over
// per-table PIM scan results).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "relational/schema.hpp"
#include "sql/ast.hpp"

namespace bbpim::sql {

/// A normalized single-attribute predicate over dictionary codes.
struct BoundPredicate {
  enum class Kind : std::uint8_t {
    kEq,
    kLt,
    kLe,
    kGt,
    kGe,
    kBetween,  ///< v1 <= x <= v2
    kIn,
    kNever,    ///< statically false (e.g. literal outside the dictionary)
    kAlways,   ///< statically true  (e.g. BETWEEN spanning the whole domain)
  };
  Kind kind = Kind::kAlways;
  std::size_t attr = 0;
  std::uint64_t v1 = 0;
  std::uint64_t v2 = 0;
  std::vector<std::uint64_t> in_values;

  /// Evaluates against a record's attribute code (reference semantics that
  /// the PIM micro-programs are tested against).
  bool matches(std::uint64_t value) const;
};

/// The aggregated expression: a column, a product, a difference or a sum.
/// `Ref` names a column: an attribute index for one table, a
/// BoundColumnRef for a join.
template <class Ref>
struct AggExprOf {
  Expr::Kind kind = Expr::Kind::kColumn;
  Ref a{};
  Ref b{};  // kMul/kSub/kAdd only

  /// Exact evaluation over attribute codes.
  std::uint64_t eval(std::uint64_t va, std::uint64_t vb) const {
    switch (kind) {
      case Expr::Kind::kColumn: return va;
      case Expr::Kind::kMul: return va * vb;
      case Expr::Kind::kSub: return va - vb;
      case Expr::Kind::kAdd: return va + vb;
    }
    return va;
  }
};
using BoundAggExpr = AggExprOf<std::size_t>;

/// ORDER BY item: a group column (by index) or the aggregate value.
struct BoundOrderItem {
  bool is_agg = false;
  std::size_t group_pos = 0;  ///< position within group_by (not attr index)
  bool desc = false;
};

/// The aggregate tail of a SELECT, bound by one routine for both binders:
/// GROUP BY columns, the one aggregate, and ORDER BY.
template <class Ref>
struct AggregateTail {
  std::vector<Ref> group_by;
  AggFunc agg_func = AggFunc::kSum;
  AggExprOf<Ref> agg_expr;  ///< unused for COUNT(*)
  std::string agg_alias;
  std::vector<BoundOrderItem> order_by;

  bool has_group_by() const { return !group_by.empty(); }
};

struct BoundQuery : AggregateTail<std::size_t> {
  std::vector<BoundPredicate> filters;  ///< conjunction
};

/// Binds a parsed statement against the (pre-joined) schema.
/// Throws std::invalid_argument for unknown columns, type mismatches, more
/// than one aggregate, or aggregates mixed with non-grouped columns.
BoundQuery bind(const SelectStmt& stmt, const rel::Schema& schema);

/// A bound UPDATE: the target attribute, the new value as an attribute code,
/// and the WHERE conjunction in the same normalized form SELECTs use. This
/// is the unit the db facade's per-table update log stores and replays, so
/// it must be self-contained and schema-relative (no table pointers).
struct BoundUpdate {
  std::size_t attr = 0;
  std::uint64_t value = 0;  ///< encoded (dictionary code for strings)
  std::vector<BoundPredicate> filters;  ///< conjunction
};

/// Binds an UPDATE against the schema. The SET value is validated through
/// the attribute's encoding: a string with no dictionary code, a negative
/// integer, or an integer outside the attribute's packed-bit domain is
/// rejected with std::invalid_argument — never silently written as an
/// undecodable record. Join predicates in the WHERE clause are rejected.
BoundUpdate bind_update(const UpdateStmt& stmt, const rel::Schema& schema);

/// One table of a multi-table FROM list as the join binder sees it.
struct JoinTableRef {
  std::string name;
  const rel::Schema* schema = nullptr;
  std::size_t row_count = 0;  ///< fact detection: the larger relation probes
};

/// A column resolved against the FROM list: (table position, attr index).
struct BoundColumnRef {
  std::size_t table = 0;
  std::size_t attr = 0;
  bool operator==(const BoundColumnRef&) const = default;
};

/// One build side of the star join: a dimension with the key attribute
/// pairs connecting it to the fact (composite keys keep the vectors
/// aligned: fact_attrs[i] probes dim_attrs[i]).
struct BoundBuildSide {
  std::size_t table = 0;  ///< dimension position in the FROM list
  std::vector<std::size_t> fact_attrs;
  std::vector<std::size_t> dim_attrs;
};

/// A bound multi-table star query: per-table filter conjunctions (each in
/// the same BoundPredicate form the PIM filter compiler consumes), the join
/// tree, and grouping/aggregation/ordering over joined rows.
struct BoundJoin : AggregateTail<BoundColumnRef> {
  std::vector<std::string> table_names;  ///< FROM order, aligned with filters
  std::vector<std::vector<BoundPredicate>> filters;
  std::size_t fact = 0;                ///< probe side
  std::vector<BoundBuildSide> builds;  ///< probe order: most filtered first
};

/// Binds a multi-table SELECT against the FROM list. Unqualified columns
/// resolve by schema search (ambiguity across tables is an error; qualify
/// as table.column); join predicates must form a star — one fact table
/// equi-joined to every dimension. Throws std::invalid_argument with a
/// "SQL bind error:" message otherwise (unknown qualifier, ambiguous or
/// unknown column, same-table or non-star join, cross join, incomparable
/// key types, self-join via duplicate FROM entries).
BoundJoin bind_join(const SelectStmt& stmt,
                    const std::vector<JoinTableRef>& tables);

}  // namespace bbpim::sql
