// PreparedStatement: parse/bind once, execute many times.
//
// A cheap copyable handle over an immutable plan in the session's cache
// (keyed by SQL text). Re-execution skips the front-end entirely; the
// simulator is deterministic, so re-running a statement reproduces rows
// and stats exactly. A plan is either a SELECT (bound query) or an UPDATE
// (bound mutation); executing an UPDATE returns an UpdateStats-backed
// ResultSet and advances the target table's data version.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "db/backend.hpp"
#include "db/result_set.hpp"
#include "engine/query_exec.hpp"
#include "relational/table.hpp"
#include "sql/ast.hpp"
#include "sql/logical_plan.hpp"

namespace bbpim::db {

class Session;

/// A parsed and bound statement pinned to its target relation(s). Immutable
/// and shared between the Database-scope plan cache and every statement
/// handle.
struct Plan {
  std::string sql;
  sql::Statement::Kind kind = sql::Statement::Kind::kSelect;
  sql::BoundQuery bound;        ///< single-table kSelect only
  sql::BoundUpdate update;      ///< kUpdate only
  const rel::Table* target = nullptr;  ///< single-table target / join fact

  /// Multi-table SELECT over registered tables: the star join plan and the
  /// catalog tables it touches, aligned with join.table_names. Empty for
  /// single-table plans.
  sql::BoundJoin join;
  std::vector<const rel::Table*> join_tables;

  bool is_join() const { return !join_tables.empty(); }
};

class PreparedStatement {
 public:
  PreparedStatement() = default;

  /// Executes on `backend`. UPDATE statements require a PIM backend (the
  /// host baselines read the immutable catalog table and cannot observe
  /// crossbar mutation).
  ResultSet execute(BackendKind backend = BackendKind::kOneXb,
                    const engine::ExecOptions& opts = {}) const;

  const std::string& sql() const { return plan().sql; }
  bool is_update() const {
    return plan().kind == sql::Statement::Kind::kUpdate;
  }
  /// Multi-table SELECT bound through the join planner?
  bool is_join() const { return plan().is_join(); }
  /// Bound single-table SELECT; throws std::logic_error for UPDATE and
  /// multi-table statements.
  const sql::BoundQuery& bound() const {
    if (is_update()) {
      throw std::logic_error("PreparedStatement::bound: UPDATE statement");
    }
    if (is_join()) {
      throw std::logic_error(
          "PreparedStatement::bound: multi-table statement (use join())");
    }
    return plan().bound;
  }
  /// Bound join plan; throws std::logic_error for single-table statements.
  const sql::BoundJoin& join() const {
    if (!is_join()) {
      throw std::logic_error("PreparedStatement::join: single-table statement");
    }
    return plan().join;
  }
  /// Bound UPDATE; throws std::logic_error for SELECT statements.
  const sql::BoundUpdate& bound_update() const {
    if (!is_update()) {
      throw std::logic_error(
          "PreparedStatement::bound_update: SELECT statement");
    }
    return plan().update;
  }
  const rel::Table& target() const { return *plan().target; }

 private:
  friend class Session;

  const Plan& plan() const {
    if (plan_ == nullptr) {
      throw std::logic_error("PreparedStatement: not prepared by a session");
    }
    return *plan_;
  }
  PreparedStatement(Session& session, std::shared_ptr<const Plan> plan)
      : session_(&session), plan_(std::move(plan)) {}

  Session* session_ = nullptr;
  std::shared_ptr<const Plan> plan_;
};

}  // namespace bbpim::db
