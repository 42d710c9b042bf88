// Recursive-descent parser for the SSB SQL subset.
#pragma once

#include <string_view>

#include "sql/ast.hpp"

namespace bbpim::sql {

/// Parses one SELECT statement; throws std::invalid_argument with offset
/// information on syntax errors (including for UPDATE input — callers that
/// accept both kinds use parse_statement).
SelectStmt parse(std::string_view sql);

/// Parses either statement kind, dispatching on the leading keyword: a
/// SELECT, or UPDATE <table> SET <col> = <literal> [WHERE ...].
Statement parse_statement(std::string_view sql);

}  // namespace bbpim::sql
