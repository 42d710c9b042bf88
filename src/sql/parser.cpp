#include "sql/parser.hpp"

#include <stdexcept>

#include "sql/lexer.hpp"

namespace bbpim::sql {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view sql) : toks_(lex(sql)) {}

  SelectStmt parse_select() {
    expect_keyword("SELECT");
    SelectStmt stmt;
    stmt.items.push_back(parse_item());
    while (accept(TokKind::kComma)) stmt.items.push_back(parse_item());

    expect_keyword("FROM");
    stmt.from.push_back(expect_ident());
    while (accept(TokKind::kComma)) stmt.from.push_back(expect_ident());

    if (accept_keyword("WHERE")) {
      stmt.where.push_back(parse_predicate());
      while (accept_keyword("AND")) stmt.where.push_back(parse_predicate());
    }
    if (accept_keyword("GROUP")) {
      expect_keyword("BY");
      stmt.group_by.push_back(expect_column());
      while (accept(TokKind::kComma)) stmt.group_by.push_back(expect_column());
    }
    if (accept_keyword("ORDER")) {
      expect_keyword("BY");
      stmt.order_by.push_back(parse_order_col());
      while (accept(TokKind::kComma)) stmt.order_by.push_back(parse_order_col());
    }
    accept(TokKind::kSemi);
    if (cur().kind != TokKind::kEnd) fail("trailing tokens");
    return stmt;
  }

  UpdateStmt parse_update() {
    expect_keyword("UPDATE");
    UpdateStmt stmt;
    stmt.table = expect_ident();
    expect_keyword("SET");
    stmt.column = expect_ident();
    expect(TokKind::kEq, "'='");
    stmt.value = parse_literal();
    if (accept_keyword("WHERE")) {
      stmt.where.push_back(parse_predicate());
      while (accept_keyword("AND")) stmt.where.push_back(parse_predicate());
    }
    accept(TokKind::kSemi);
    if (cur().kind != TokKind::kEnd) fail("trailing tokens");
    return stmt;
  }

  bool starts_update() const {
    return cur().kind == TokKind::kKeyword && cur().text == "UPDATE";
  }

 private:
  const Token& cur() const { return toks_[pos_]; }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("SQL parse error at offset " +
                                std::to_string(cur().pos) + ": " + what);
  }

  bool accept(TokKind k) {
    if (cur().kind == k) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool accept_keyword(std::string_view kw) {
    if (cur().kind == TokKind::kKeyword && cur().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(TokKind k, const char* what) {
    if (!accept(k)) fail(std::string("expected ") + what);
  }

  void expect_keyword(std::string_view kw) {
    if (!accept_keyword(kw)) fail("expected keyword " + std::string(kw));
  }

  std::string expect_ident() {
    if (cur().kind != TokKind::kIdent) fail("expected identifier");
    return toks_[pos_++].text;
  }

  // Column reference, optionally qualified: `col` or `table.col`, stored as
  // one dotted name (binders split on the dot).
  std::string expect_column() {
    std::string name = expect_ident();
    if (accept(TokKind::kDot)) {
      name += '.';
      name += expect_ident();
    }
    return name;
  }

  OrderItem parse_order_col() {
    OrderItem item;
    item.column = expect_column();
    if (!accept_keyword("ASC") && accept_keyword("DESC")) item.desc = true;
    return item;
  }

  SelectItem parse_item() {
    SelectItem item;
    if (cur().kind == TokKind::kKeyword &&
        (cur().text == "SUM" || cur().text == "MIN" || cur().text == "MAX" ||
         cur().text == "COUNT")) {
      const std::string fn = toks_[pos_++].text;
      item.func = fn == "SUM"   ? AggFunc::kSum
                  : fn == "MIN" ? AggFunc::kMin
                  : fn == "MAX" ? AggFunc::kMax
                                : AggFunc::kCount;
      expect(TokKind::kLParen, "'('");
      if (item.func == AggFunc::kCount && accept(TokKind::kStar)) {
        item.expr.kind = Expr::Kind::kColumn;
        item.expr.col_a.clear();  // COUNT(*)
      } else {
        item.expr = parse_expr();
      }
      expect(TokKind::kRParen, "')'");
    } else {
      item.expr.kind = Expr::Kind::kColumn;
      item.expr.col_a = expect_column();
    }
    if (accept_keyword("AS")) item.alias = expect_ident();
    return item;
  }

  Expr parse_expr() {
    Expr e;
    e.col_a = expect_column();
    if (accept(TokKind::kStar)) {
      e.kind = Expr::Kind::kMul;
      e.col_b = expect_column();
    } else if (accept(TokKind::kMinus)) {
      e.kind = Expr::Kind::kSub;
      e.col_b = expect_column();
    } else if (accept(TokKind::kPlus)) {
      e.kind = Expr::Kind::kAdd;
      e.col_b = expect_column();
    } else {
      e.kind = Expr::Kind::kColumn;
    }
    return e;
  }

  Literal parse_literal() {
    if (cur().kind == TokKind::kInt) {
      return Literal::of_int(toks_[pos_++].int_value);
    }
    if (cur().kind == TokKind::kString) {
      return Literal::of_string(toks_[pos_++].text);
    }
    fail("expected literal");
  }

  static CmpOp flip(CmpOp op) {
    switch (op) {
      case CmpOp::kLt: return CmpOp::kGt;
      case CmpOp::kLe: return CmpOp::kGe;
      case CmpOp::kGt: return CmpOp::kLt;
      case CmpOp::kGe: return CmpOp::kLe;
      case CmpOp::kEq: return CmpOp::kEq;
    }
    return CmpOp::kEq;
  }

  bool peek_cmp(CmpOp* op) const {
    switch (cur().kind) {
      case TokKind::kEq: *op = CmpOp::kEq; return true;
      case TokKind::kLt: *op = CmpOp::kLt; return true;
      case TokKind::kLe: *op = CmpOp::kLe; return true;
      case TokKind::kGt: *op = CmpOp::kGt; return true;
      case TokKind::kGe: *op = CmpOp::kGe; return true;
      default: return false;
    }
  }

  Predicate parse_predicate() {
    Predicate p;
    // Literal-first comparison: 10 <= lo_quantity
    if (cur().kind == TokKind::kInt || cur().kind == TokKind::kString) {
      const Literal lit = parse_literal();
      CmpOp op;
      if (!peek_cmp(&op)) fail("expected comparison operator");
      ++pos_;
      p.kind = Predicate::Kind::kCmp;
      p.column = expect_column();
      p.op = flip(op);
      p.v1 = lit;
      return p;
    }

    p.column = expect_column();
    if (accept_keyword("BETWEEN")) {
      p.kind = Predicate::Kind::kBetween;
      p.v1 = parse_literal();
      expect_keyword("AND");
      p.v2 = parse_literal();
      return p;
    }
    if (accept_keyword("IN")) {
      p.kind = Predicate::Kind::kIn;
      expect(TokKind::kLParen, "'('");
      p.in_list.push_back(parse_literal());
      while (accept(TokKind::kComma)) p.in_list.push_back(parse_literal());
      expect(TokKind::kRParen, "')'");
      return p;
    }
    CmpOp op;
    if (!peek_cmp(&op)) fail("expected comparison operator");
    ++pos_;
    if (cur().kind == TokKind::kIdent) {
      // column = column -> join predicate (SSB only joins with equality)
      if (op != CmpOp::kEq) fail("only equality joins are supported");
      p.kind = Predicate::Kind::kJoinEq;
      p.join_right = expect_column();
      return p;
    }
    p.kind = Predicate::Kind::kCmp;
    p.op = op;
    p.v1 = parse_literal();
    return p;
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

}  // namespace

SelectStmt parse(std::string_view sql) { return Parser(sql).parse_select(); }

Statement parse_statement(std::string_view sql) {
  Parser parser(sql);
  Statement stmt;
  if (parser.starts_update()) {
    stmt.kind = Statement::Kind::kUpdate;
    stmt.update = parser.parse_update();
  } else {
    stmt.kind = Statement::Kind::kSelect;
    stmt.select = parser.parse_select();
  }
  return stmt;
}

}  // namespace bbpim::sql
