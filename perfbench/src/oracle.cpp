#include "oracle.hpp"

#include <algorithm>

#include "baseline/reference.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// Attributes the reference executor reads for `q`, in first-use order.
std::vector<std::size_t> read_attrs(const bbpim::sql::BoundQuery& q) {
  std::vector<std::size_t> attrs;
  const auto add = [&](std::size_t a) {
    if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
      attrs.push_back(a);
    }
  };
  for (const auto& p : q.filters) add(p.attr);
  for (const std::size_t a : q.group_by) add(a);
  if (q.agg_func != bbpim::sql::AggFunc::kCount) {
    add(q.agg_expr.a);
    if (q.agg_expr.kind != bbpim::sql::Expr::Kind::kColumn) add(q.agg_expr.b);
  }
  return attrs;
}

}  // namespace

std::uint64_t row_digest(const std::vector<bbpim::engine::ResultRow>& rows) {
  std::uint64_t h = kFnvBasis;
  for (const auto& row : rows) {
    for (const std::uint64_t g : row.group) h = fnv(h, g);
    h = fnv(h, static_cast<std::uint64_t>(row.agg));
  }
  return fnv(h, rows.size());
}

std::uint64_t FoldOracle::value(std::size_t row, std::size_t attr) const {
  const auto it = folded_.find(attr);
  return it != folded_.end() ? it->second[row] : table_->value(row, attr);
}

std::size_t FoldOracle::apply(const bbpim::sql::BoundUpdate& update) {
  std::vector<std::uint64_t>& column =
      folded_.try_emplace(update.attr, table_->column(update.attr))
          .first->second;
  std::size_t matched = 0;
  for (std::size_t r = 0; r < table_->row_count(); ++r) {
    bool pass = true;
    for (const auto& p : update.filters) {
      if (p.kind == bbpim::sql::BoundPredicate::Kind::kAlways) continue;
      if (!p.matches(value(r, p.attr))) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    column[r] = update.value;
    ++matched;
  }
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t v : column) h = fnv(h, v);
  folded_hash_[update.attr] = h;
  ++version_;
  return matched;
}

std::uint64_t FoldOracle::digest(const std::string& text,
                                 const bbpim::sql::BoundQuery& q) {
  const std::vector<std::size_t> attrs = read_attrs(q);
  std::uint64_t state = kFnvBasis;
  for (const std::size_t a : attrs) {
    if (const auto it = folded_hash_.find(a); it != folded_hash_.end()) {
      state = fnv(fnv(state, a), it->second);
    }
  }
  const auto [memo, fresh] = memo_.try_emplace({text, state}, 0);
  if (!fresh) return memo->second;

  // Evaluate on a projection holding only the columns `q` reads, at their
  // folded values, with the query's attribute indices remapped to it.
  std::vector<bbpim::rel::Attribute> schema;
  for (const std::size_t a : attrs) {
    schema.push_back(table_->schema().attribute(a));
  }
  bbpim::rel::Table projected(bbpim::rel::Schema(std::move(schema)));
  projected.reserve(table_->row_count());
  std::vector<std::uint64_t> row(attrs.size());
  for (std::size_t r = 0; r < table_->row_count(); ++r) {
    for (std::size_t k = 0; k < attrs.size(); ++k) row[k] = value(r, attrs[k]);
    projected.append_row(row);
  }
  const auto index_of = [&](std::size_t a) -> std::size_t {
    const auto it = std::find(attrs.begin(), attrs.end(), a);
    return it == attrs.end() ? 0 : static_cast<std::size_t>(it - attrs.begin());
  };
  bbpim::sql::BoundQuery local = q;
  for (auto& p : local.filters) p.attr = index_of(p.attr);
  for (std::size_t& a : local.group_by) a = index_of(a);
  local.agg_expr.a = index_of(local.agg_expr.a);
  local.agg_expr.b = index_of(local.agg_expr.b);

  memo->second =
      row_digest(bbpim::baseline::scan_execute(projected, local).rows);
  return memo->second;
}

std::uint64_t FoldOracle::contents_checksum() const {
  const std::size_t nattrs = table_->schema().attribute_count();
  std::vector<const std::vector<std::uint64_t>*> columns(nattrs);
  for (std::size_t a = 0; a < nattrs; ++a) {
    const auto it = folded_.find(a);
    columns[a] = it != folded_.end() ? &it->second : &table_->column(a);
  }
  std::uint64_t h = kFnvBasis;
  for (std::size_t r = 0; r < table_->row_count(); ++r) {
    for (std::size_t a = 0; a < nattrs; ++a) h = fnv(h, (*columns[a])[r]);
  }
  return h;
}

}  // namespace perfbench
