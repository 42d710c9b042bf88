#include "baseline/reference.hpp"

#include <algorithm>
#include <unordered_map>

namespace bbpim::baseline {

bool row_matches(const rel::Table& table, std::size_t r,
                 const std::vector<sql::BoundPredicate>& filters) {
  return std::ranges::all_of(filters, [&](const sql::BoundPredicate& p) {
    return p.kind == sql::BoundPredicate::Kind::kAlways ||
           p.matches(table.value(r, p.attr));
  });
}

ReferenceRun scan_execute(const rel::Table& table, const sql::BoundQuery& q) {
  ReferenceRun run;
  std::unordered_map<engine::GroupKey, std::int64_t, engine::KeyHash> groups;
  std::int64_t no_group_acc = 0;
  bool no_group_any = false;

  for (std::size_t r = 0; r < table.row_count(); ++r) {
    if (!row_matches(table, r, q.filters)) continue;
    ++run.selected_records;

    std::int64_t v = 1;
    if (q.agg_func != sql::AggFunc::kCount) {
      const std::uint64_t va = table.value(r, q.agg_expr.a);
      const std::uint64_t vb = q.agg_expr.kind == sql::Expr::Kind::kColumn
                                   ? 0
                                   : table.value(r, q.agg_expr.b);
      v = static_cast<std::int64_t>(q.agg_expr.eval(va, vb));
    }

    if (!q.has_group_by()) {
      if (q.agg_func == sql::AggFunc::kMin) {
        no_group_acc = no_group_any ? std::min(no_group_acc, v) : v;
      } else if (q.agg_func == sql::AggFunc::kMax) {
        no_group_acc = no_group_any ? std::max(no_group_acc, v) : v;
      } else {
        no_group_acc += v;
      }
      no_group_any = true;
      continue;
    }

    std::vector<std::uint64_t> key;
    key.reserve(q.group_by.size());
    for (const std::size_t a : q.group_by) key.push_back(table.value(r, a));
    auto [it, fresh] = groups.try_emplace(std::move(key), 0);
    if (q.agg_func == sql::AggFunc::kMin) {
      it->second = fresh ? v : std::min(it->second, v);
    } else if (q.agg_func == sql::AggFunc::kMax) {
      it->second = fresh ? v : std::max(it->second, v);
    } else {
      it->second += v;
    }
  }

  if (!q.has_group_by()) {
    // One row always, 0 on empty selection (matching the PIM engine).
    run.rows.push_back(engine::ResultRow{{}, no_group_any ? no_group_acc : 0});
    return run;
  }

  for (auto& [key, agg] : groups) {
    run.rows.push_back(engine::ResultRow{key, agg});
  }
  std::sort(run.rows.begin(), run.rows.end(),
            [&](const engine::ResultRow& a, const engine::ResultRow& b) {
              for (const sql::BoundOrderItem& o : q.order_by) {
                if (o.is_agg) {
                  if (a.agg != b.agg) {
                    return o.desc ? a.agg > b.agg : a.agg < b.agg;
                  }
                } else {
                  const std::uint64_t va = a.group[o.group_pos];
                  const std::uint64_t vb = b.group[o.group_pos];
                  if (va != vb) return o.desc ? va > vb : va < vb;
                }
              }
              return a.group < b.group;
            });
  return run;
}

}  // namespace bbpim::baseline
