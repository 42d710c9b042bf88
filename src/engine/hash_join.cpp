#include "engine/hash_join.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace bbpim::engine {
namespace {

/// splitmix64 finalizer: spreads dense dictionary codes across partitions.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::size_t kPartitions = 16;

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

std::vector<SemijoinCandidate> semijoin_candidates(
    const sql::BoundJoin& plan, const std::vector<JoinScanInput>& scans,
    const std::vector<std::size_t>& table_rows) {
  using Kind = sql::BoundPredicate::Kind;
  const auto attrs = join_scan_attrs(plan);
  std::vector<SemijoinCandidate> out;
  for (const sql::BoundBuildSide& side : plan.builds) {
    if (side.dim_attrs.size() != 1) continue;  // composite keys stay on host
    const std::vector<std::size_t>& dim_attrs = attrs[side.table];
    const std::size_t col =
        std::lower_bound(dim_attrs.begin(), dim_attrs.end(),
                         side.dim_attrs[0]) -
        dim_attrs.begin();
    std::vector<std::uint64_t> keys = scans[side.table].columns.at(col);
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
    const std::size_t rows = table_rows[side.table];
    c.key_fraction = rows == 0 ? 0.0
                               : static_cast<double>(distinct) /
                                     static_cast<double>(rows);
    out.push_back(std::move(c));
  }
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
  js.partitions = kPartitions;
  const double threads = hcfg.threads == 0 ? 1.0 : hcfg.threads;

  const auto attrs = join_scan_attrs(plan);
  std::vector<std::unordered_map<std::size_t, std::size_t>> pos(attrs.size());
  for (std::size_t t = 0; t < attrs.size(); ++t) {
    for (std::size_t i = 0; i < attrs[t].size(); ++i) pos[t][attrs[t][i]] = i;
  }

  // --- build: one partitioned hash table per filtered dimension ------------
  struct Build {
    const sql::BoundBuildSide* side = nullptr;
    bool single = true;  ///< one key attribute (fast path; all of SSB)
    std::vector<std::size_t> fact_pos;  ///< probe key columns in the fact scan
    std::vector<std::size_t> dim_pos;   ///< build key columns in the dim scan
    std::vector<std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>>
        parts_single;
    std::vector<std::unordered_map<GroupKey, std::vector<std::uint32_t>,
                                   KeyHash>>
        parts_multi;
  };
  std::vector<Build> builds;
  builds.reserve(plan.builds.size());
  std::size_t build_total = 0;
  for (const sql::BoundBuildSide& side : plan.builds) {
    cancel.check();  // per build side: each is a full pass over one dim scan
    Build b;
    b.side = &side;
    b.single = side.dim_attrs.size() == 1;
    for (const std::size_t a : side.fact_attrs) {
      b.fact_pos.push_back(pos[plan.fact].at(a));
    }
    for (const std::size_t a : side.dim_attrs) {
      b.dim_pos.push_back(pos[side.table].at(a));
    }
    const JoinScanInput& dim = scans[side.table];
    const std::size_t rows = dim.row_count();
    js.build_rows.push_back(rows);
    build_total += rows;
    if (b.single) {
      b.parts_single.resize(kPartitions);
      const std::vector<std::uint64_t>& col = dim.columns[b.dim_pos[0]];
      for (std::size_t r = 0; r < rows; ++r) {
        const std::uint64_t k = col[r];
        b.parts_single[mix(k) & (kPartitions - 1)][k].push_back(
            static_cast<std::uint32_t>(r));
      }
    } else {
      b.parts_multi.resize(kPartitions);
      GroupKey key(b.dim_pos.size(), 0);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t i = 0; i < b.dim_pos.size(); ++i) {
          key[i] = dim.columns[b.dim_pos[i]][r];
        }
        b.parts_multi[mix(KeyHash{}(key)) & (kPartitions - 1)][key].push_back(
            static_cast<std::uint32_t>(r));
      }
    }
    builds.push_back(std::move(b));
  }
  js.build_ns = static_cast<double>(build_total) * hcfg.cpu_ns_per_record /
                threads;

  // --- probe: fact survivors cascade through the build sides ---------------
  const JoinScanInput& fact = scans[plan.fact];
  js.probe_rows = fact.row_count();

  // Group/aggregate column access for a joined combination.
  struct RefSlot {
    bool on_fact = true;
    std::size_t build = 0;  ///< index into `builds` when !on_fact
    std::size_t col = 0;    ///< column position in that table's scan
  };
  auto slot_of = [&](const sql::BoundColumnRef& ref) {
    RefSlot s;
    if (ref.table == plan.fact) {
      s.col = pos[plan.fact].at(ref.attr);
      return s;
    }
    s.on_fact = false;
    for (std::size_t b = 0; b < builds.size(); ++b) {
      if (builds[b].side->table == ref.table) s.build = b;
    }
    s.col = pos[ref.table].at(ref.attr);
    return s;
  };
  std::vector<RefSlot> group_slots;
  group_slots.reserve(plan.group_by.size());
  for (const sql::BoundColumnRef& g : plan.group_by) {
    group_slots.push_back(slot_of(g));
  }
  const bool want_values = plan.agg_func != sql::AggFunc::kCount;
  const bool have_b = plan.agg_expr.kind != sql::Expr::Kind::kColumn;
  RefSlot agg_a, agg_b;
  if (want_values) {
    agg_a = slot_of(plan.agg_expr.a);
    if (have_b) agg_b = slot_of(plan.agg_expr.b);
  }

  // Without GROUP BY every joined row folds into the empty key.
  std::unordered_map<GroupKey, std::int64_t, KeyHash> groups;
  std::size_t joined = 0;
  std::vector<const std::vector<std::uint32_t>*> matches(builds.size());
  GroupKey probe_key;
  // Per-joined-row scratch, reused across the probe loop. The odometer
  // below always finishes with every digit of `idx` back at 0.
  std::vector<std::size_t> idx(builds.size(), 0);
  GroupKey key(group_slots.size());
  for (std::size_t r = 0; r < js.probe_rows; ++r) {
    // Periodic checkpoint: one clock read per 64K probed rows.
    if ((r & 0xFFFF) == 0) cancel.check();
    bool ok = true;
    for (std::size_t b = 0; b < builds.size(); ++b) {
      Build& bd = builds[b];
      if (bd.single) {
        const std::uint64_t k = fact.columns[bd.fact_pos[0]][r];
        const auto& part = bd.parts_single[mix(k) & (kPartitions - 1)];
        const auto it = part.find(k);
        if (it == part.end()) {
          ok = false;
          break;
        }
        matches[b] = &it->second;
      } else {
        probe_key.assign(bd.fact_pos.size(), 0);
        for (std::size_t i = 0; i < bd.fact_pos.size(); ++i) {
          probe_key[i] = fact.columns[bd.fact_pos[i]][r];
        }
        const auto& part =
            bd.parts_multi[mix(KeyHash{}(probe_key)) & (kPartitions - 1)];
        const auto it = part.find(probe_key);
        if (it == part.end()) {
          ok = false;
          break;
        }
        matches[b] = &it->second;
      }
    }
    if (!ok) continue;

    // Odometer over the per-dimension match lists: duplicate build keys
    // yield the cross product (unique SSB keys make this one iteration).
    while (true) {
      ++joined;
      auto value_of = [&](const RefSlot& s) -> std::uint64_t {
        if (s.on_fact) return fact.columns[s.col][r];
        const std::uint32_t dim_row = (*matches[s.build])[idx[s.build]];
        return scans[builds[s.build].side->table].columns[s.col][dim_row];
      };
      std::int64_t v = 1;
      if (want_values) {
        const std::uint64_t va = value_of(agg_a);
        const std::uint64_t vb = have_b ? value_of(agg_b) : 0;
        v = static_cast<std::int64_t>(plan.agg_expr.eval(va, vb));
      }
      for (std::size_t i = 0; i < group_slots.size(); ++i) {
        key[i] = value_of(group_slots[i]);
      }
      // Copies the key only when the group is new.
      const auto [it, fresh] = groups.try_emplace(key, v);
      if (!fresh) it->second = fold_agg(plan.agg_func, it->second, v);
      std::size_t d = 0;
      for (; d < builds.size(); ++d) {
        if (++idx[d] < matches[d]->size()) break;
        idx[d] = 0;
      }
      if (d == builds.size()) break;
    }
  }
  js.joined_rows = joined;
  js.probe_ns = static_cast<double>(js.probe_rows) *
                static_cast<double>(builds.size()) * hcfg.cpu_ns_per_record /
                threads;

  // --- finalize: the single-table engine's sort ----------------------------
  out.rows.reserve(groups.size());
  for (auto& [key, v] : groups) out.rows.push_back(ResultRow{key, v});
  if (!plan.has_group_by() && out.rows.empty()) out.rows.push_back({});
  sort_rows(out.rows, plan.order_by);
  js.finalize_ns = static_cast<double>(out.rows.size()) * 50.0;
  return out;
}

}  // namespace bbpim::engine
