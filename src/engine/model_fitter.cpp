#include "engine/model_fitter.hpp"

#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "engine/pim_store.hpp"
#include "engine/query_exec.hpp"
#include "pim/module.hpp"
#include "relational/table.hpp"

namespace bbpim::engine {
namespace {

constexpr std::uint32_t kKeyBits = 20;
constexpr std::uint32_t kGidValues = 64;
/// Seed of the synthetic relations' key and value draws.
constexpr std::uint64_t kFitSeed = 7;

/// Synthetic relation: key (filter target) | pad | gid | val.
/// The pad aligns gid to a chunk boundary so that the host reads exactly
/// 1 + val_chunks chunks per record, giving precise control over s and n.
/// gid is a dimension attribute: two-xb's worst-case partitioning, as in
/// the paper, puts the group identifier in the dimension part and the
/// aggregated value in the fact part.
rel::Table make_synthetic(std::size_t records, std::uint32_t val_bits,
                          Rng& rng) {
  std::vector<rel::Attribute> attrs;
  attrs.push_back({"key", rel::DataType::kInt, kKeyBits, nullptr});
  attrs.push_back({"pad", rel::DataType::kInt, 12, nullptr});
  attrs.push_back({"gid", rel::DataType::kInt, 16, nullptr, true});
  attrs.push_back({"val", rel::DataType::kInt, val_bits, nullptr});
  rel::Table t(rel::Schema(std::move(attrs)), "synthetic");
  t.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    const std::uint64_t row[4] = {
        rng.next_below(1ULL << kKeyBits),
        0,
        i % kGidValues,
        rng.next_below(1ULL << 14),  // small values: sums never overflow
    };
    t.append_row(row);
  }
  return t;
}

sql::BoundQuery make_query(double ratio) {
  sql::BoundQuery q;
  sql::BoundPredicate p;
  p.kind = sql::BoundPredicate::Kind::kLt;
  p.attr = 0;  // key
  p.v1 = static_cast<std::uint64_t>(ratio * (1ULL << kKeyBits));
  q.filters.push_back(p);
  q.group_by = {2};  // gid
  q.agg_func = sql::AggFunc::kSum;
  q.agg_expr.kind = sql::Expr::Kind::kColumn;
  q.agg_expr.a = 3;  // val
  return q;
}

struct Fixture {
  std::unique_ptr<pim::PimModule> module;
  std::unique_ptr<rel::Table> table;
  std::unique_ptr<PimStore> store;
  std::unique_ptr<PimQueryEngine> engine;
};

Fixture make_fixture(EngineKind kind, const pim::PimConfig& cfg,
                     const host::HostConfig& hcfg, std::size_t pages,
                     std::uint32_t val_bits, Rng& rng) {
  Fixture f;
  f.module = std::make_unique<pim::PimModule>(cfg);
  f.table = std::make_unique<rel::Table>(
      make_synthetic(pages * cfg.records_per_page(), val_bits, rng));
  f.store = std::make_unique<PimStore>(
      *f.module, *f.table,
      PimStore::Options{.two_crossbar = kind == EngineKind::kTwoXb});
  f.engine = std::make_unique<PimQueryEngine>(kind, *f.store, hcfg);
  return f;
}

}  // namespace

ModelFitResult fit_latency_models(EngineKind kind, const pim::PimConfig& cfg,
                                  const host::HostConfig& hcfg,
                                  const FitConfig& fit) {
  if (fit.page_counts.size() < 2) {
    throw std::invalid_argument("fit_latency_models: need >= 2 page counts");
  }
  Rng rng(kFitSeed);
  ModelFitResult out;

  // --- host-gb: measure T_host-gb(M, s, r), fit slope(r) per s ------------
  for (const std::uint32_t s : fit.s_values) {
    if (s < 2) throw std::invalid_argument("s must be >= 2 (gid + value)");
    const std::uint32_t val_bits = 16 * (s - 1);
    // slope for each r: linear fit of T over M.
    std::vector<double> rs, slopes;
    for (const double r : fit.ratios) {
      std::vector<double> ms, ts;
      for (const std::size_t pages : fit.page_counts) {
        Fixture f = make_fixture(kind, cfg, hcfg, pages, val_bits, rng);
        ExecOptions opts;
        opts.force_k = 0;
        const QueryOutput q = f.engine->execute(make_query(r), opts);
        ms.push_back(static_cast<double>(pages));
        ts.push_back(q.stats.phases.host_gb);
        out.host_obs.push_back(
            {static_cast<double>(pages), s, r, q.stats.phases.host_gb});
      }
      slopes.push_back(fit_linear(ms, ts).slope);
      rs.push_back(r);
    }
    out.models.host_slope.emplace(s, fit_sqrt(rs, slopes));
  }

  // --- pim-gb: measure per-subgroup T_pim-gb(M, n), linear fit over M -----
  for (const std::uint32_t n : fit.n_values) {
    const std::uint32_t val_bits = 16 * n;
    std::vector<double> ms, ts;
    for (const std::size_t pages : fit.page_counts) {
      Fixture f = make_fixture(kind, cfg, hcfg, pages, val_bits, rng);
      ExecOptions opts;
      opts.force_k = 1;
      opts.skip_host_gb = true;
      // Moderate selectivity: pim-gb cost is selection-independent.
      const QueryOutput q = f.engine->execute(make_query(0.2), opts);
      ms.push_back(static_cast<double>(pages));
      ts.push_back(q.stats.phases.pim_gb);
      out.pim_obs.push_back(
          {static_cast<double>(pages), n, 0.2, q.stats.phases.pim_gb});
    }
    out.models.pim_gb.emplace(n, fit_linear(ms, ts));
  }
  return out;
}

std::uint64_t config_fingerprint(const pim::PimConfig& cfg,
                                 const host::HostConfig& hcfg,
                                 const FitConfig& fit) {
  // FNV-1a over a canonical textual dump of every field either latency
  // model depends on. Text (max precision) sidesteps double-representation
  // pitfalls while staying stable across platforms and runs.
  // Deliberately excluded: HostConfig::sim_threads (simulation speed only)
  // and HostConfig::prune (zone-map pruning never changes the modeled
  // per-page cost of a page that executes, so fitted models stay valid
  // with it on or off).
  std::ostringstream dump;
  dump.precision(17);
  dump << cfg.crossbar_rows << ' ' << cfg.crossbar_cols << ' '
       << cfg.crossbars_per_page << ' ' << cfg.chips << ' '
       << cfg.capacity_bytes << ' ' << cfg.read_bits << ' '
       << cfg.logic_cycle_ns << ' ' << cfg.read_cycle_ns << ' '
       << cfg.write_cycle_ns << ' ' << cfg.logic_energy_fj_per_bit << ' '
       << cfg.read_energy_pj_per_bit << ' ' << cfg.write_energy_pj_per_bit
       << ' ' << cfg.agg_circuit_power_uw << ' ' << cfg.controller_power_uw
       << " | " << hcfg.threads << ' ' << hcfg.line_stream_ns << ' '
       << hcfg.line_random_ns << ' ' << hcfg.issue_ns << ' '
       << hcfg.phase_overhead_ns << ' ' << hcfg.request_window << ' '
       << hcfg.cpu_ns_per_record << ' ' << hcfg.cpu_ns_per_sample << ' '
       << hcfg.plan_overhead_ns << " |";
  for (const std::size_t m : fit.page_counts) dump << ' ' << m;
  dump << " |";
  for (const double r : fit.ratios) dump << ' ' << r;
  dump << " |";
  for (const std::uint32_t s : fit.s_values) dump << ' ' << s;
  dump << " |";
  for (const std::uint32_t n : fit.n_values) dump << ' ' << n;

  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : dump.str()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash != 0 ? hash : 1;  // 0 means "no fingerprint" in cache files
}

}  // namespace bbpim::engine
