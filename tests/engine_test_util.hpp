// Shared fixtures for engine-level tests: a small PIM geometry (fast to
// simulate) and a synthetic relation generator with controllable group
// skew and filter selectivity.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "engine/pim_store.hpp"
#include "engine/query_exec.hpp"
#include "pim/module.hpp"
#include "relational/table.hpp"
#include "sql/logical_plan.hpp"
#include "sql/parser.hpp"

namespace bbpim::testutil {

/// Small module geometry: 64x128 crossbars, 4 per page -> 256 records/page.
inline pim::PimConfig small_pim_config() {
  pim::PimConfig cfg;
  cfg.crossbar_rows = 64;
  cfg.crossbar_cols = 128;
  cfg.crossbars_per_page = 4;
  cfg.capacity_bytes = 1ULL << 28;
  return cfg;
}

/// Synthetic relation: f_key (uniform filter target), f_gid (Zipf-ish group
/// id), f_val / f_val2 (values), d_tag (a dimension attribute, so two-xb
/// splits it off into part 1; correlated with f_gid).
inline rel::Table make_synthetic_table(std::size_t rows, std::uint64_t seed) {
  std::vector<rel::Attribute> attrs = {
      {"f_key", rel::DataType::kInt, 12, nullptr},
      {"f_gid", rel::DataType::kInt, 4, nullptr},
      {"f_val", rel::DataType::kInt, 10, nullptr},
      {"f_val2", rel::DataType::kInt, 6, nullptr},
      {"d_tag", rel::DataType::kInt, 3, nullptr, true},
  };
  rel::Table t(rel::Schema(std::move(attrs)), "synthetic");
  t.reserve(rows);
  Rng rng(seed);
  for (std::size_t i = 0; i < rows; ++i) {
    // Skewed group ids: half the rows in group 0, quarter in group 1, ...
    std::uint64_t gid = 0;
    while (gid < 9 && rng.next_double() < 0.5) ++gid;
    const std::uint64_t row[] = {
        rng.next_below(1ULL << 12), gid, rng.next_below(1000),
        rng.next_below(50),         gid % 7,
    };
    t.append_row(row);
  }
  return t;
}

struct EngineFixture {
  pim::PimConfig cfg = small_pim_config();
  host::HostConfig hcfg;
  std::unique_ptr<pim::PimModule> module;
  std::unique_ptr<rel::Table> table;
  std::unique_ptr<engine::PimStore> store;
  std::unique_ptr<engine::PimQueryEngine> engine;

  EngineFixture(engine::EngineKind kind, std::size_t rows,
                std::uint64_t seed = 11,
                engine::LatencyModels models = {}) {
    module = std::make_unique<pim::PimModule>(cfg);
    table = std::make_unique<rel::Table>(make_synthetic_table(rows, seed));
    store = std::make_unique<engine::PimStore>(
        *module, *table,
        engine::PimStore::Options{.two_crossbar =
                                      kind == engine::EngineKind::kTwoXb});
    engine = std::make_unique<engine::PimQueryEngine>(kind, *store, hcfg,
                                                      std::move(models));
  }

  /// An engine over this fixture's store with other simulation settings:
  /// one arm of a parity test (HostConfig is where both settings live).
  engine::PimQueryEngine arm(std::uint32_t sim_threads,
                             bool prune = false) const {
    host::HostConfig h = hcfg;
    h.sim_threads = sim_threads;
    h.prune = prune;
    return engine::PimQueryEngine(engine->kind(), *store, h, engine->models());
  }

  sql::BoundQuery bind_sql(const std::string& sql_text) {
    return sql::bind(sql::parse(sql_text), table->schema());
  }
};

}  // namespace bbpim::testutil
