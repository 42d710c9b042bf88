// Full-stack integration: all 13 SSB queries through every engine variant
// (one-xb, two-xb, pimdb) and the baseline, at a small scale factor, with
// every result checked against the scalar reference and the paper's
// qualitative orderings asserted on the cost side.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "baseline/monet.hpp"
#include "engine/model_fitter.hpp"
#include "engine/pim_store.hpp"
#include "engine/query_exec.hpp"
#include "pim/module.hpp"
#include "sql/parser.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/queries.hpp"

namespace bbpim {
namespace {

using engine::EngineKind;

/// Everything needed to run the benchmark once, built lazily and shared.
class SsbWorld {
 public:
  static SsbWorld& instance() {
    static SsbWorld w;
    return w;
  }

  ssb::SsbData data;
  rel::Table prejoined;
  pim::PimConfig cfg;
  host::HostConfig hcfg;

  std::unique_ptr<pim::PimModule> module_one, module_two, module_pimdb;
  std::unique_ptr<engine::PimStore> store_one, store_two, store_pimdb;
  std::unique_ptr<engine::PimQueryEngine> one_xb, two_xb, pimdb;

  engine::PimQueryEngine& engine_for(EngineKind kind) {
    switch (kind) {
      case EngineKind::kOneXb: return *one_xb;
      case EngineKind::kTwoXb: return *two_xb;
      case EngineKind::kPimdb: return *pimdb;
    }
    throw std::logic_error("bad kind");
  }

  sql::BoundQuery bind(std::string_view id) {
    return sql::bind(sql::parse(ssb::query(id).sql), prejoined.schema());
  }

 private:
  SsbWorld() {
    ssb::SsbConfig gen;
    gen.scale_factor = 0.02;  // 4800 orders -> 19200 lineorder rows
    gen.seed = 1234;
    data = ssb::generate(gen);
    prejoined = ssb::prejoin_ssb(data);

    module_one = std::make_unique<pim::PimModule>(cfg);
    store_one = std::make_unique<engine::PimStore>(*module_one, prejoined);
    module_two = std::make_unique<pim::PimModule>(cfg);
    engine::PimStore::Options two_opt;
    two_opt.two_crossbar = true;
    store_two =
        std::make_unique<engine::PimStore>(*module_two, prejoined, two_opt);
    module_pimdb = std::make_unique<pim::PimModule>(cfg);
    store_pimdb = std::make_unique<engine::PimStore>(*module_pimdb, prejoined);

    // Small fitting campaign: enough for the planner to behave sanely.
    engine::FitConfig fit;
    fit.page_counts = {2, 4};
    fit.ratios = {0.02, 0.2, 0.6};
    fit.s_values = {2, 4};
    fit.n_values = {1, 2};
    one_xb = std::make_unique<engine::PimQueryEngine>(
        EngineKind::kOneXb, *store_one, hcfg,
        engine::fit_latency_models(EngineKind::kOneXb, cfg, hcfg, fit).models);
    two_xb = std::make_unique<engine::PimQueryEngine>(
        EngineKind::kTwoXb, *store_two, hcfg,
        engine::fit_latency_models(EngineKind::kTwoXb, cfg, hcfg, fit).models);
    pimdb = std::make_unique<engine::PimQueryEngine>(
        EngineKind::kPimdb, *store_pimdb, hcfg,
        engine::fit_latency_models(EngineKind::kPimdb, cfg, hcfg, fit).models);
  }
};

struct QueryEngineCase {
  const char* id;
  EngineKind kind;
};

class AllQueriesAllEngines
    : public ::testing::TestWithParam<QueryEngineCase> {};

TEST_P(AllQueriesAllEngines, MatchesReference) {
  const auto [id, kind] = GetParam();
  SsbWorld& w = SsbWorld::instance();
  const sql::BoundQuery q = w.bind(id);
  const engine::QueryOutput out = w.engine_for(kind).execute(q);
  const baseline::ReferenceRun ref = baseline::scan_execute(w.prejoined, q);

  ASSERT_EQ(out.rows.size(), ref.rows.size());
  for (std::size_t i = 0; i < out.rows.size(); ++i) {
    ASSERT_EQ(out.rows[i].group, ref.rows[i].group) << "row " << i;
    ASSERT_EQ(out.rows[i].agg, ref.rows[i].agg) << "row " << i;
  }
  EXPECT_EQ(out.stats.selected_records, ref.selected_records);
  EXPECT_GT(out.stats.total_ns, 0.0);
  EXPECT_GT(out.stats.energy_j, 0.0);
}

std::vector<QueryEngineCase> all_cases() {
  std::vector<QueryEngineCase> cases;
  for (const auto& q : ssb::queries()) {
    for (const EngineKind k : engine::kAllEngineKinds) {
      cases.push_back({q.id.data(), k});
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<QueryEngineCase>& info) {
  std::string id(info.param.id);
  for (char& c : id) {
    if (c == '.') c = '_';
  }
  return "Q" + id + "_" + engine_kind_name(info.param.kind);
}

INSTANTIATE_TEST_SUITE_P(Ssb, AllQueriesAllEngines,
                         ::testing::ValuesIn(all_cases()), case_name);

TEST(SsbIntegration, BaselineMatchesReferenceEverywhere) {
  SsbWorld& w = SsbWorld::instance();
  for (const auto& q : ssb::queries()) {
    const sql::BoundQuery b = w.bind(q.id);
    const baseline::BaselineRun run =
        baseline::execute_prejoined(w.prejoined, b);
    const baseline::ReferenceRun ref = baseline::scan_execute(w.prejoined, b);
    ASSERT_EQ(run.rows.size(), ref.rows.size()) << q.id;
    for (std::size_t i = 0; i < run.rows.size(); ++i) {
      ASSERT_EQ(run.rows[i].agg, ref.rows[i].agg) << q.id;
    }
  }
}

TEST(SsbIntegration, Q1xUsesSinglePimAggregation) {
  // Table II: Q1.1-1.3 do not GROUP BY and aggregate once in PIM.
  SsbWorld& w = SsbWorld::instance();
  for (const char* id : {"1.1", "1.2", "1.3"}) {
    const engine::QueryOutput out = w.one_xb->execute(w.bind(id));
    EXPECT_EQ(out.stats.total_subgroups, 1u) << id;
    EXPECT_EQ(out.stats.pim_subgroups, 1u) << id;
    EXPECT_DOUBLE_EQ(out.stats.phases.host_gb, 0.0) << id;
  }
}

TEST(SsbIntegration, QualitativeCostOrderings) {
  SsbWorld& w = SsbWorld::instance();
  // Representative mid-selectivity GROUP-BY query.
  const sql::BoundQuery q = w.bind("2.2");
  const auto one = w.one_xb->execute(q).stats;
  const auto two = w.two_xb->execute(q).stats;
  const auto pdb = w.pimdb->execute(q).stats;
  // two-xb pays the inter-part transfers; pimdb pays bit-serial aggregation
  // (or falls back to host-gb) — one-xb should win.
  EXPECT_LT(one.total_ns, two.total_ns);
  EXPECT_LE(one.total_ns, pdb.total_ns);
}

/// Distinct values of `attr` among `table` rows where `where_attr` decodes
/// to `where_value` (both dictionary-encoded).
std::size_t distinct_under(const rel::Table& table, const char* attr,
                           const char* where_attr,
                           const std::string& where_value) {
  const std::size_t a = *table.schema().index_of(attr);
  const std::size_t f = *table.schema().index_of(where_attr);
  const auto code = table.schema().attribute(f).dict->code(where_value);
  std::set<std::uint64_t> seen;
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    if (code && table.value(r, f) == *code) seen.insert(table.value(r, a));
  }
  return seen.size();
}

TEST(SsbIntegration, SubgroupCountsMatchPaperStructure) {
  SsbWorld& w = SsbWorld::instance();
  // Table II derives "total subgroups" from query + database structure:
  // 7 years x the brands of category MFGR#12 (40 at full scale; at this tiny
  // scale factor only the brands actually present in PART count).
  const std::size_t brands_12 =
      distinct_under(w.data.part, "p_brand1", "p_category", "MFGR#12");
  EXPECT_LE(brands_12, 40u);
  EXPECT_GT(brands_12, 20u);
  const engine::QueryOutput q21 = w.one_xb->execute(w.bind("2.1"));
  EXPECT_EQ(q21.stats.total_subgroups, 7 * brands_12);

  // Q3.1: ASIA customer nations x ASIA supplier nations x 6 years.
  const std::size_t c_nations =
      distinct_under(w.data.customer, "c_nation", "c_region", "ASIA");
  const std::size_t s_nations =
      distinct_under(w.data.supplier, "s_nation", "s_region", "ASIA");
  const engine::QueryOutput q31 = w.one_xb->execute(w.bind("3.1"));
  EXPECT_EQ(q31.stats.total_subgroups, c_nations * s_nations * 6);
  EXPECT_LE(q31.stats.total_subgroups, 150u);

  // Q2.3: a single brand x 7 years.
  const engine::QueryOutput q23 = w.one_xb->execute(w.bind("2.3"));
  EXPECT_EQ(q23.stats.total_subgroups, 7u);
}

}  // namespace
}  // namespace bbpim
