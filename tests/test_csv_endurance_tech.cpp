// Tests for the endurance report, the technology presets, and
// LatencyModels serialization. (The file name predates the removal of the
// CSV reader and writer, whose cases lived here.)
#include <gtest/gtest.h>

#include <sstream>

#include "engine/latency_model.hpp"
#include "pim/endurance.hpp"
#include "pim/technology.hpp"

namespace bbpim {
namespace {

TEST(Endurance, ReportMath) {
  pim::PimConfig cfg;  // 512 cells per row
  // 512 writes/row/query at 1 ms per query: 1 write/cell/query, 1000/s.
  const pim::EnduranceReport r =
      pim::endurance_report(512, 1e6, cfg, 10.0, 1e12);
  EXPECT_DOUBLE_EQ(r.writes_per_cell_per_query, 1.0);
  EXPECT_DOUBLE_EQ(r.queries_per_second, 1000.0);
  EXPECT_NEAR(r.writes_over_horizon, 1000.0 * 365.25 * 24 * 3600 * 10, 1e6);
  EXPECT_TRUE(r.within_budget);  // 3.16e11 < 1e12
  EXPECT_GT(r.lifetime_years, 10.0);
  EXPECT_LT(r.lifetime_years, 100.0);

  // Heavier wear blows the budget.
  const pim::EnduranceReport heavy =
      pim::endurance_report(512 * 100, 1e6, cfg, 10.0, 1e12);
  EXPECT_FALSE(heavy.within_budget);
  EXPECT_THROW(pim::endurance_report(1, 0.0, cfg), std::invalid_argument);
}

TEST(Technology, PresetsAreOrderedSanely) {
  const pim::PimConfig rram = pim::technology_config(pim::Technology::kRram);
  const pim::PimConfig dram = pim::technology_config(pim::Technology::kDram);
  const pim::PimConfig pcm = pim::technology_config(pim::Technology::kPcm);
  // Geometry identical (plans must not change).
  EXPECT_EQ(rram.crossbar_rows, dram.crossbar_rows);
  EXPECT_EQ(rram.crossbars_per_page, pcm.crossbars_per_page);
  // RRAM keeps the paper's Table I values.
  EXPECT_DOUBLE_EQ(rram.logic_cycle_ns, 30.0);
  EXPECT_DOUBLE_EQ(rram.logic_energy_fj_per_bit, 81.6);
  // DRAM: slower bulk cycle, cheaper ops, huge endurance.
  EXPECT_GT(dram.logic_cycle_ns, rram.logic_cycle_ns);
  EXPECT_LT(dram.logic_energy_fj_per_bit, rram.logic_energy_fj_per_bit);
  EXPECT_GT(pim::technology_endurance_writes(pim::Technology::kDram),
            pim::technology_endurance_writes(pim::Technology::kRram));
  // PCM: writes are the pain point.
  EXPECT_GT(pcm.write_energy_pj_per_bit, rram.write_energy_pj_per_bit);
  EXPECT_LT(pim::technology_endurance_writes(pim::Technology::kPcm),
            pim::technology_endurance_writes(pim::Technology::kRram));
  EXPECT_STREQ(pim::technology_name(pim::Technology::kDram), "DRAM");
}

TEST(LatencyModelsIo, SaveLoadRoundTrip) {
  engine::LatencyModels m;
  SqrtFit s;
  s.a = 123.25;
  s.b = 4.5;
  s.r2 = 0.97;
  m.host_slope.emplace(2, s);
  s.a = 99.0;
  m.host_slope.emplace(4, s);
  LinearFit l;
  l.slope = 7.125;
  l.intercept = 1e6;
  l.r2 = 0.99;
  m.pim_gb.emplace(1, l);

  std::stringstream ss;
  m.save(ss);
  const engine::LatencyModels back = engine::LatencyModels::load(ss);
  ASSERT_TRUE(back.fitted());
  ASSERT_EQ(back.host_slope.size(), 2u);
  EXPECT_DOUBLE_EQ(back.host_slope.at(2).a, 123.25);
  EXPECT_DOUBLE_EQ(back.host_slope.at(4).a, 99.0);
  EXPECT_DOUBLE_EQ(back.pim_gb.at(1).intercept, 1e6);
  EXPECT_DOUBLE_EQ(back.host_gb_ns(10, 2, 0.25), m.host_gb_ns(10, 2, 0.25));

  std::stringstream bad("host 2 1.0\n");  // truncated record
  EXPECT_THROW(engine::LatencyModels::load(bad), std::runtime_error);
  std::stringstream unknown("wat 1 2 3 4\n");
  EXPECT_THROW(engine::LatencyModels::load(unknown), std::runtime_error);
}

}  // namespace
}  // namespace bbpim
