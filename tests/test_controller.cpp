// Tests for the page controller (macro requests + cost traces), the module
// (allocation, wear, line geometry), the power tracker, and the host-side
// request scheduler.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "host/pipeline.hpp"
#include "pim/controller.hpp"
#include "pim/module.hpp"
#include "pim/trackers.hpp"

namespace bbpim {
namespace {

using pim::EnergyCat;
using pim::EnergyMeter;
using pim::PimConfig;
using pim::PimModule;
using pim::PowerTracker;
using pim::RequestTrace;

PimConfig small_config() {
  PimConfig cfg;
  cfg.crossbar_rows = 64;
  cfg.crossbar_cols = 64;
  cfg.crossbars_per_page = 4;
  cfg.capacity_bytes = 1ULL << 26;
  return cfg;
}

TEST(PimModule, AllocationAndCapacity) {
  PimConfig cfg = small_config();
  PimModule m(cfg);
  EXPECT_EQ(m.page_count(), 0u);
  const std::size_t base = m.allocate_pages(3);
  EXPECT_EQ(base, 0u);
  EXPECT_EQ(m.page_count(), 3u);
  EXPECT_EQ(m.allocate_pages(2), 3u);
  EXPECT_EQ(m.page(4).id(), 4u);
  // Exceeding capacity throws.
  const std::size_t max_pages = cfg.capacity_bytes / cfg.page_bytes();
  EXPECT_THROW(m.allocate_pages(max_pages), std::runtime_error);
}

TEST(PimModule, RecordFieldRoundTripAndWear) {
  PimModule m(small_config());
  m.allocate_pages(2);
  const pim::Field f{10, 12};
  // Record 70 of page 1 lives in crossbar 1, row 6.
  m.page(1).crossbar(1).write_row_bits(6, f.offset, f.width, 0xABC);
  EXPECT_EQ(m.read_record_field(1, 70, f), 0xABCu);
  EXPECT_GT(m.max_row_writes(), 0u);
  m.reset_wear();
  EXPECT_EQ(m.max_row_writes(), 0u);
}

TEST(Controller, ExecuteProgramCostsAndRuns) {
  const PimConfig cfg = small_config();
  PimModule m(cfg);
  m.allocate_pages(1);
  // INIT1 + NOR into column 20, INIT1 + NOT into column 21.
  pim::ColumnAlloc alloc(20, 64);
  pim::ProgramBuilder pb(alloc);
  pb.emit_not(pb.emit_nor(0, 1));
  const pim::Program prog = pb.take();
  ASSERT_EQ(prog.gates.size(), 4u);
  EnergyMeter meter;
  const RequestTrace t = pim::execute_program(m.page(0), prog, cfg, &meter);
  EXPECT_EQ(t.cls, pim::RequestClass::kLogic);
  EXPECT_DOUBLE_EQ(t.duration_ns, 4 * cfg.logic_cycle_ns);
  EXPECT_GT(meter.of(EnergyCat::kLogic), 0.0);
  EXPECT_GT(meter.of(EnergyCat::kController), 0.0);
  EXPECT_NEAR(t.energy_j,
              meter.of(EnergyCat::kLogic) + meter.of(EnergyCat::kController),
              1e-18);
  // Functional effect happened on every crossbar.
  for (std::uint32_t x = 0; x < m.page(0).crossbar_count(); ++x) {
    const pim::Crossbar& xb = m.page(0).crossbar(x);
    EXPECT_EQ(xb.uniform_row_writes(), 4u);
    EXPECT_EQ(xb.column_popcount(20), xb.rows());  // NOR of all-zero inputs
    EXPECT_EQ(xb.column_popcount(21), 0u);
  }

  // The scalar path runs the gates: same bits, same wear, same cost.
  PimModule scalar(cfg);
  scalar.allocate_pages(1);
  const RequestTrace ts = pim::execute_program(scalar.page(0), prog, cfg,
                                               nullptr, /*vectorized=*/false);
  EXPECT_DOUBLE_EQ(ts.energy_j, t.energy_j);
  for (std::uint32_t x = 0; x < m.page(0).crossbar_count(); ++x) {
    for (std::uint32_t c = 0; c < cfg.crossbar_cols; ++c) {
      EXPECT_EQ(scalar.page(0).crossbar(x).column(c),
                m.page(0).crossbar(x).column(c));
    }
    EXPECT_EQ(scalar.page(0).crossbar(x).uniform_row_writes(), 4u);
  }
}

TEST(Controller, LogicTraceCostMatchesExecute) {
  const PimConfig cfg = small_config();
  const RequestTrace t = pim::logic_trace_cost(cfg, 10, 4);
  EXPECT_DOUBLE_EQ(t.duration_ns, 10 * cfg.logic_cycle_ns);
  EXPECT_GT(t.avg_power_w, 0.0);
}

TEST(Controller, BitColumnRoundTripThroughHost) {
  const PimConfig cfg = small_config();
  PimModule m(cfg);
  m.allocate_pages(2);
  Rng rng(5);
  BitVec bits(m.page(0).records());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits.set(i, rng.next_double() < 0.3);
  }
  EnergyMeter meter;
  const RequestTrace w =
      pim::write_bit_column(m.page(0), 33, bits, 50.0, cfg, &meter);
  EXPECT_EQ(w.cls, pim::RequestClass::kColumnWrite);
  EXPECT_GT(meter.of(EnergyCat::kWrite), 0.0);

  BitVec out;
  const RequestTrace r =
      pim::read_bit_column(m.page(0), 33, 50.0, cfg, &meter, &out);
  EXPECT_EQ(r.cls, pim::RequestClass::kColumnRead);
  EXPECT_EQ(out, bits);
  // Reading a bit column costs one line per page row.
  EXPECT_DOUBLE_EQ(r.duration_ns, cfg.crossbar_rows * 50.0);
}

TEST(PowerTracker, PeakIsWorstOverlap) {
  PowerTracker t;
  t.add_interval(0, 10, 2.0);
  t.add_interval(5, 15, 3.0);
  t.add_interval(12, 20, 1.0);
  EXPECT_DOUBLE_EQ(t.peak_module_w(), 5.0);
  // Touching intervals don't stack: removal processed before insertion.
  PowerTracker t2;
  t2.add_interval(0, 10, 4.0);
  t2.add_interval(10, 20, 4.0);
  EXPECT_DOUBLE_EQ(t2.peak_module_w(), 4.0);
  EXPECT_THROW(t2.add_interval(5, 1, 1.0), std::invalid_argument);
}

TEST(Scheduler, UnboundedWindowPipelines) {
  // 8 requests of 100 ns across 4 threads (2 each), issue gap 10 ns:
  // per thread: last issued at 10 ns, done at 110 ns.
  std::vector<RequestTrace> traces(8);
  for (auto& t : traces) {
    t.duration_ns = 100;
    t.avg_power_w = 1.0;
  }
  host::ScheduleParams p;
  p.threads = 4;
  p.window = 0;
  p.issue_gap_ns = 10;
  PowerTracker tracker;
  const TimeNs end = host::schedule_requests(traces, p, 0.0, &tracker);
  EXPECT_DOUBLE_EQ(end, 110.0);
  // All 8 overlap around t=50: peak 8 W.
  EXPECT_DOUBLE_EQ(tracker.peak_module_w(), 8.0);
}

TEST(Scheduler, WindowSerializesAndCapsPower) {
  std::vector<RequestTrace> traces(4);
  for (auto& t : traces) {
    t.duration_ns = 100;
    t.avg_power_w = 1.0;
  }
  host::ScheduleParams p;
  p.threads = 1;
  p.window = 1;  // fully serial
  p.issue_gap_ns = 0;
  PowerTracker tracker;
  const TimeNs end = host::schedule_requests(traces, p, 0.0, &tracker);
  EXPECT_DOUBLE_EQ(end, 400.0);
  EXPECT_DOUBLE_EQ(tracker.peak_module_w(), 1.0);
}

TEST(Scheduler, PhaseStartOffsetsEverything) {
  std::vector<RequestTrace> traces(1);
  traces[0].duration_ns = 50;
  host::ScheduleParams p;
  p.threads = 4;
  const TimeNs end = host::schedule_requests(traces, p, 1000.0, nullptr);
  EXPECT_DOUBLE_EQ(end, 1050.0);
  EXPECT_DOUBLE_EQ(host::schedule_requests({}, p, 7.0, nullptr), 7.0);
}

TEST(EnergyMeterTest, CategoriesAndReset) {
  EnergyMeter m;
  m.add(EnergyCat::kLogic, 1.0);
  m.add(EnergyCat::kRead, 0.5);
  EXPECT_DOUBLE_EQ(m.total(), 1.5);
  EXPECT_DOUBLE_EQ(m.of(EnergyCat::kLogic), 1.0);
  m.reset();
  EXPECT_DOUBLE_EQ(m.total(), 0.0);
}

}  // namespace
}  // namespace bbpim
