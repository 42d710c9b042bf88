// Property tests for the host-side models (scheduler, unique-line read
// set), the parametric area model, and the PIMDB bit-serial cost phases.
#include <gtest/gtest.h>

#include "host/pipeline.hpp"
#include "host/read_set.hpp"
#include "pim/area_model.hpp"
#include "pimdb/bitserial.hpp"

namespace bbpim {
namespace {

// ---------------------------------------------------------------------------
// Scheduler properties
// ---------------------------------------------------------------------------

std::vector<pim::RequestTrace> uniform_traces(std::size_t n, double dur) {
  std::vector<pim::RequestTrace> t(n);
  for (auto& x : t) {
    x.duration_ns = dur;
    x.avg_power_w = 1.0;
  }
  return t;
}

TEST(SchedulerProps, DeeperWindowNeverSlower) {
  const auto traces = uniform_traces(64, 500);
  host::ScheduleParams p;
  p.threads = 4;
  p.issue_gap_ns = 100;
  double prev = 1e18;
  for (const std::uint32_t w : {1u, 2u, 4u, 8u, 16u, 0u}) {
    p.window = w;
    const TimeNs end = host::schedule_requests(traces, p, 0, nullptr);
    EXPECT_LE(end, prev) << "window " << w;
    prev = end;
  }
}

TEST(SchedulerProps, MoreThreadsNeverSlower) {
  const auto traces = uniform_traces(63, 700);
  host::ScheduleParams p;
  p.window = 2;
  p.issue_gap_ns = 50;
  double prev = 1e18;
  for (const std::uint32_t th : {1u, 2u, 4u, 8u}) {
    p.threads = th;
    const TimeNs end = host::schedule_requests(traces, p, 0, nullptr);
    EXPECT_LE(end, prev) << "threads " << th;
    prev = end;
  }
}

TEST(SchedulerProps, LatencyLinearInPagesWhenUnbounded) {
  // The Fig. 4 premise: phase latency grows linearly with the page count.
  host::ScheduleParams p;
  p.threads = 4;
  p.window = 0;
  p.issue_gap_ns = 100;
  const TimeNs t1 = host::schedule_requests(uniform_traces(40, 300), p, 0,
                                            nullptr);
  const TimeNs t2 = host::schedule_requests(uniform_traces(80, 300), p, 0,
                                            nullptr);
  const TimeNs t3 = host::schedule_requests(uniform_traces(160, 300), p, 0,
                                            nullptr);
  EXPECT_NEAR(t3 - t2, 2 * (t2 - t1), 1e-6);
}

// ---------------------------------------------------------------------------
// ReadSet: dedup and the read-amplification-sharing effect
// ---------------------------------------------------------------------------

TEST(ReadSetProps, DedupesLines) {
  host::ReadSet rs(4);
  rs.touch(0, 10, 3);
  rs.touch(0, 10, 3);  // same line
  rs.touch(0, 10, 4);
  rs.touch(1, 10, 3);
  EXPECT_EQ(rs.unique_lines(), 3u);
  EXPECT_EQ(rs.per_page_lines()[0], 2u);
  EXPECT_EQ(rs.per_page_lines()[1], 1u);
  EXPECT_THROW(rs.touch(9, 0, 0), std::out_of_range);
}

TEST(ReadSetProps, SharingIsSublinear) {
  // Two records in the same page row share their lines; records in
  // different rows don't. This is the concavity behind the a*sqrt(r)+b fit.
  host::ReadSet shared(1), spread(1);
  for (std::uint32_t rec = 0; rec < 16; ++rec) {
    shared.touch(0, /*row=*/5, /*chunk=*/0);      // all in one row
    spread.touch(0, /*row=*/rec, /*chunk=*/0);    // one per row
  }
  EXPECT_EQ(shared.unique_lines(), 1u);
  EXPECT_EQ(spread.unique_lines(), 16u);
}

TEST(ReadSetProps, PhaseTimeUsesWorstThread) {
  host::HostConfig cfg;
  cfg.threads = 2;
  cfg.line_random_ns = 100;
  host::ReadSet rs(4);  // pages 0,1 -> thread 0; 2,3 -> thread 1
  rs.touch(0, 0, 0);
  rs.touch(0, 1, 0);
  rs.touch(0, 2, 0);
  rs.touch(3, 0, 0);
  // Thread 0 has 3 lines.
  EXPECT_DOUBLE_EQ(host::lines_phase_time_ns(rs.per_page_lines(), cfg), 300.0);
}

// ---------------------------------------------------------------------------
// Area model parametrics
// ---------------------------------------------------------------------------

TEST(AreaModelProps, ComponentsSumToTotal) {
  const pim::PimConfig cfg;
  const pim::AreaBreakdown b = pim::compute_area(cfg);
  double sum = 0, pct = 0;
  for (const auto& c : b.components) {
    sum += c.area_mm2;
    pct += c.percent;
  }
  EXPECT_NEAR(sum, b.chip_total_mm2, 1e-9);
  EXPECT_NEAR(pct, 100.0, 1e-9);
  EXPECT_NEAR(b.module_total_mm2, b.chip_total_mm2 * cfg.chips, 1e-9);
}

TEST(AreaModelProps, ScalesWithCapacityAndAblatesAlu) {
  pim::PimConfig cfg;
  const pim::AreaBreakdown full = pim::compute_area(cfg);
  pim::PimConfig half = cfg;
  half.capacity_bytes = cfg.capacity_bytes / 2;
  const pim::AreaBreakdown small = pim::compute_area(half);
  EXPECT_LT(small.chip_total_mm2, full.chip_total_mm2);

  pim::AreaParams no_alu;
  no_alu.include_agg_circuit = false;
  const pim::AreaBreakdown pimdb_chip = pim::compute_area(cfg, no_alu);
  EXPECT_LT(pimdb_chip.chip_total_mm2, full.chip_total_mm2);
  for (const auto& c : pimdb_chip.components) {
    if (c.name == "Aggregation circuits") {
      EXPECT_DOUBLE_EQ(c.area_mm2, 0.0);
    }
  }
}

TEST(AreaModelProps, MatchesPaperBreakdown) {
  const pim::AreaBreakdown b = pim::compute_area(pim::PimConfig{});
  EXPECT_NEAR(b.chip_total_mm2, 346.0, 2.0);
  for (const auto& c : b.components) {
    if (c.name == "Aggregation circuits") {
      EXPECT_NEAR(c.percent, 13.9, 0.2);
    }
    if (c.name == "Crossbars") {
      EXPECT_NEAR(c.percent, 19.24, 0.2);
    }
    if (c.name == "PIM controllers") {
      EXPECT_NEAR(c.percent, 6.84, 0.2);
    }
  }
}

// ---------------------------------------------------------------------------
// PIMDB bit-serial cost structure
// ---------------------------------------------------------------------------

/// Total cycles of one bit-serial reduction: the sum of its phases.
std::uint64_t bitserial_cycles(std::uint32_t value_bits, std::uint32_t rows,
                               pim::AggOp op) {
  std::uint64_t sum = 0;
  for (const std::uint64_t c :
       pimdb::bitserial_agg_phases(value_bits, rows, op)) {
    sum += c;
  }
  return sum;
}

TEST(BitSerialProps, PhasesGrow) {
  const auto phases = pimdb::bitserial_agg_phases(16, 1024, pim::AggOp::kSum);
  EXPECT_EQ(phases.size(), 11u);  // mask + log2(1024) levels
  for (std::size_t i = 2; i < phases.size(); ++i) {  // SUM widths grow
    EXPECT_GE(phases[i], phases[i - 1]);
  }
}

TEST(BitSerialProps, SumCostsMoreThanMinAtWidth) {
  // The adder chain is pricier than compare+select per level.
  EXPECT_GT(bitserial_cycles(32, 1024, pim::AggOp::kSum),
            bitserial_cycles(32, 1024, pim::AggOp::kMin));
}

TEST(BitSerialProps, MonotoneInWidthAndRows) {
  EXPECT_GT(bitserial_cycles(32, 1024, pim::AggOp::kSum),
            bitserial_cycles(16, 1024, pim::AggOp::kSum));
  EXPECT_GT(bitserial_cycles(16, 1024, pim::AggOp::kSum),
            bitserial_cycles(16, 256, pim::AggOp::kSum));
}

TEST(BitSerialProps, DwarfsTheAggregationCircuit) {
  // The paper's whole point: the circuit replaces thousands of bulk cycles
  // with ~1k serial reads.
  const pim::PimConfig cfg;
  // All crossbars of a page run the broadcast sequence concurrently.
  const double bit_serial_ns =
      static_cast<double>(bitserial_cycles(16, 1024, pim::AggOp::kSum)) *
      cfg.logic_cycle_ns;
  const double circuit_ns = (1024 * 1 + 64) * cfg.read_cycle_ns;
  EXPECT_GT(bit_serial_ns, 5 * circuit_ns);
}

TEST(BitSerialProps, Validation) {
  EXPECT_THROW(pimdb::bitserial_agg_phases(0, 1024, pim::AggOp::kSum),
               std::invalid_argument);
  EXPECT_THROW(pimdb::bitserial_agg_phases(16, 1000, pim::AggOp::kSum),
               std::invalid_argument);  // not a power of two
}

}  // namespace
}  // namespace bbpim
