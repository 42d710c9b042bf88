// Google-benchmark microbenchmarks of the simulator's hot paths.
//
// These measure this library's own execution speed (how fast the functional
// simulation runs on the build machine), not simulated PIM time — useful
// when tuning the simulator itself.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "pim/agg_circuit.hpp"
#include "pim/controller.hpp"
#include "pim/crossbar.hpp"
#include "pim/microcode.hpp"
#include "pim/module.hpp"

namespace {

using namespace bbpim;

pim::Crossbar make_filled_crossbar(std::uint32_t rows = 1024,
                                   std::uint32_t cols = 512) {
  pim::Crossbar xb(rows, cols);
  Rng rng(1);
  for (std::uint32_t r = 0; r < rows; ++r) {
    xb.write_row_bits(r, 0, 64, rng.next_u64());
  }
  return xb;
}

void BM_CrossbarNorCycle(benchmark::State& state) {
  pim::Crossbar xb = make_filled_crossbar();
  const pim::MicroOp op = pim::MicroOp::nor_op(0, 1, 100);
  for (auto _ : state) {
    xb.execute(op);
    benchmark::DoNotOptimize(xb);
  }
  state.SetItemsProcessed(state.iterations() * xb.rows());
}
BENCHMARK(BM_CrossbarNorCycle);

void BM_BuildEqProgram(benchmark::State& state) {
  const std::uint16_t width = static_cast<std::uint16_t>(state.range(0));
  for (auto _ : state) {
    pim::ColumnAlloc alloc(256, 512);
    pim::ProgramBuilder pb(alloc);
    const std::uint16_t col = pb.emit_eq_const(pim::Field{0, width}, 12345);
    pb.release(col);
    benchmark::DoNotOptimize(pb.program());
  }
}
BENCHMARK(BM_BuildEqProgram)->Arg(8)->Arg(16)->Arg(32);

void BM_ExecuteBetweenFilter(benchmark::State& state) {
  pim::Crossbar xb = make_filled_crossbar();
  pim::ColumnAlloc alloc(256, 512);
  pim::ProgramBuilder pb(alloc);
  const std::uint16_t col =
      pb.emit_between_const(pim::Field{0, 20}, 1000, 500000);
  const pim::MicroProgram prog = pb.program().gates;
  for (auto _ : state) {
    xb.execute(prog);
    benchmark::DoNotOptimize(xb);
  }
  pb.release(col);
  state.SetItemsProcessed(state.iterations() * xb.rows());
  state.counters["cycles"] = static_cast<double>(prog.size());
}
BENCHMARK(BM_ExecuteBetweenFilter);

void BM_AggCircuitPass(benchmark::State& state) {
  pim::PimConfig cfg;
  pim::Crossbar xb = make_filled_crossbar();
  Rng rng(2);
  for (std::uint32_t r = 0; r < xb.rows(); ++r) {
    xb.set_bit(r, 200, rng.next_double() < 0.5);
  }
  for (auto _ : state) {
    pim::AggCircuitCost cost;
    const std::uint64_t v = pim::run_agg_circuit(
        xb, pim::Field{0, 20}, 200, pim::AggOp::kSum, pim::Field{300, 31}, 0,
        cfg, &cost);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * xb.rows());
}
BENCHMARK(BM_AggCircuitPass);

void BM_ReadBitColumn(benchmark::State& state) {
  pim::PimConfig cfg;
  pim::PimModule module(cfg);
  module.allocate_pages(1);
  for (auto _ : state) {
    BitVec bits;
    pim::read_bit_column(module.page(0), 100, 50.0, cfg, nullptr, &bits);
    benchmark::DoNotOptimize(bits);
  }
  state.SetItemsProcessed(state.iterations() *
                          module.page(0).records());
}
BENCHMARK(BM_ReadBitColumn);

}  // namespace

BENCHMARK_MAIN();
