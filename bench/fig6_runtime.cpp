// Fig. 6: execution latency for the SSB queries, all five systems.
//
// one_xb / two_xb / pimdb report simulated time from the PIM cost model;
// mnt_join / mnt_reg report the deterministic server model (their functional
// wall time on this machine is shown for reference). Geo-mean speedups
// reproduce the paper's headline comparisons.
#include <iostream>

#include "common/table_printer.hpp"
#include "common/units.hpp"
#include "harness.hpp"

int main() {
  using namespace bbpim;
  bench::BenchWorld world;
  const auto& runs = world.run_all();

  std::cout << "=== Fig. 6: SSB query run time [ms] (sf="
            << world.config().scale_factor << ") ===\n";
  TablePrinter t({"Q", "one_xb", "two_xb", "pimdb", "mnt_join", "mnt_reg",
                  "mnt_join wall"});
  const auto ms = [](double ns) {
    return TablePrinter::fmt(units::ns_to_ms(ns), 3);
  };
  for (const auto& r : runs) {
    t.add_row({r.id, ms(r.one_xb.stats.total_ns), ms(r.two_xb.stats.total_ns),
               ms(r.pimdb.stats.total_ns), ms(r.mnt_join.model_ns),
               ms(r.mnt_reg.model_ns), ms(r.mnt_join.wall_ns)});
  }
  t.print(std::cout);

  std::cout << "\n=== Geo-mean comparisons ===\n";
  bench::print_headlines(runs, world.pim_config().crossbar_cols,
                         bench::Headline::Axis::kRuntime);

  // The paper's crossover: on the highest-selectivity GROUP-BY queries the
  // 32x read amplification erases the PIM advantage.
  std::cout << "\nHigh-selectivity crossovers (Q2.1/Q3.1/Q4.1 in the paper):\n";
  for (const auto& r : runs) {
    if (r.id == "2.1" || r.id == "3.1" || r.id == "4.1") {
      const bool pim_loses_or_ties =
          r.two_xb.stats.total_ns > 0.8 * r.mnt_join.model_ns;
      std::cout << "  Q" << r.id << ": two_xb/mnt_join = "
                << TablePrinter::fmt(
                       r.two_xb.stats.total_ns / r.mnt_join.model_ns, 2)
                << (pim_loses_or_ties ? " (PIM advantage gone, as in paper)"
                                      : "")
                << "\n";
    }
  }
  return 0;
}
