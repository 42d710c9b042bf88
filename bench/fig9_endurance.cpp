// Fig. 9: required cell endurance, running each query back-to-back for ten
// years (100% duty cycle) with row-level wear leveling.
//
// RRAM endurance is ~1e12 writes [22]; every engine must stay below it.
// The paper's lifetime headline: on the queries where one_xb and PIMDB both
// do few PIM aggregations (Q1.1-1.3, Q3.4), one_xb's cells last ~3.21x
// longer.
#include <iostream>

#include "common/table_printer.hpp"
#include "harness.hpp"

int main() {
  using namespace bbpim;
  bench::BenchWorld world;
  const auto& runs = world.run_all();
  const std::uint32_t cells = world.pim_config().crossbar_cols;

  std::cout << "=== Fig. 9: 10-year write cycles per cell (sf="
            << world.config().scale_factor << ") ===\n";
  TablePrinter t({"Q", "one_xb", "two_xb", "pimdb", "one_xb ok?"});
  bool all_ok = true;
  for (const auto& r : runs) {
    const double one = bench::QueryRun::endurance_cycles(r.one_xb.stats, cells);
    const double two = bench::QueryRun::endurance_cycles(r.two_xb.stats, cells);
    const double pdb = bench::QueryRun::endurance_cycles(r.pimdb.stats, cells);
    const bool ok = one < 1e12;
    all_ok = all_ok && ok;
    t.add_row({r.id, TablePrinter::fmt_sci(one, 2), TablePrinter::fmt_sci(two, 2),
               TablePrinter::fmt_sci(pdb, 2), ok ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\nRRAM endurance budget: 1e12 writes per cell [22]; "
            << (all_ok ? "all one_xb queries fit." : "BUDGET EXCEEDED!")
            << "\n";

  // Lifetime comparison on the queries with few PIM aggregations for both.
  bench::print_headlines(runs, cells, bench::Headline::Axis::kLifetime);
  return 0;
}
