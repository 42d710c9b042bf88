// Fig. 7: PIM memory energy for the SSB queries.
//
// Per-query module energy for the three PIM engines, a category breakdown
// for one_xb, and the paper's headline: when PIMDB aggregates in PIM
// (Q1.1-1.3, Q2.3, Q3.4, Q4.1) it burns ~4.31x more energy than one_xb.
#include <iostream>

#include "common/table_printer.hpp"
#include "harness.hpp"

int main() {
  using namespace bbpim;
  bench::BenchWorld world;
  const auto& runs = world.run_all();

  std::cout << "=== Fig. 7: PIM module energy [mJ] (sf="
            << world.config().scale_factor << ") ===\n";
  TablePrinter t({"Q", "one_xb", "two_xb", "pimdb"});
  for (const auto& r : runs) {
    t.add_row({r.id, TablePrinter::fmt(r.one_xb.stats.energy_j * 1e3, 3),
               TablePrinter::fmt(r.two_xb.stats.energy_j * 1e3, 3),
               TablePrinter::fmt(r.pimdb.stats.energy_j * 1e3, 3)});
  }
  t.print(std::cout);

  std::cout << "\n=== one_xb energy breakdown [mJ] ===\n";
  TablePrinter b({"Q", "logic", "reads", "writes", "controllers", "agg circuit"});
  for (const auto& r : runs) {
    const auto& s = r.one_xb.stats;
    b.add_row({r.id, TablePrinter::fmt(s.energy_logic_j * 1e3, 3),
               TablePrinter::fmt(s.energy_read_j * 1e3, 3),
               TablePrinter::fmt(s.energy_write_j * 1e3, 3),
               TablePrinter::fmt(s.energy_controller_j * 1e3, 3),
               TablePrinter::fmt(s.energy_agg_circuit_j * 1e3, 3)});
  }
  b.print(std::cout);

  // Queries where pimdb's planner chose PIM aggregation.
  std::cout << "\nQueries where pimdb aggregates in PIM:";
  for (const auto& r : runs) {
    if (r.pimdb.stats.pim_subgroups > 0) std::cout << " Q" << r.id;
  }
  std::cout << "\n";
  bench::print_headlines(runs, world.pim_config().crossbar_cols,
                         bench::Headline::Axis::kEnergy);
  return 0;
}
