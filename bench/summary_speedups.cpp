// Headline numbers: every geo-mean comparison the paper's abstract and
// conclusion quote, computed from this build's runs, side by side with the
// published values.
#include <iostream>
#include <vector>

#include "common/stats.hpp"
#include "common/table_printer.hpp"
#include "harness.hpp"

int main() {
  using namespace bbpim;
  bench::BenchWorld world;
  const auto& runs = world.run_all();
  const std::uint32_t cells = world.pim_config().crossbar_cols;

  std::vector<double> one, two, pdb, mj, mr;
  std::vector<double> e_one_agg, e_pdb_agg;   // energy where pimdb PIM-aggs
  std::vector<double> w_one, w_pdb;           // endurance on Q1.x + Q3.4
  for (const auto& r : runs) {
    one.push_back(r.one_xb.stats.total_ns);
    two.push_back(r.two_xb.stats.total_ns);
    pdb.push_back(r.pimdb.stats.total_ns);
    mj.push_back(r.mnt_join.model_ns);
    mr.push_back(r.mnt_reg.model_ns);
    if (r.pimdb.stats.pim_subgroups > 0) {
      e_one_agg.push_back(r.one_xb.stats.energy_j);
      e_pdb_agg.push_back(r.pimdb.stats.energy_j);
    }
    if (r.id == "1.1" || r.id == "1.2" || r.id == "1.3" || r.id == "3.4") {
      w_one.push_back(bench::QueryRun::endurance_cycles(r.one_xb.stats, cells));
      w_pdb.push_back(bench::QueryRun::endurance_cycles(r.pimdb.stats, cells));
    }
  }

  std::cout << "=== Headline geo-means (sf=" << world.config().scale_factor
            << ") ===\n";
  TablePrinter t({"Metric", "This build", "Paper", "Direction"});
  t.add_row({"Runtime: one_xb vs PIMDB",
             TablePrinter::fmt(geomean_ratio(pdb, one), 2) + "x", "1.83x",
             "one_xb faster"});
  t.add_row({"Energy: one_xb vs PIMDB (PIM-agg queries)",
             e_pdb_agg.empty()
                 ? "n/a"
                 : TablePrinter::fmt(geomean_ratio(e_pdb_agg, e_one_agg), 2) +
                       "x",
             "4.31x", "one_xb cheaper"});
  t.add_row({"Lifetime: one_xb vs PIMDB (Q1.x, Q3.4)",
             TablePrinter::fmt(geomean_ratio(w_pdb, w_one), 2) + "x", "3.21x",
             "one_xb lasts longer"});
  t.add_row({"Runtime: one_xb vs MonetDB pre-joined",
             TablePrinter::fmt(geomean_ratio(mj, one), 2) + "x", "4.65x",
             "one_xb faster"});
  t.add_row({"Runtime: one_xb vs MonetDB standard",
             TablePrinter::fmt(geomean_ratio(mr, one), 2) + "x", "7.46x",
             "one_xb faster"});
  t.add_row({"Runtime: two_xb vs one_xb",
             TablePrinter::fmt(geomean_ratio(two, one), 2) + "x", "3.39x",
             "one_xb faster"});
  t.add_row({"Runtime: two_xb vs MonetDB pre-joined",
             TablePrinter::fmt(geomean_ratio(mj, two), 2) + "x", "1.37x",
             "two_xb faster"});
  t.print(std::cout);
  std::cout << "\nAbsolute factors shift with the scale factor and the "
               "modeled-server constants; the directions and relative "
               "orderings are the reproduction target (see README.md, "
               "\"Deviations from the paper\").\n";
  return 0;
}
