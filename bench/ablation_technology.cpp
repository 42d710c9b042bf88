// Ablation: memory technology (RRAM vs DRAM vs PCM substrates).
//
// Bulk-bitwise PIM exists on several substrates (Section II-B's citations:
// MAGIC-RRAM [1,3,5], Ambit/SIMDRAM DRAM [2,4], Pinatubo PCM [6]). This
// bench re-runs two representative SSB queries on each technology preset —
// one session per substrate, same geometry, same forced plans, different
// cycle/energy constants — and checks whether the paper's conclusions
// survive the substrate swap, including the ten-year endurance budget of
// each technology.
#include <iostream>

#include "common/table_printer.hpp"
#include "common/units.hpp"
#include "db/db.hpp"
#include "harness.hpp"
#include "pim/endurance.hpp"
#include "pim/technology.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/queries.hpp"

int main() {
  using namespace bbpim;

  bench::BenchConfig cfg;
  cfg.scale_factor = 0.05;
  const ssb::SsbData data = bench::generate_data(cfg);

  db::Database database;
  database.register_table(ssb::prejoin_ssb(data));

  for (const char* id : {"1.1", "2.2"}) {
    std::cout << "=== SSB Q" << id << " across technologies ===\n";
    TablePrinter t({"tech", "runtime [ms]", "energy [mJ]", "peak [W/chip]",
                    "10y writes/cell", "budget", "lifetime"});
    for (const pim::Technology tech :
         {pim::Technology::kRram, pim::Technology::kDram,
          pim::Technology::kPcm}) {
      db::SessionOptions opts;
      opts.pim = pim::technology_config(tech);
      db::Session session(database, opts);
      engine::ExecOptions exec;
      exec.force_k = 0;  // identical plans across technologies
      const db::ResultSet out =
          session.execute(ssb::query(id).sql, db::BackendKind::kOneXb, exec);
      const pim::EnduranceReport rep = pim::endurance_report(
          out.stats().wear_row_writes, out.stats().total_ns, opts.pim, 10.0,
          pim::technology_endurance_writes(tech));
      t.add_row({pim::technology_name(tech),
                 TablePrinter::fmt(units::ns_to_ms(out.stats().total_ns), 3),
                 TablePrinter::fmt(out.stats().energy_j * 1e3, 3),
                 TablePrinter::fmt(out.stats().peak_chip_w, 3),
                 TablePrinter::fmt_sci(rep.writes_over_horizon, 2),
                 TablePrinter::fmt_sci(
                     pim::technology_endurance_writes(tech), 0),
                 rep.within_budget
                     ? TablePrinter::fmt(rep.lifetime_years, 0) + " y"
                     : "EXCEEDED"});
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "DRAM trades a 3.5x slower logic cycle for unlimited "
               "endurance and cheaper ops; PCM pays heavily on writes. The "
               "paper's RRAM sits between — fast logic, finite but "
               "sufficient endurance.\n";
  return 0;
}
