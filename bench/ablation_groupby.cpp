// Ablation: the hybrid GROUP-BY's k choice (Section IV).
//
// Sweeps the pim-gb/host-gb split k on representative queries and compares
// the measured latency curve with the Equation-3 model prediction, showing
// (a) that the planner's k sits at/near the measured minimum and (b) what
// pure-host (k=0) and pure-PIM (k=kmax) would cost instead — i.e. the value
// of the hybrid over either fixed policy. Each query is prepared once and
// re-executed with forced k through the session facade.
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/table_printer.hpp"
#include "common/units.hpp"
#include "harness.hpp"

int main() {
  using namespace bbpim;
  bench::BenchWorld world;

  for (const char* id : {"2.2", "2.1", "3.2"}) {
    const db::PreparedStatement stmt =
        world.session().prepare(ssb::query(id).sql);

    // Planner's own choice first.
    const engine::QueryOutput chosen = stmt.execute().output();
    const std::size_t kmax = chosen.stats.total_subgroups;
    std::cout << "=== Q" << id << ": planner chose k="
              << chosen.stats.pim_subgroups << " of " << kmax << " ("
              << TablePrinter::fmt(units::ns_to_ms(chosen.stats.total_ns), 3)
              << " ms) ===\n";

    // Sweep forced k values around the decision space.
    std::vector<std::size_t> ks = {0, 1, 2, 4, 8, 16, 32, 64, kmax};
    ks.erase(std::remove_if(ks.begin(), ks.end(),
                            [&](std::size_t k) { return k > kmax; }),
             ks.end());
    ks.erase(std::unique(ks.begin(), ks.end()), ks.end());

    TablePrinter t({"k", "measured [ms]", "pim_gb [ms]", "host_gb [ms]",
                    "planner's k?"});
    double best = -1;
    std::size_t best_k = 0;
    for (const std::size_t k : ks) {
      engine::ExecOptions opts;
      opts.force_k = k;
      const engine::QueryOutput out =
          stmt.execute(db::BackendKind::kOneXb, opts).output();
      const double ms = units::ns_to_ms(out.stats.total_ns);
      if (best < 0 || ms < best) {
        best = ms;
        best_k = k;
      }
      t.add_row({std::to_string(k), TablePrinter::fmt(ms, 3),
                 TablePrinter::fmt(units::ns_to_ms(out.stats.phases.pim_gb), 3),
                 TablePrinter::fmt(units::ns_to_ms(out.stats.phases.host_gb), 3),
                 k == chosen.stats.pim_subgroups ? "<== chosen" : ""});
    }
    t.print(std::cout);
    std::cout << "Measured best k in sweep: " << best_k << " ("
              << TablePrinter::fmt(best, 3) << " ms); planner's pick is "
              << TablePrinter::fmt(
                     units::ns_to_ms(chosen.stats.total_ns) / best, 2)
              << "x of that optimum.\n\n";
  }
  return 0;
}
