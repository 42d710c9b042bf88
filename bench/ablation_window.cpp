// Ablation: the outstanding-PIM-request window.
//
// Page controllers are independent, so the host can pipeline macro requests
// arbitrarily deep — which is what makes phase latency linear in M but also
// what stacks concurrent bulk-logic power (Fig. 8). This bench sweeps the
// per-thread window — one session per host configuration over one shared
// catalog — and reports the latency/peak-power tradeoff on a logic-heavy
// query (Q1.1: product decomposition + filter on every page), the knob a
// deployment would use to enforce a chip power budget.
#include <iostream>

#include "common/table_printer.hpp"
#include "common/units.hpp"
#include "db/db.hpp"
#include "harness.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/queries.hpp"

int main() {
  using namespace bbpim;

  const ssb::SsbData data =
      bench::generate_data(bench::BenchConfig::from_env());

  db::Database database;
  database.register_table(ssb::prejoin_ssb(data));

  std::cout << "=== Outstanding-request window sweep (SSB Q1.1) ===\n";
  TablePrinter t({"window/thread", "runtime [ms]", "peak power [W/chip]",
                  "energy [mJ]"});
  for (const std::uint32_t window : {1u, 2u, 4u, 8u, 16u, 0u}) {
    db::SessionOptions opts;
    opts.host.request_window = window;
    db::Session session(database, opts);
    const db::ResultSet out =
        session.execute(ssb::query("1.1").sql, db::BackendKind::kOneXb);
    t.add_row({window == 0 ? "unlimited" : std::to_string(window),
               TablePrinter::fmt(units::ns_to_ms(out.stats().total_ns), 3),
               TablePrinter::fmt(out.stats().peak_chip_w, 3),
               TablePrinter::fmt(out.stats().energy_j * 1e3, 3)});
  }
  t.print(std::cout);
  std::cout << "\nEnergy is window-independent (same work); the window only "
               "trades peak power against latency. The paper's <44 W/chip "
               "bound holds even unlimited because host issue rate already "
               "spaces the requests.\n";
  return 0;
}
