// Ablation: data skew and the hybrid GROUP-BY.
//
// Section IV's technique "relies on the fact that database data is not
// uniformly distributed" [15]: a few large subgroups go to pim-gb, the long
// tail to host-gb. This bench regenerates SSB at several Zipf exponents and
// shows how the planner's split and the hybrid's advantage over the fixed
// policies react — at theta=0 (uniform) peeling subgroups buys little; with
// heavy skew the head groups dominate r(k). One session per generated
// database; a shared ModelCache fits the latency models exactly once.
#include <iostream>
#include <memory>

#include "common/table_printer.hpp"
#include "common/units.hpp"
#include "db/db.hpp"
#include "harness.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/queries.hpp"

int main() {
  using namespace bbpim;

  db::SessionOptions opts;
  opts.models = std::make_shared<db::ModelCache>();  // fit once, share

  std::cout << "=== Zipf exponent sweep (SSB Q3.2, sf=0.05) ===\n";
  TablePrinter t({"theta", "sampled groups", "largest mass", "chosen k",
                  "hybrid [ms]", "k=0 [ms]", "pure-pim [ms]"});
  for (const double theta : {0.0, 0.4, 0.75, 1.1}) {
    bench::BenchConfig cfg;
    cfg.scale_factor = 0.05;
    cfg.zipf_theta = theta;
    const ssb::SsbData data = bench::generate_data(cfg);
    db::Database database;
    database.register_table(ssb::prejoin_ssb(data));
    db::Session session(database, opts);
    const db::PreparedStatement stmt = session.prepare(ssb::query("3.2").sql);

    const db::ResultSet hybrid = stmt.execute();
    engine::ExecOptions k0;
    k0.force_k = 0;
    const db::ResultSet host_only = stmt.execute(db::BackendKind::kOneXb, k0);
    engine::ExecOptions kall;
    kall.force_k = hybrid.stats().total_subgroups;
    const db::ResultSet pim_all = stmt.execute(db::BackendKind::kOneXb, kall);

    const auto& st = hybrid.stats();
    const double top_mass =
        st.candidate_masses.empty() ? 0.0 : st.candidate_masses.front();
    t.add_row({TablePrinter::fmt(theta, 2),
               std::to_string(st.sampled_subgroups),
               TablePrinter::fmt(top_mass, 3),
               std::to_string(st.pim_subgroups),
               TablePrinter::fmt(units::ns_to_ms(st.total_ns), 3),
               TablePrinter::fmt(units::ns_to_ms(host_only.stats().total_ns), 3),
               TablePrinter::fmt(units::ns_to_ms(pim_all.stats().total_ns), 3)});
  }
  t.print(std::cout);
  std::cout << "\nHigher theta concentrates the selected records into fewer "
               "subgroups (larger head mass) — exactly the regime where "
               "peeling the head with pim-gb pays. At uniform data the "
               "hybrid degenerates to whichever fixed policy is cheaper.\n";
  return 0;
}
