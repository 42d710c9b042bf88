// Zone-map pruning: modeled work and simulator wall-clock, prune off vs on.
//
// Zone maps pay off when data is clustered on the filtered attributes, so
// this bench loads a DATE-CLUSTERED copy of the pre-joined relation (rows
// stable-sorted by lo_orderdate — the layout a warehouse ingesting facts
// chronologically gets for free) and runs the selective SSB subset, flights
// 1 and 3. Flight-1 queries carry tight date predicates (a year, a month, a
// week), flight-3 queries group by d_year, so both the filter phase and the
// per-subgroup pim-gb phase can skip most pages.
//
// Two arms per query — HostConfig::prune off (the default) and on — at 1
// and 8 simulation threads, each arm one session over the same catalog
// (they share one snapshot and one model fit):
//
//   work      modeled PIM-module energy (thread-count-invariant): the
//             operations the modeled hardware no longer performs. Energy is
//             the honest work metric here — modeled *latency* at bench
//             scale is dominated by the fixed per-phase barrier
//             (HostConfig::phase_overhead_ns) and by reading true
//             survivors, neither of which data skipping can remove;
//   modeled   total simulated nanoseconds (also reported; improves less,
//             for the reason above);
//   wall      how long the simulation itself takes on this machine: the
//             pages the simulator no longer loops over.
//
// Parity is enforced, not assumed: for every query the pruned rows must be
// byte-identical to the unpruned rows, the result-semantic stats (selected
// records, subgroup counts, planner inputs) must match exactly, and the
// pruned modeled cost must never exceed the unpruned one. Any divergence
// exits non-zero — this is the CI smoke for the pruning subsystem.
//
// Writes BENCH_prune_speed.json (bench::Ledger) in the working directory.
//
// Env: BBPIM_SF (default 0.1), BBPIM_SIM_REPS (best-of repetitions,
// default 3).
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table_printer.hpp"
#include "harness.hpp"

int main() {
  using namespace bbpim;
  using C = bench::Ledger::Clock;
  constexpr std::uint32_t kSimThreads = 8;
  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  const std::size_t reps = bench::env_u64("BBPIM_SIM_REPS", 3);
  const std::vector<std::string> flight_ids = {"1.1", "1.2", "1.3", "3.1",
                                               "3.2", "3.3", "3.4"};

  const ssb::SsbData data = bench::generate_data(cfg);

  std::cerr << "[bench] clustering the pre-joined relation on lo_orderdate"
            << "...\n";
  db::Database database;
  rel::Table prejoined = ssb::prejoin_ssb(data);
  const std::size_t orderdate = *prejoined.schema().index_of("lo_orderdate");
  const rel::Table& clustered =
      database.register_table(rel::cluster_by(prejoined, orderdate));

  // One session per arm: sim_threads and prune are HostConfig settings.
  // Every arm pins the same snapshot (keyed by the PIM config) and shares
  // one ModelCache (the fit fingerprint leaves both settings out).
  db::SessionOptions opts = bench::bench_session_options(cfg);
  opts.models = std::make_shared<db::ModelCache>(opts.model_cache_dir);
  const auto arm_session = [&](std::uint32_t sim_threads, bool prune) {
    db::SessionOptions arm = opts;
    arm.host.sim_threads = sim_threads;
    arm.host.prune = prune;
    return std::make_unique<db::Session>(database, arm);
  };
  const auto off1 = arm_session(1, false), on1 = arm_session(1, true);
  const auto offn = arm_session(kSimThreads, false);
  const auto onn = arm_session(kSimThreads, true);
  const db::BackendKind backend = db::BackendKind::kOneXb;

  std::cout << "=== Zone-map pruning: SSB flights 1+3 on date-clustered data "
            << "===\n"
            << "sf=" << cfg.scale_factor << ", records="
            << clustered.row_count() << ", sim threads 1/" << kSimThreads
            << ", best of " << reps << "\n\n";

  // Warm everything outside the timed region (store load, model fit, each
  // session's plan cache, compiled-filter caches for both predicate orders).
  for (const std::string& id : flight_ids) {
    for (db::Session* session :
         {off1.get(), on1.get(), offn.get(), onn.get()}) {
      session->execute(ssb::query(id).sql, backend);
    }
  }

  bench::Ledger ledger("prune_speed");
  ledger.set("scale_factor", cfg.scale_factor);
  ledger.set("sim_threads", kSimThreads);
  ledger.set("reps", reps);

  const std::string nt = std::to_string(kSimThreads) + "t";
  TablePrinter t({"query", "work off [uJ]", "work on [uJ]", "work", "modeled",
                  "wall-1t", "wall-" + nt, "pages skipped"});
  bool parity_ok = true;
  double modeled_off_total = 0, modeled_on_total = 0;
  double energy_off_total = 0, energy_on_total = 0;
  double wall1_off_total = 0, wall1_on_total = 0;
  double walln_off_total = 0, walln_on_total = 0;

  for (const std::string& id : flight_ids) {
    const auto& q = ssb::query(id);

    const db::ResultSet ref = off1->execute(q.sql, backend);
    const db::ResultSet pruned = on1->execute(q.sql, backend);

    // --- parity: rows byte-identical, semantic stats exact, cost <= -------
    if (pruned.rows() != ref.rows()) {
      std::cerr << "FAIL: pruned rows diverge for q" << id << "\n";
      parity_ok = false;
    }
    if (!engine::stats_equal(pruned.stats(), ref.stats(),
                             {engine::StatClass::kPlan})) {
      std::cerr << "FAIL: pruned semantic stats diverge for q" << id << "\n";
      parity_ok = false;
    }
    if (pruned.stats().total_ns > ref.stats().total_ns ||
        pruned.stats().energy_j > ref.stats().energy_j) {
      std::cerr << "FAIL: pruning increased modeled cost for q" << id << "\n";
      parity_ok = false;
    }
    // Thread-count invariance of both arms.
    const db::ResultSet refn = offn->execute(q.sql, backend);
    const db::ResultSet prunedn = onn->execute(q.sql, backend);
    if (refn.rows() != ref.rows() || prunedn.rows() != ref.rows() ||
        refn.stats().total_ns != ref.stats().total_ns ||
        prunedn.stats().total_ns != pruned.stats().total_ns) {
      std::cerr << "FAIL: thread-count variance for q" << id << "\n";
      parity_ok = false;
    }

    // Modeled values and zone-map counters of one arm (thread-count
    // invariant, checked above) and its best-of wall-clock.
    const auto record_arm = [&](const std::string& arm,
                                const db::ResultSet& rs,
                                db::Session& session) {
      const engine::QueryStats& s = rs.stats();
      const double wall_ms =
          bench::best_of_ms(reps, [&] { session.execute(q.sql, backend); });
      const char* const exec = "engine.query_exec";
      ledger.record(arm, id, exec, C::kModeled, "total_ns", s.total_ns);
      ledger.record(arm, id, exec, C::kModeled, "energy_j", s.energy_j);
      ledger.record(arm, id, "engine.zone_map", C::kCount, "pages_skipped",
                    s.pages_skipped);
      ledger.record(arm, id, "engine.zone_map", C::kCount,
                    "group_pages_skipped", s.group_pages_skipped);
      ledger.record(arm, id, "engine.zone_map", C::kCount,
                    "predicates_short_circuited", s.predicates_short_circuited);
      ledger.record(arm, id, "db.session", C::kWall, "wall_ms", wall_ms);
      return wall_ms;
    };
    const double wall1_off = record_arm("off-1t", ref, *off1);
    const double wall1_on = record_arm("on-1t", pruned, *on1);
    const double walln_off = record_arm("off-" + nt, refn, *offn);
    const double walln_on = record_arm("on-" + nt, prunedn, *onn);

    const engine::QueryStats& off = ref.stats();
    const engine::QueryStats& on = pruned.stats();
    modeled_off_total += off.total_ns;
    modeled_on_total += on.total_ns;
    energy_off_total += off.energy_j;
    energy_on_total += on.energy_j;
    wall1_off_total += wall1_off;
    wall1_on_total += wall1_on;
    walln_off_total += walln_off;
    walln_on_total += walln_on;

    t.add_row({id, TablePrinter::fmt(off.energy_j * 1e6, 2),
               TablePrinter::fmt(on.energy_j * 1e6, 2),
               TablePrinter::fmt(off.energy_j / on.energy_j, 2) + "x",
               TablePrinter::fmt(off.total_ns / on.total_ns, 2) + "x",
               TablePrinter::fmt(wall1_off / wall1_on, 2) + "x",
               TablePrinter::fmt(walln_off / walln_on, 2) + "x",
               std::to_string(on.pages_skipped)});
  }

  const double work_speedup = energy_off_total / energy_on_total;
  const double modeled_speedup = modeled_off_total / modeled_on_total;
  const double wall1_speedup = wall1_off_total / wall1_on_total;
  const double walln_speedup = walln_off_total / walln_on_total;
  t.add_row({"total", TablePrinter::fmt(energy_off_total * 1e6, 2),
             TablePrinter::fmt(energy_on_total * 1e6, 2),
             TablePrinter::fmt(work_speedup, 2) + "x",
             TablePrinter::fmt(modeled_speedup, 2) + "x",
             TablePrinter::fmt(wall1_speedup, 2) + "x",
             TablePrinter::fmt(walln_speedup, 2) + "x", ""});
  t.print(std::cout);
  std::cout << "\nparity: "
            << (parity_ok ? "rows and semantic stats identical" : "MISMATCH")
            << "\nmodeled-work (module energy) reduction: "
            << TablePrinter::fmt(work_speedup, 2)
            << "x, modeled-latency reduction: "
            << TablePrinter::fmt(modeled_speedup, 2)
            << "x\nwall-clock reduction: "
            << TablePrinter::fmt(wall1_speedup, 2) << "x (1t) / "
            << TablePrinter::fmt(walln_speedup, 2) << "x (" << nt << ")\n";

  if (!parity_ok) return 1;
  ledger.write();
  return 0;
}
