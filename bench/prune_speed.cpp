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
// Two arms per query — ExecOptions::prune off (the default) and on — at 1
// and N simulation threads:
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
// Emits BENCH_prune_speed.json in the working directory.
//
// Env: BBPIM_SF (default 0.1), BBPIM_SIM_THREADS (default 8),
// BBPIM_SIM_REPS (best-of repetitions, default 3).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/table_printer.hpp"
#include "harness.hpp"

namespace {

using namespace bbpim;

/// Stable re-sort of a relation by one attribute's codes (the clustering a
/// chronological fact load produces for the date hierarchy).
rel::Table cluster_by(const rel::Table& t, const std::string& attr) {
  const std::size_t a = *t.schema().index_of(attr);
  std::vector<std::size_t> order(t.row_count());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t i, std::size_t j) {
                     return t.value(i, a) < t.value(j, a);
                   });
  rel::Table out(t.schema(), t.name());
  out.reserve(t.row_count());
  const std::size_t nattrs = t.schema().attribute_count();
  std::vector<std::uint64_t> row(nattrs);
  for (const std::size_t r : order) {
    for (std::size_t k = 0; k < nattrs; ++k) row[k] = t.value(r, k);
    out.append_row(row);
  }
  return out;
}

struct QueryResult {
  std::string id;
  double modeled_off_ns = 0;
  double modeled_on_ns = 0;
  double energy_off_j = 0;
  double energy_on_j = 0;
  double wall1_off_ms = 0, wall1_on_ms = 0;
  double walln_off_ms = 0, walln_on_ms = 0;
  std::size_t pages_skipped = 0;
  std::size_t group_pages_skipped = 0;
  std::size_t predicates_short_circuited = 0;
};

}  // namespace

int main() {
  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  const std::uint32_t threads =
      static_cast<std::uint32_t>(bench::env_u64("BBPIM_SIM_THREADS", 8));
  const std::size_t reps = bench::env_u64("BBPIM_SIM_REPS", 3);
  const std::vector<std::string> flight_ids = {"1.1", "1.2", "1.3", "3.1",
                                               "3.2", "3.3", "3.4"};

  std::cerr << "[bench] generating SSB (sf=" << cfg.scale_factor << ")...\n";
  ssb::SsbConfig gen;
  gen.scale_factor = cfg.scale_factor;
  gen.zipf_theta = cfg.zipf_theta;
  gen.seed = cfg.seed;
  const ssb::SsbData data = ssb::generate(gen);

  std::cerr << "[bench] clustering the pre-joined relation on lo_orderdate"
            << "...\n";
  db::Database database;
  const rel::Table& clustered = database.register_table(
      cluster_by(ssb::prejoin_ssb(data), "lo_orderdate"));

  db::SessionOptions opts = bench::bench_session_options(cfg);
  db::Session session(database, opts);
  const db::BackendKind backend = db::BackendKind::kOneXb;

  std::cout << "=== Zone-map pruning: SSB flights 1+3 on date-clustered data "
            << "===\n"
            << "sf=" << cfg.scale_factor << ", records="
            << clustered.row_count() << ", sim threads 1/" << threads
            << ", best of " << reps << "\n\n";

  // Warm everything outside the timed region (store load, model fit, plan
  // and compiled-filter caches for both predicate orders).
  for (const std::string& id : flight_ids) {
    const auto& q = ssb::query(id);
    session.execute(q.sql, backend);
    engine::ExecOptions on;
    on.prune = true;
    session.execute(q.sql, backend, on);
  }

  TablePrinter t({"query", "work off [uJ]", "work on [uJ]", "work", "modeled",
                  "wall-1t", "wall-" + std::to_string(threads) + "t",
                  "pages skipped"});
  std::vector<QueryResult> results;
  bool parity_ok = true;
  double modeled_off_total = 0, modeled_on_total = 0;
  double energy_off_total = 0, energy_on_total = 0;
  double wall1_off_total = 0, wall1_on_total = 0;
  double walln_off_total = 0, walln_on_total = 0;

  for (const std::string& id : flight_ids) {
    const auto& q = ssb::query(id);
    QueryResult r;
    r.id = id;

    engine::ExecOptions off1, on1, offn, onn;
    off1.sim_threads = 1;
    on1.sim_threads = 1;
    on1.prune = true;
    offn.sim_threads = threads;
    onn.sim_threads = threads;
    onn.prune = true;

    const db::ResultSet ref = session.execute(q.sql, backend, off1);
    const db::ResultSet pruned = session.execute(q.sql, backend, on1);

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
    const db::ResultSet refn = session.execute(q.sql, backend, offn);
    const db::ResultSet prunedn = session.execute(q.sql, backend, onn);
    if (refn.rows() != ref.rows() || prunedn.rows() != ref.rows() ||
        refn.stats().total_ns != ref.stats().total_ns ||
        prunedn.stats().total_ns != pruned.stats().total_ns) {
      std::cerr << "FAIL: thread-count variance for q" << id << "\n";
      parity_ok = false;
    }

    r.modeled_off_ns = ref.stats().total_ns;
    r.modeled_on_ns = pruned.stats().total_ns;
    r.energy_off_j = ref.stats().energy_j;
    r.energy_on_j = pruned.stats().energy_j;
    r.pages_skipped = pruned.stats().pages_skipped;
    r.group_pages_skipped = pruned.stats().group_pages_skipped;
    r.predicates_short_circuited = pruned.stats().predicates_short_circuited;

    r.wall1_off_ms =
        bench::best_of_ms(reps, [&] { session.execute(q.sql, backend, off1); });
    r.wall1_on_ms =
        bench::best_of_ms(reps, [&] { session.execute(q.sql, backend, on1); });
    r.walln_off_ms =
        bench::best_of_ms(reps, [&] { session.execute(q.sql, backend, offn); });
    r.walln_on_ms =
        bench::best_of_ms(reps, [&] { session.execute(q.sql, backend, onn); });

    modeled_off_total += r.modeled_off_ns;
    modeled_on_total += r.modeled_on_ns;
    energy_off_total += r.energy_off_j;
    energy_on_total += r.energy_on_j;
    wall1_off_total += r.wall1_off_ms;
    wall1_on_total += r.wall1_on_ms;
    walln_off_total += r.walln_off_ms;
    walln_on_total += r.walln_on_ms;

    t.add_row({r.id, TablePrinter::fmt(r.energy_off_j * 1e6, 2),
               TablePrinter::fmt(r.energy_on_j * 1e6, 2),
               TablePrinter::fmt(r.energy_off_j / r.energy_on_j, 2) + "x",
               TablePrinter::fmt(r.modeled_off_ns / r.modeled_on_ns, 2) + "x",
               TablePrinter::fmt(r.wall1_off_ms / r.wall1_on_ms, 2) + "x",
               TablePrinter::fmt(r.walln_off_ms / r.walln_on_ms, 2) + "x",
               std::to_string(r.pages_skipped)});
    results.push_back(r);
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
            << TablePrinter::fmt(walln_speedup, 2) << "x (" << threads
            << "t)\n";

  std::ofstream json("BENCH_prune_speed.json");
  json << "{\n"
       << "  \"bench\": \"prune_speed\",\n"
       << "  \"scale_factor\": " << cfg.scale_factor << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"hardware_threads\": " << hardware_threads() << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"clustered_on\": \"lo_orderdate\",\n"
       << "  \"queries\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const QueryResult& r = results[i];
    json << "    {\"id\": \"" << r.id << "\", \"modeled_off_ns\": "
         << r.modeled_off_ns << ", \"modeled_on_ns\": " << r.modeled_on_ns
         << ", \"modeled_speedup\": " << r.modeled_off_ns / r.modeled_on_ns
         << ", \"energy_off_j\": " << r.energy_off_j
         << ", \"energy_on_j\": " << r.energy_on_j
         << ", \"work_speedup\": " << r.energy_off_j / r.energy_on_j
         << ", \"wall1_off_ms\": " << r.wall1_off_ms
         << ", \"wall1_on_ms\": " << r.wall1_on_ms
         << ", \"walln_off_ms\": " << r.walln_off_ms
         << ", \"walln_on_ms\": " << r.walln_on_ms
         << ", \"pages_skipped\": " << r.pages_skipped
         << ", \"group_pages_skipped\": " << r.group_pages_skipped
         << ", \"predicates_short_circuited\": "
         << r.predicates_short_circuited << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"modeled_total_off_ns\": " << modeled_off_total << ",\n"
       << "  \"modeled_total_on_ns\": " << modeled_on_total << ",\n"
       << "  \"modeled_speedup\": " << modeled_speedup << ",\n"
       << "  \"energy_total_off_j\": " << energy_off_total << ",\n"
       << "  \"energy_total_on_j\": " << energy_on_total << ",\n"
       << "  \"modeled_work_speedup\": " << work_speedup << ",\n"
       << "  \"wall1_speedup\": " << wall1_speedup << ",\n"
       << "  \"walln_speedup\": " << walln_speedup << ",\n"
       << "  \"parity_ok\": " << (parity_ok ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote BENCH_prune_speed.json\n";
  return parity_ok ? 0 : 1;
}
