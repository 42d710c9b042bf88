// Real joins vs the paper's pre-join: SSB flights 1-4, normalized schema.
//
// The paper sidesteps JOIN by storing the pre-joined relation (Section III);
// this bench runs the SAME 13 SSB query texts both ways and puts the costs
// on one axis:
//
//   join      the normalized star schema (lineorder + 4 dimensions), each
//             table PIM-resident: per-table bulk-bitwise filter scans (the
//             dimensions as one concurrent stage, then the fact) feed a
//             host-side hash join (engine/hash_join), which groups and
//             aggregates the joined survivors;
//   prejoin   the pre-joined relation on the same one-xb engine — the
//             paper's configuration.
//
// Parity is enforced, not assumed: for every query the join rows, on
// one_xb and on two_xb, must be byte-identical to the pre-joined rows
// (dictionaries are shared through the pre-joiner, so group codes are
// directly comparable). Any divergence exits non-zero — this is the CI
// smoke for the join subsystem. So does a modeled cost of normalization
// above kMaxNormalization times the pre-joined plan over the 13 texts.
//
// Reported per query: modeled ns both ways, the join's scan/join phase
// split and its dimension stage, fact-scan selectivity, the fact rows and
// unique lines the join reads back (the readback volume the semijoin
// predicates cut), joined row count, and simulator wall-clock (8 simulation
// threads).
// Writes BENCH_join_speed.json (bench::Ledger) in the working directory.
//
// Env: BBPIM_SF (default 0.1), BBPIM_SIM_REPS (best-of repetitions,
// default 3).
#include <iostream>
#include <string>

#include "common/table_printer.hpp"
#include "harness.hpp"

int main() {
  using namespace bbpim;
  using C = bench::Ledger::Clock;
  constexpr std::uint32_t kSimThreads = 8;
  // Prefix-priced semijoins over LSB-first range comparators, the
  // concurrent dimension stage and the empty short-circuit put the
  // normalized plan at 1.25x the pre-joined one at SF 0.02 and 1.35x at
  // SF 0.1. 1.5x fails, at both scales, a return to full fact readback
  // (3.09x at SF 0.02, 6.20x at 0.1) and to back-to-back dimension scans
  // (1.89x, 1.74x); at SF 0.1 only, a return to MSB-first comparators,
  // whose gate energy prices Q3.1's semijoins out (1.76x; 1.25x at 0.02).
  constexpr double kMaxNormalization = 1.5;

  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  const std::size_t reps = bench::env_u64("BBPIM_SIM_REPS", 3);
  const ssb::SsbData data = bench::generate_data(cfg);

  // Normalized catalog: every FROM name the SSB texts use is a registered
  // table, which is exactly what routes a statement through the join
  // planner. The pre-joined catalog registers only the paper's relation, so
  // the same texts fall back to the default target there.
  db::Database normalized;
  normalized.attach_table(data.lineorder);
  normalized.attach_table(data.date);
  normalized.attach_table(data.customer);
  normalized.attach_table(data.supplier);
  normalized.attach_table(data.part);

  db::Database prejoined_db;
  const rel::Table& prejoined =
      prejoined_db.register_table(ssb::prejoin_ssb(data));

  db::SessionOptions opts = bench::bench_session_options(cfg);
  opts.host.sim_threads = kSimThreads;
  db::Session join_session(normalized, opts);
  db::Session pre_session(prejoined_db, opts);
  const db::BackendKind backend = db::BackendKind::kOneXb;

  std::cout << "=== Real joins vs pre-join: all 13 SSB queries ===\n"
            << "sf=" << cfg.scale_factor
            << ", lineorder=" << data.lineorder.row_count()
            << " rows, prejoined=" << prejoined.row_count()
            << " rows, sim threads " << kSimThreads << ", best of " << reps
            << "\n\n";

  // Warm-up: store loads, model fit (pre-joined GROUP BYs), plan and
  // compiled-filter caches for both catalogs.
  for (const ssb::SsbQuery& q : ssb::queries()) {
    join_session.execute(q.sql, backend);
    pre_session.execute(q.sql, backend);
  }

  bench::Ledger ledger("join_speed");
  ledger.set("scale_factor", cfg.scale_factor);
  ledger.set("sim_threads", kSimThreads);
  ledger.set("reps", reps);
  ledger.set("lineorder_rows", data.lineorder.row_count());

  TablePrinter t({"query", "rows", "join sel", "fact readback", "join [ms]",
                  "prejoin [ms]", "modeled", "scan share", "wall"});
  bool parity_ok = true;
  double join_total = 0, prejoin_total = 0;
  double wall_join_total = 0, wall_prejoin_total = 0;

  for (const ssb::SsbQuery& q : ssb::queries()) {
    const db::ResultSet join_rs = join_session.execute(q.sql, backend);
    const db::ResultSet pre_rs = pre_session.execute(q.sql, backend);

    // --- parity: the whole point of the normalized path ------------------
    if (join_rs.rows() != pre_rs.rows()) {
      std::cerr << "FAIL: join rows diverge from pre-joined rows for q" << q.id
                << " (" << join_rs.row_count() << " vs " << pre_rs.row_count()
                << ")\n";
      parity_ok = false;
    }
    // Two-xb runs each normalized table, which has no dimension attribute,
    // as one part: its join must return the same rows.
    if (join_session.execute(q.sql, db::BackendKind::kTwoXb).rows() !=
        pre_rs.rows()) {
      std::cerr << "FAIL: two_xb join rows diverge from pre-joined rows for q"
                << q.id << "\n";
      parity_ok = false;
    }
    if (join_rs.table_versions().size() < 2) {
      std::cerr << "FAIL: expected one pinned version per FROM table for q"
                << q.id << "\n";
      parity_ok = false;
    }

    const engine::QueryStats& js = join_rs.stats();
    const double join_ns = js.total_ns;
    const double prejoin_ns = pre_rs.stats().total_ns;
    // PIM filter + readback share, hash build/probe + finalize share, and
    // the dimension stage (its own filter and readback phases).
    const double scan_ns = js.phases.filter + js.phases.transfer;
    const double host_ns = js.phases.host_gb + js.phases.finalize;
    const double wall_join_ms = bench::best_of_ms(
        reps, [&] { join_session.execute(q.sql, backend); });
    const double wall_prejoin_ms = bench::best_of_ms(
        reps, [&] { pre_session.execute(q.sql, backend); });

    const std::string id(q.id);
    const char* const exec = "engine.query_exec";
    ledger.record("join", id, exec, C::kCount, "rows", join_rs.row_count());
    ledger.record("join", id, exec, C::kModeled, "total_ns", join_ns);
    ledger.record("join", id, exec, C::kModeled, "scan_ns", scan_ns);
    ledger.record("join", id, exec, C::kModeled, "host_ns", host_ns);
    ledger.record("join", id, exec, C::kModeled, "dims_ns", js.dims_ns);
    // Fact survivors read back, and unique lines over every scan.
    ledger.record("join", id, exec, C::kCount, "selected_records",
                  js.selected_records);
    ledger.record("join", id, exec, C::kCount, "host_lines", js.host_lines);
    ledger.record("join", id, "db.session", C::kWall, "wall_ms", wall_join_ms);
    ledger.record("prejoin", id, exec, C::kModeled, "total_ns", prejoin_ns);
    ledger.record("prejoin", id, "db.session", C::kWall, "wall_ms",
                  wall_prejoin_ms);

    join_total += join_ns;
    prejoin_total += prejoin_ns;
    wall_join_total += wall_join_ms;
    wall_prejoin_total += wall_prejoin_ms;

    t.add_row({id, std::to_string(join_rs.row_count()),
               TablePrinter::fmt(js.selectivity, 4),
               std::to_string(js.selected_records),
               TablePrinter::fmt(join_ns / 1e6, 2),
               TablePrinter::fmt(prejoin_ns / 1e6, 2),
               TablePrinter::fmt(join_ns / prejoin_ns, 2) + "x",
               TablePrinter::fmt(scan_ns / join_ns, 2),
               TablePrinter::fmt(wall_join_ms / wall_prejoin_ms, 2) + "x"});
  }
  t.add_row({"total", "", "", "", TablePrinter::fmt(join_total / 1e6, 2),
             TablePrinter::fmt(prejoin_total / 1e6, 2),
             TablePrinter::fmt(join_total / prejoin_total, 2) + "x", "",
             TablePrinter::fmt(wall_join_total / wall_prejoin_total, 2) +
                 "x"});
  t.print(std::cout);
  std::cout << "\nparity: "
            << (parity_ok ? "normalized join rows identical to pre-joined"
                          : "MISMATCH")
            << "\nmodeled cost of normalization: "
            << TablePrinter::fmt(join_total / prejoin_total, 2)
            << "x the pre-joined plan\n";

  if (!parity_ok) {
    std::cerr << "\nRESULT: FAIL (join/pre-join divergence)\n";
    return 1;
  }
  if (join_total > kMaxNormalization * prejoin_total) {
    std::cerr << "\nRESULT: FAIL (normalization "
              << TablePrinter::fmt(join_total / prejoin_total, 2) << "x > "
              << kMaxNormalization << "x the pre-joined plan)\n";
    return 1;
  }
  ledger.write();
  std::cout << "RESULT: OK\n";
  return 0;
}
