// Real joins vs the paper's pre-join: SSB flights 1-4, normalized schema.
//
// The paper sidesteps JOIN by storing the pre-joined relation (Section III);
// this bench runs the SAME 13 SSB query texts both ways and puts the costs
// on one axis:
//
//   join      the normalized star schema (lineorder + 4 dimensions), each
//             table PIM-resident: per-table bulk-bitwise filter scans feed
//             a host-side partitioned hash join (engine/hash_join), which
//             groups and aggregates the joined survivors;
//   prejoin   the pre-joined relation on the same one-xb engine — the
//             paper's configuration.
//
// Parity is enforced, not assumed: for every query the join rows must be
// byte-identical to the pre-joined rows (dictionaries are shared through
// the pre-joiner, so group codes are directly comparable). Any divergence
// exits non-zero — this is the CI smoke for the join subsystem.
//
// Reported per query: modeled ns both ways, the join's scan/join phase
// split, fact-scan selectivity, the fact rows and unique lines the join
// reads back (the readback volume the semijoin predicates cut), joined row
// count, and simulator wall-clock.
// Emits BENCH_join_speed.json in the working directory.
//
// Env: BBPIM_SF (default 0.1), BBPIM_SIM_THREADS (default 8),
// BBPIM_SIM_REPS (best-of repetitions, default 3).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/table_printer.hpp"
#include "harness.hpp"

namespace {

using namespace bbpim;

struct QueryResult {
  std::string id;
  std::size_t rows = 0;
  double join_ns = 0;
  double prejoin_ns = 0;
  double join_scan_ns = 0;  ///< PIM filter + readback share of join_ns
  double join_host_ns = 0;  ///< hash build/probe + finalize share
  double join_selectivity = 0;
  std::size_t fact_readback_rows = 0;  ///< fact survivors read back
  std::size_t host_lines = 0;          ///< unique lines over every scan
  double wall_join_ms = 0;
  double wall_prejoin_ms = 0;
};

}  // namespace

int main() {
  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  const std::uint32_t threads =
      static_cast<std::uint32_t>(bench::env_u64("BBPIM_SIM_THREADS", 8));
  const std::size_t reps = bench::env_u64("BBPIM_SIM_REPS", 3);

  std::cerr << "[bench] generating SSB (sf=" << cfg.scale_factor << ")...\n";
  ssb::SsbConfig gen;
  gen.scale_factor = cfg.scale_factor;
  gen.zipf_theta = cfg.zipf_theta;
  gen.seed = cfg.seed;
  const ssb::SsbData data = ssb::generate(gen);

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

  const db::SessionOptions opts = bench::bench_session_options(cfg);
  db::Session join_session(normalized, opts);
  db::Session pre_session(prejoined_db, opts);
  const db::BackendKind backend = db::BackendKind::kOneXb;

  std::cout << "=== Real joins vs pre-join: all 13 SSB queries ===\n"
            << "sf=" << cfg.scale_factor
            << ", lineorder=" << data.lineorder.row_count()
            << " rows, prejoined=" << prejoined.row_count()
            << " rows, sim threads " << threads << ", best of " << reps
            << "\n\n";

  engine::ExecOptions run_opts;
  run_opts.sim_threads = threads;

  // Warm-up: store loads, model fit (pre-joined GROUP BYs), plan and
  // compiled-filter caches for both catalogs.
  for (const ssb::SsbQuery& q : ssb::queries()) {
    join_session.execute(q.sql, backend, run_opts);
    pre_session.execute(q.sql, backend, run_opts);
  }

  TablePrinter t({"query", "rows", "join sel", "fact readback", "join [ms]",
                  "prejoin [ms]", "modeled", "scan share", "wall"});
  std::vector<QueryResult> results;
  bool parity_ok = true;
  double join_total = 0, prejoin_total = 0;
  double wall_join_total = 0, wall_prejoin_total = 0;

  for (const ssb::SsbQuery& q : ssb::queries()) {
    const db::ResultSet join_rs =
        join_session.execute(q.sql, backend, run_opts);
    const db::ResultSet pre_rs = pre_session.execute(q.sql, backend, run_opts);

    // --- parity: the whole point of the normalized path ------------------
    if (join_rs.rows() != pre_rs.rows()) {
      std::cerr << "FAIL: join rows diverge from pre-joined rows for q" << q.id
                << " (" << join_rs.row_count() << " vs " << pre_rs.row_count()
                << ")\n";
      parity_ok = false;
    }
    if (join_rs.table_versions().size() < 2) {
      std::cerr << "FAIL: expected one pinned version per FROM table for q"
                << q.id << "\n";
      parity_ok = false;
    }

    QueryResult r;
    r.id = std::string(q.id);
    r.rows = join_rs.row_count();
    r.join_ns = join_rs.stats().total_ns;
    r.prejoin_ns = pre_rs.stats().total_ns;
    r.join_scan_ns =
        join_rs.stats().phases.filter + join_rs.stats().phases.transfer;
    r.join_host_ns =
        join_rs.stats().phases.host_gb + join_rs.stats().phases.finalize;
    r.join_selectivity = join_rs.stats().selectivity;
    r.fact_readback_rows = join_rs.stats().selected_records;
    r.host_lines = join_rs.stats().host_lines;
    r.wall_join_ms = bench::best_of_ms(
        reps, [&] { join_session.execute(q.sql, backend, run_opts); });
    r.wall_prejoin_ms = bench::best_of_ms(
        reps, [&] { pre_session.execute(q.sql, backend, run_opts); });

    join_total += r.join_ns;
    prejoin_total += r.prejoin_ns;
    wall_join_total += r.wall_join_ms;
    wall_prejoin_total += r.wall_prejoin_ms;

    t.add_row({r.id, std::to_string(r.rows),
               TablePrinter::fmt(r.join_selectivity, 4),
               std::to_string(r.fact_readback_rows),
               TablePrinter::fmt(r.join_ns / 1e6, 2),
               TablePrinter::fmt(r.prejoin_ns / 1e6, 2),
               TablePrinter::fmt(r.join_ns / r.prejoin_ns, 2) + "x",
               TablePrinter::fmt(r.join_scan_ns / r.join_ns, 2),
               TablePrinter::fmt(r.wall_join_ms / r.wall_prejoin_ms, 2) +
                   "x"});
    results.push_back(r);
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

  std::ofstream json("BENCH_join_speed.json");
  json << "{\n"
       << "  \"bench\": \"join_speed\",\n"
       << "  \"scale_factor\": " << cfg.scale_factor << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"hardware_threads\": " << hardware_threads() << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"lineorder_rows\": " << data.lineorder.row_count() << ",\n"
       << "  \"parity\": " << (parity_ok ? "true" : "false") << ",\n"
       << "  \"queries\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const QueryResult& r = results[i];
    json << "    {\"id\": \"" << r.id << "\", \"rows\": " << r.rows
         << ", \"join_ns\": " << r.join_ns
         << ", \"prejoin_ns\": " << r.prejoin_ns
         << ", \"join_scan_ns\": " << r.join_scan_ns
         << ", \"join_host_ns\": " << r.join_host_ns
         << ", \"join_selectivity\": " << r.join_selectivity
         << ", \"fact_readback_rows\": " << r.fact_readback_rows
         << ", \"host_lines\": " << r.host_lines
         << ", \"wall_join_ms\": " << r.wall_join_ms
         << ", \"wall_prejoin_ms\": " << r.wall_prejoin_ms << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"join_total_ns\": " << join_total << ",\n"
       << "  \"prejoin_total_ns\": " << prejoin_total << "\n"
       << "}\n";

  if (!parity_ok) {
    std::cerr << "\nRESULT: FAIL (join/pre-join divergence)\n";
    return 1;
  }
  std::cout << "RESULT: OK\n";
  return 0;
}
