// Simulator wall-clock: the SSB query set, serial vs N-thread.
//
// Unlike every other bench (which reports MODELED nanoseconds), this one
// measures how long the simulation itself takes on the machine running it —
// the quantity PR 3's page-parallel substrate and vectorized kernels
// optimize. Three arms per query, all producing byte-identical rows and
// stats (verified here, proven in tests/test_sim_determinism.cpp):
//
//   serial    — the scalar baseline: pre-vectorization kernels (per-op
//               interpreter, bit-granular column IO, row-streaming
//               aggregation, no compiled-filter cache) on one thread, i.e.
//               the execution substrate this PR replaced;
//   vec-1t    — vectorized kernels, one simulation thread;
//   vec-Nt    — vectorized kernels, N simulation threads (default 8).
//
// The headline speedup is serial / vec-Nt: the total wall-clock win of the
// PR at the given thread budget. vec-1t isolates how much of it comes from
// the kernels alone (all of it on a single-core host, where extra threads
// cannot add parallelism).
//
// Emits BENCH_sim_speed.json next to the working directory to seed the
// performance trajectory.
//
// Env: BBPIM_SF (default 0.1), BBPIM_SIM_THREADS (default 8),
// BBPIM_SIM_REPS (best-of repetitions, default 3).
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/table_printer.hpp"
#include "harness.hpp"

namespace {

struct QueryTiming {
  std::string id;
  double serial_ms = 0;   // scalar kernels, 1 thread
  double vec1_ms = 0;     // vectorized kernels, 1 thread
  double vecn_ms = 0;     // vectorized kernels, N threads
};

}  // namespace

int main() {
  using namespace bbpim;

  const std::uint32_t threads =
      static_cast<std::uint32_t>(bench::env_u64("BBPIM_SIM_THREADS", 8));
  const std::size_t reps = bench::env_u64("BBPIM_SIM_REPS", 3);

  bench::BenchWorld world;
  db::Session& session = world.session();
  const db::BackendKind backend = db::BackendKind::kOneXb;

  std::cout << "=== Simulator wall-clock: SSB set, serial vs " << threads
            << "-thread ===\n"
            << "sf=" << world.config().scale_factor << ", pages/part="
            << world.pages() << ", hardware threads=" << hardware_threads()
            << ", best of " << reps << "\n\n";

  // Warm everything outside the timed region: PIM store load, the fitting
  // campaign (grouped queries consult the planner), the plan cache, and the
  // compiled-filter cache — the steady prepared-statement serving state.
  for (const auto& q : ssb::queries()) {
    session.execute(q.sql, backend);
  }

  TablePrinter t({"query", "serial [ms]", "vec-1t [ms]",
                  "vec-" + std::to_string(threads) + "t [ms]", "kernels",
                  "threads", "total"});
  std::vector<QueryTiming> timings;
  double serial_total = 0, vec1_total = 0, vecn_total = 0;
  for (const auto& q : ssb::queries()) {
    engine::ExecOptions scalar_opts;
    scalar_opts.sim_scalar = true;
    scalar_opts.sim_threads = 1;
    engine::ExecOptions vec1_opts;
    vec1_opts.sim_threads = 1;
    engine::ExecOptions vecn_opts;
    vecn_opts.sim_threads = threads;

    // Reference rows + stats from the serial scalar arm; the optimized arms
    // must reproduce them exactly (simulation-thread determinism).
    const db::ResultSet reference = session.execute(q.sql, backend, scalar_opts);
    // Bit-identity of rows, modeled costs and plan (doubles compare ==).
    const auto matches = [&](const db::ResultSet& rs) {
      return rs.rows() == reference.rows() &&
             engine::stats_equal(
                 rs.stats(), reference.stats(),
                 {engine::StatClass::kCost, engine::StatClass::kPlan});
    };

    QueryTiming qt;
    qt.id = q.id;
    qt.serial_ms = bench::best_of_ms(reps, [&] {
      session.execute(q.sql, backend, scalar_opts);
    });
    qt.vec1_ms = bench::best_of_ms(reps, [&] {
      if (!matches(session.execute(q.sql, backend, vec1_opts))) {
        std::cerr << "FAIL: vec-1t output differs for q" << q.id << "\n";
        std::exit(1);
      }
    });
    qt.vecn_ms = bench::best_of_ms(reps, [&] {
      if (!matches(session.execute(q.sql, backend, vecn_opts))) {
        std::cerr << "FAIL: vec-" << threads << "t output differs for q"
                  << q.id << "\n";
        std::exit(1);
      }
    });

    serial_total += qt.serial_ms;
    vec1_total += qt.vec1_ms;
    vecn_total += qt.vecn_ms;
    t.add_row({qt.id, TablePrinter::fmt(qt.serial_ms, 1),
               TablePrinter::fmt(qt.vec1_ms, 1),
               TablePrinter::fmt(qt.vecn_ms, 1),
               TablePrinter::fmt(qt.serial_ms / qt.vec1_ms, 2) + "x",
               TablePrinter::fmt(qt.vec1_ms / qt.vecn_ms, 2) + "x",
               TablePrinter::fmt(qt.serial_ms / qt.vecn_ms, 2) + "x"});
    timings.push_back(qt);
  }
  const double speedup = serial_total / vecn_total;
  t.add_row({"total", TablePrinter::fmt(serial_total, 1),
             TablePrinter::fmt(vec1_total, 1), TablePrinter::fmt(vecn_total, 1),
             TablePrinter::fmt(serial_total / vec1_total, 2) + "x",
             TablePrinter::fmt(vec1_total / vecn_total, 2) + "x",
             TablePrinter::fmt(speedup, 2) + "x"});
  t.print(std::cout);
  std::cout << "\nAll arms produced identical rows and stats.\n"
            << "speedup (serial -> vec-" << threads
            << "t): " << TablePrinter::fmt(speedup, 2) << "x\n";

  std::ofstream json("BENCH_sim_speed.json");
  json << "{\n"
       << "  \"bench\": \"sim_speed\",\n"
       << "  \"scale_factor\": " << world.config().scale_factor << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"hardware_threads\": " << hardware_threads() << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"queries\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const QueryTiming& qt = timings[i];
    json << "    {\"id\": \"" << qt.id << "\", \"serial_ms\": " << qt.serial_ms
         << ", \"vec1_ms\": " << qt.vec1_ms << ", \"vecn_ms\": " << qt.vecn_ms
         << ", \"speedup\": " << qt.serial_ms / qt.vecn_ms << "}"
         << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"serial_total_ms\": " << serial_total << ",\n"
       << "  \"vec1_total_ms\": " << vec1_total << ",\n"
       << "  \"vecn_total_ms\": " << vecn_total << ",\n"
       << "  \"speedup_kernels\": " << serial_total / vec1_total << ",\n"
       << "  \"speedup_threads\": " << vec1_total / vecn_total << ",\n"
       << "  \"speedup\": " << speedup << "\n"
       << "}\n";
  std::cout << "wrote BENCH_sim_speed.json\n";
  return 0;
}
