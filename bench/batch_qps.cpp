// Shared-scan batched serving: queries/sec of db::QueryService with the
// batch former ON versus OFF, under concurrent closed-loop "flights".
//
// Each flight is a client thread that submits one statement, waits for its
// result, and submits the next — a hot-skewed stream over the 13 SSB
// queries (bench::hot_skew_stream, one LCG seed per flight). With batching
// off, the worker serves the in-flight statements one by one. With batching
// on, the worker's batch former gathers whatever the flights have in the
// queue into ONE fused pass per table: duplicate statements execute once,
// distinct ones share each page visit.
//
// Correctness is enforced, not sampled: every result — both modes — must be
// row-identical to a serial single-session reference, or the bench exits
// non-zero. Modeled per-query cost stays deterministic either way; this
// bench measures host wall-clock serving capacity.
//
// Writes BENCH_batch_qps.json (bench::Ledger) in the working directory.
//
// Env: BBPIM_SF (scale factor, default 0.1), BBPIM_BATCH_FLIGHTS (client
// threads, default 8), BBPIM_BATCH_QUERIES (total statements per run,
// default 104). One service worker, 1 ms gather window.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/table_printer.hpp"
#include "harness.hpp"

int main() {
  using namespace bbpim;
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kWorkers = 1;
  constexpr std::uint64_t kWindowUs = 1000;

  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  const std::size_t flights = bench::env_u64("BBPIM_BATCH_FLIGHTS", 8);
  const std::size_t total_queries = bench::env_u64("BBPIM_BATCH_QUERIES", 104);
  const std::size_t per_flight = std::max<std::size_t>(1, total_queries / flights);

  const ssb::SsbData data = bench::generate_data(cfg);
  const auto& queries = ssb::queries();
  const db::SessionOptions session_opts = bench::serving_session_options(cfg);
  const std::vector<std::uint64_t> reference =
      bench::reference_digests(data, session_opts);

  std::cout << "=== Shared-scan batching: serving qps, batched vs unbatched ==="
            << "\nflights: " << flights << " (closed loop, " << per_flight
            << " queries each), service workers: " << kWorkers
            << ", gather window: " << kWindowUs
            << " us, sf=" << cfg.scale_factor
            << ", hardware threads: " << hardware_threads() << "\n\n";

  bench::Ledger ledger("batch_qps");
  ledger.set("scale_factor", cfg.scale_factor);
  ledger.set("flights", flights);
  ledger.set("queries_per_flight", per_flight);
  ledger.set("service_workers", kWorkers);
  ledger.set("gather_window_us", kWindowUs);

  TablePrinter t({"mode", "wall [ms]", "qps", "p50 [ms]", "p99 [ms]",
                  "shared-served"});
  std::size_t parity_failures = 0;
  std::vector<double> qps;
  for (const bool batched : {false, true}) {
    db::Database database;
    database.register_table(ssb::prejoin_ssb(data));
    db::QueryServiceOptions opts;
    opts.workers = kWorkers;
    opts.session = session_opts;
    opts.shared_scan.enabled = batched;
    opts.shared_scan.max_batch = flights;
    opts.shared_scan.gather_window_us = kWindowUs;
    db::QueryService service(database, opts);
    service.warm_up(db::BackendKind::kOneXb);
    // Warm the store's filter/classification caches identically in both
    // modes so the timed region compares serving, not first-touch compiles.
    for (const auto& q : queries) service.submit(std::string(q.sql)).get();

    std::vector<std::vector<double>> latencies(flights);
    std::vector<std::size_t> failures(flights, 0);
    std::vector<std::size_t> shared_served(flights, 0);
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t f = 0; f < flights; ++f) {
      threads.emplace_back([&, f] {
        const std::uint64_t seed = 0x9e3779b97f4a7c15ULL * (f + 1) + 12345;
        for (const std::size_t qi :
             bench::hot_skew_stream(seed, per_flight, queries.size())) {
          const auto t0 = Clock::now();
          const db::ResultSet rs =
              service.submit(std::string(queries[qi].sql)).get();
          latencies[f].push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count());
          if (bench::row_digest(rs) != reference[qi]) ++failures[f];
          if (rs.batched_queries() >= 2) ++shared_served[f];
        }
      });
    }
    for (std::thread& th : threads) th.join();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    service.shutdown();

    std::vector<double> all;
    std::size_t shared = 0;
    for (std::size_t f = 0; f < flights; ++f) {
      all.insert(all.end(), latencies[f].begin(), latencies[f].end());
      parity_failures += failures[f];
      shared += shared_served[f];
    }
    const std::string arm = batched ? "batched" : "unbatched";
    const double p50 = bench::percentile(all, 1, 2);
    const double p99 = bench::percentile(all, 99, 100);
    qps.push_back(all.size() / (wall_ms / 1000.0));
    using C = bench::Ledger::Clock;
    ledger.record(arm, "all", "db.service", C::kWall, "wall_ms", wall_ms);
    ledger.record(arm, "all", "db.service", C::kWall, "qps", qps.back());
    ledger.record(arm, "all", "db.service", C::kWall, "p50_ms", p50);
    ledger.record(arm, "all", "db.service", C::kWall, "p99_ms", p99);
    ledger.record(arm, "all", "db.service", C::kCount, "shared_served", shared);
    t.add_row({arm, TablePrinter::fmt(wall_ms, 1),
               TablePrinter::fmt(qps.back(), 2), TablePrinter::fmt(p50, 1),
               TablePrinter::fmt(p99, 1), std::to_string(shared)});
  }
  t.print(std::cout);
  std::cout << "\nbatched/unbatched qps: "
            << TablePrinter::fmt(qps[1] / qps[0], 2) << "x\n";

  if (parity_failures > 0) {
    std::cerr << "FAIL: " << parity_failures
              << " result(s) diverged from the serial reference\n";
    return 1;
  }
  ledger.write();
  std::cout << "Every result in both modes matched the serial reference "
               "rows.\n";
  return 0;
}
