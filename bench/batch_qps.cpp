// Shared-scan batched serving: queries/sec of db::QueryService with the
// batch former ON versus OFF, under concurrent closed-loop "flights".
//
// Each flight is a client thread that submits one statement, waits for its
// result, and submits the next — a hot-skewed stream over the 13 SSB
// queries (weights proportional to 1/(rank+1), per-flight deterministic
// LCG). With batching off, the worker serves the in-flight statements one
// by one. With batching on, the worker's batch former gathers whatever the
// flights have in the queue into ONE fused pass per table: duplicate
// statements execute once, distinct ones share each page visit.
//
// Correctness is enforced, not sampled: every result — both modes — must be
// row-identical to a serial single-session reference, or the bench exits
// non-zero. Modeled per-query cost stays deterministic either way; this
// bench measures host wall-clock serving capacity.
//
// Emits BENCH_batch_qps.json in the working directory.
//
// Env: BBPIM_SF (scale factor, default 0.1), BBPIM_BATCH_FLIGHTS (client
// threads, default 8), BBPIM_BATCH_QUERIES (total statements per run,
// default 104), BBPIM_BATCH_WORKERS (service workers, default 1),
// BBPIM_BATCH_WINDOW_US (gather window, default 1000).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/table_printer.hpp"
#include "harness.hpp"

namespace {

/// Per-flight deterministic hot-skewed query stream: rank r drawn with
/// probability proportional to 1/(r+1) from a per-flight LCG. Flights share
/// the hot head of the distribution — the duplicate traffic a shared scan
/// deduplicates — while the tail keeps the batches mixed.
std::vector<std::size_t> flight_stream(std::size_t flight, std::size_t count,
                                       std::size_t n_queries) {
  std::vector<double> cdf(n_queries);
  double mass = 0;
  for (std::size_t i = 0; i < n_queries; ++i) {
    mass += 1.0 / static_cast<double>(i + 1);
    cdf[i] = mass;
  }
  std::uint64_t state = 0x9e3779b97f4a7c15ULL * (flight + 1) + 12345;
  std::vector<std::size_t> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u =
        static_cast<double>(state >> 11) / 9007199254740992.0 * mass;
    std::size_t idx = 0;
    while (idx + 1 < n_queries && cdf[idx] < u) ++idx;
    stream.push_back(idx);
  }
  return stream;
}

struct ModeResult {
  double wall_ms = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t parity_failures = 0;
  std::size_t batched_results = 0;  ///< results served by a shared execution
};

}  // namespace

int main() {
  using namespace bbpim;
  using Clock = std::chrono::steady_clock;

  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  const std::size_t flights = bench::env_u64("BBPIM_BATCH_FLIGHTS", 8);
  const std::size_t total_queries = bench::env_u64("BBPIM_BATCH_QUERIES", 104);
  const std::size_t workers = bench::env_u64("BBPIM_BATCH_WORKERS", 1);
  const std::uint64_t window_us = bench::env_u64("BBPIM_BATCH_WINDOW_US", 1000);
  const std::size_t per_flight = std::max<std::size_t>(1, total_queries / flights);

  std::cerr << "[bench] generating SSB (sf=" << cfg.scale_factor << ")...\n";
  ssb::SsbConfig gen;
  gen.scale_factor = cfg.scale_factor;
  gen.zipf_theta = cfg.zipf_theta;
  gen.seed = cfg.seed;
  const ssb::SsbData data = ssb::generate(gen);

  std::vector<std::string> sqls;
  for (const auto& q : ssb::queries()) sqls.emplace_back(q.sql);

  // Fit-once for the whole bench (disk-cached across invocations too).
  db::SessionOptions session_opts = bench::bench_session_options(cfg);
  session_opts.verbose = false;
  auto models = std::make_shared<db::ModelCache>(session_opts.model_cache_dir,
                                                 session_opts.model_cache_tag);
  session_opts.models = models;

  // Serial single-session reference: the row oracle both modes must match.
  std::vector<std::uint64_t> reference(sqls.size());
  {
    db::Database database;
    database.register_table(ssb::prejoin_ssb(data));
    db::Session session(database, session_opts);
    for (std::size_t i = 0; i < sqls.size(); ++i) {
      reference[i] = bench::row_digest(session.execute(sqls[i]));
    }
  }

  std::cout << "=== Shared-scan batching: serving qps, batched vs unbatched ==="
            << "\nflights: " << flights << " (closed loop, " << per_flight
            << " queries each), service workers: " << workers
            << ", gather window: " << window_us
            << " us, sf=" << cfg.scale_factor
            << ", hardware threads: " << hardware_threads() << "\n\n";

  const auto run_mode = [&](bool batched) {
    db::Database database;
    database.register_table(ssb::prejoin_ssb(data));
    db::QueryServiceOptions opts;
    opts.workers = workers;
    opts.session = session_opts;
    opts.shared_scan.enabled = batched;
    opts.shared_scan.max_batch = flights;
    opts.shared_scan.gather_window_us = window_us;
    db::QueryService service(database, opts);
    service.warm_up(db::BackendKind::kOneXb);
    // Warm the store's filter/classification caches identically in both
    // modes so the timed region compares serving, not first-touch compiles.
    for (const std::string& sql : sqls) service.submit(sql).get();

    ModeResult mode;
    std::vector<std::vector<double>> latencies(flights);
    std::vector<std::size_t> failures(flights, 0);
    std::vector<std::size_t> shared_served(flights, 0);
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t f = 0; f < flights; ++f) {
      threads.emplace_back([&, f] {
        const std::vector<std::size_t> stream =
            flight_stream(f, per_flight, sqls.size());
        for (const std::size_t qi : stream) {
          const auto t0 = Clock::now();
          const db::ResultSet rs = service.submit(sqls[qi]).get();
          latencies[f].push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - t0)
                  .count());
          if (bench::row_digest(rs) != reference[qi]) ++failures[f];
          if (rs.batched_queries() >= 2) ++shared_served[f];
        }
      });
    }
    for (std::thread& t : threads) t.join();
    mode.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    service.shutdown();

    std::vector<double> all;
    for (std::size_t f = 0; f < flights; ++f) {
      all.insert(all.end(), latencies[f].begin(), latencies[f].end());
      mode.parity_failures += failures[f];
      mode.batched_results += shared_served[f];
    }
    std::sort(all.begin(), all.end());
    mode.qps = all.size() / (mode.wall_ms / 1000.0);
    mode.p50_ms = all[all.size() / 2];
    mode.p99_ms = all[std::min(all.size() - 1, all.size() * 99 / 100)];
    return mode;
  };

  const ModeResult unbatched = run_mode(false);
  const ModeResult batched = run_mode(true);
  const double speedup = batched.qps / unbatched.qps;

  TablePrinter t({"mode", "wall [ms]", "qps", "p50 [ms]", "p99 [ms]",
                  "shared-served"});
  t.add_row({"unbatched", TablePrinter::fmt(unbatched.wall_ms, 1),
             TablePrinter::fmt(unbatched.qps, 2),
             TablePrinter::fmt(unbatched.p50_ms, 1),
             TablePrinter::fmt(unbatched.p99_ms, 1),
             std::to_string(unbatched.batched_results)});
  t.add_row({"batched", TablePrinter::fmt(batched.wall_ms, 1),
             TablePrinter::fmt(batched.qps, 2),
             TablePrinter::fmt(batched.p50_ms, 1),
             TablePrinter::fmt(batched.p99_ms, 1),
             std::to_string(batched.batched_results)});
  t.print(std::cout);
  std::cout << "\nbatched/unbatched qps: " << TablePrinter::fmt(speedup, 2)
            << "x\n";

  if (unbatched.parity_failures + batched.parity_failures > 0) {
    std::cerr << "FAIL: " << unbatched.parity_failures << " unbatched and "
              << batched.parity_failures
              << " batched result(s) diverged from the serial reference\n";
    return 1;
  }

  std::ofstream json("BENCH_batch_qps.json");
  json << "{\n"
       << "  \"bench\": \"batch_qps\",\n"
       << "  \"scale_factor\": " << cfg.scale_factor << ",\n"
       << "  \"flights\": " << flights << ",\n"
       << "  \"queries_per_flight\": " << per_flight << ",\n"
       << "  \"service_workers\": " << workers << ",\n"
       << "  \"gather_window_us\": " << window_us << ",\n"
       << "  \"hardware_threads\": " << hardware_threads() << ",\n"
       << "  \"runs\": [\n"
       << "    {\"mode\": \"unbatched\", \"wall_ms\": " << unbatched.wall_ms
       << ", \"qps\": " << unbatched.qps
       << ", \"p50_ms\": " << unbatched.p50_ms
       << ", \"p99_ms\": " << unbatched.p99_ms
       << ", \"shared_served\": " << unbatched.batched_results << "},\n"
       << "    {\"mode\": \"batched\", \"wall_ms\": " << batched.wall_ms
       << ", \"qps\": " << batched.qps << ", \"p50_ms\": " << batched.p50_ms
       << ", \"p99_ms\": " << batched.p99_ms
       << ", \"shared_served\": " << batched.batched_results << "}\n"
       << "  ],\n"
       << "  \"batched_speedup\": " << speedup << ",\n"
       << "  \"row_parity\": \"identical\"\n"
       << "}\n";

  std::cout << "wrote BENCH_batch_qps.json\n"
            << "Every result in both modes matched the serial reference "
               "rows.\n";
  return 0;
}
