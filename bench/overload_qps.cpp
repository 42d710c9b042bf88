// Overload-safe serving: open-loop offered load swept across saturation.
//
// Calibration measures the pool's closed-loop service rate as the median of
// five passes (one slow pass would move every leg off its load); the
// bench then offers Poisson-free deterministic arrivals at 0.5x, 1x, and 2x
// that rate against a bounded queue with the shed-oldest policy. Under
// overload an unbounded service grows its queue (and its p99) without
// limit; bounded admission converts the excess into typed sheds, so the
// latency of everything actually served stays bounded by
// queue_depth x service_time. Per-query latency is the service's own
// accounting (queue_wait_us + service_us), the shed rate comes from the
// typed errors, and every completed result must be row-identical to a
// serial single-session reference or the bench exits non-zero.
//
// Writes BENCH_overload_qps.json (bench::Ledger) in the working directory.
//
// Env: BBPIM_SF (scale factor, default 0.1), BBPIM_OVERLOAD_QUERIES
// (statements issued per load point, default 60). One service worker, a
// queue of depth 8, no deadline.
#include <chrono>
#include <cstdint>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/table_printer.hpp"
#include "harness.hpp"

int main() {
  using namespace bbpim;
  using Clock = std::chrono::steady_clock;
  using C = bench::Ledger::Clock;
  constexpr std::size_t kDepth = 8;
  constexpr std::uint64_t kStreamSeed = 0x9e3779b97f4a7c15ULL;

  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  const std::size_t issued = bench::env_u64("BBPIM_OVERLOAD_QUERIES", 60);

  const ssb::SsbData data = bench::generate_data(cfg);
  const auto& queries = ssb::queries();
  const db::SessionOptions session_opts = bench::serving_session_options(cfg);
  const std::vector<std::uint64_t> reference =
      bench::reference_digests(data, session_opts);

  // One warmed single-worker service per leg, optionally with bounded
  // admission.
  const auto serve = [&](db::Database& database, std::size_t depth) {
    database.register_table(ssb::prejoin_ssb(data));
    db::QueryServiceOptions opts;
    opts.workers = 1;
    opts.session = session_opts;
    opts.admission.max_queue_depth = depth;
    opts.admission.policy = db::OverloadPolicy::kShedOldest;
    auto service = std::make_unique<db::QueryService>(database, opts);
    service->warm_up(db::BackendKind::kOneXb);
    for (const auto& q : queries) service->submit(std::string(q.sql)).get();
    return service;
  };

  // --- calibration: closed-loop service rate of the pool -------------------
  constexpr std::size_t kCalibrationPasses = 5;
  std::vector<double> pass_qps;
  {
    db::Database database;
    const auto service = serve(database, 0);
    const std::vector<std::size_t> probes =
        bench::hot_skew_stream(kStreamSeed, 2 * queries.size(), queries.size());
    for (std::size_t pass = 0; pass < kCalibrationPasses; ++pass) {
      const auto t0 = Clock::now();
      for (const std::size_t qi : probes) {
        service->submit(std::string(queries[qi].sql)).get();
      }
      pass_qps.push_back(
          static_cast<double>(probes.size()) /
          std::chrono::duration<double>(Clock::now() - t0).count());
    }
  }
  std::vector<double> sorted_qps = pass_qps;
  const double saturation_qps = bench::percentile(sorted_qps, 1, 2);

  std::cout << "=== Overload-safe serving: bounded admission across "
               "saturation ===\nworkers: 1, max queue depth: "
            << kDepth << " (shed-oldest), deadline: none, saturation ~"
            << TablePrinter::fmt(saturation_qps, 1)
            << " qps, sf=" << cfg.scale_factor << "\n\n";

  bench::Ledger ledger("overload_qps");
  ledger.set("scale_factor", cfg.scale_factor);
  ledger.set("issued_per_leg", issued);
  ledger.set("service_workers", 1);
  ledger.set("max_queue_depth", kDepth);
  ledger.record("calibration", "all", "db.service", C::kWall, "saturation_qps",
                saturation_qps);
  for (std::size_t pass = 0; pass < pass_qps.size(); ++pass) {
    ledger.record("calibration", "all", "db.service", C::kWall,
                  "pass_" + std::to_string(pass) + "_qps", pass_qps[pass]);
  }

  TablePrinter t({"offered", "offered qps", "served qps", "completed", "shed",
                  "p50 [ms]", "p95 [ms]", "p99 [ms]", "p99 wait [ms]"});
  std::size_t parity_failures = 0;
  const std::vector<std::size_t> stream =
      bench::hot_skew_stream(kStreamSeed, issued, queries.size());
  for (const double offered_x : {0.5, 1.0, 2.0}) {
    const double offered_qps = saturation_qps * offered_x;
    db::Database database;
    const auto service = serve(database, kDepth);

    // Open loop: arrival i is released at i / offered_qps, whether or not
    // earlier statements finished — exactly the traffic a closed-loop
    // client can never generate and the reason admission must be bounded.
    std::vector<std::future<db::ResultSet>> futures;
    futures.reserve(issued);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < issued; ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration<double>(static_cast<double>(i) /
                                                offered_qps));
      futures.push_back(service->submit(std::string(queries[stream[i]].sql)));
    }
    std::vector<double> latencies;
    std::vector<double> waits;
    std::size_t shed = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      try {
        const db::ResultSet rs = futures[i].get();
        latencies.push_back(
            static_cast<double>(rs.queue_wait_us() + rs.service_us()) / 1e3);
        waits.push_back(static_cast<double>(rs.queue_wait_us()) / 1e3);
        if (bench::row_digest(rs) != reference[stream[i]]) ++parity_failures;
      } catch (const db::OverloadError&) {
        ++shed;
      }
    }
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    service->shutdown();
    const std::size_t completed = latencies.size();
    const double achieved_qps = static_cast<double>(completed) / wall_s;
    const double p50 = bench::percentile(latencies, 1, 2);
    const double p95 = bench::percentile(latencies, 95, 100);
    const double p99 = bench::percentile(latencies, 99, 100);
    const double p99_wait = bench::percentile(waits, 99, 100);

    const std::string arm = TablePrinter::fmt(offered_x, 1) + "x";
    const auto rec = [&](C clock, const char* metric, double value) {
      ledger.record(arm, "all", "db.service", clock, metric, value);
    };
    rec(C::kWall, "offered_qps", offered_qps);
    rec(C::kWall, "achieved_qps", achieved_qps);
    rec(C::kCount, "completed", completed);
    rec(C::kCount, "shed", shed);
    rec(C::kWall, "p50_ms", p50);
    rec(C::kWall, "p95_ms", p95);
    rec(C::kWall, "p99_ms", p99);
    rec(C::kWall, "p99_wait_ms", p99_wait);
    rec(C::kCount, "peak_queue_depth", service->counters().peak_queue_depth);
    t.add_row({arm, TablePrinter::fmt(offered_qps, 1),
               TablePrinter::fmt(achieved_qps, 1), std::to_string(completed),
               std::to_string(shed), TablePrinter::fmt(p50, 1),
               TablePrinter::fmt(p95, 1), TablePrinter::fmt(p99, 1),
               TablePrinter::fmt(p99_wait, 1)});
  }
  t.print(std::cout);
  std::cout << "\nAt 2x saturation the bounded queue keeps p99 near "
               "depth x service time; the excess arrives as typed sheds, "
               "never as unbounded queueing.\n";

  if (parity_failures > 0) {
    std::cerr << "FAIL: " << parity_failures
              << " completed result(s) diverged from the serial reference\n";
    return 1;
  }
  ledger.write();
  std::cout << "Every completed result matched the serial reference rows.\n";
  return 0;
}
