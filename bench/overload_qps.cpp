// Overload-safe serving: open-loop offered load swept across saturation.
//
// A calibration pass measures the pool's closed-loop service rate; the
// bench then offers Poisson-free deterministic arrivals at 0.5x, 1x, and 2x
// that rate against a bounded queue with the shed-oldest policy. Under
// overload an unbounded service grows its queue (and its p99) without
// limit; bounded admission converts the excess into typed sheds, so the
// latency of everything actually served stays bounded by
// queue_depth x service_time. Per-query latency is the service's own
// accounting (queue_wait_us + service_us), shed and timeout rates come from
// the typed errors, and every completed result must be row-identical to a
// serial single-session reference or the bench exits non-zero.
//
// Emits BENCH_overload_qps.json in the working directory.
//
// Env: BBPIM_SF (scale factor, default 0.1), BBPIM_OVERLOAD_QUERIES
// (statements issued per load point, default 60), BBPIM_OVERLOAD_WORKERS
// (service workers, default 1), BBPIM_OVERLOAD_DEPTH (max_queue_depth,
// default 8), BBPIM_OVERLOAD_DEADLINE_MS (per-query deadline, default 0 =
// none).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/table_printer.hpp"
#include "engine/cancel.hpp"
#include "harness.hpp"

namespace {

/// Deterministic hot-skewed arrival stream over the SSB mix (LCG, weights
/// proportional to 1/(rank+1)) — the same shape batch_qps serves.
std::vector<std::size_t> arrival_stream(std::size_t count,
                                        std::size_t n_queries) {
  std::vector<double> cdf(n_queries);
  double mass = 0;
  for (std::size_t i = 0; i < n_queries; ++i) {
    mass += 1.0 / static_cast<double>(i + 1);
    cdf[i] = mass;
  }
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
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

struct RunResult {
  double offered_x = 0;      ///< offered load as a multiple of saturation
  double offered_qps = 0;
  double achieved_qps = 0;   ///< completed / wall
  double p50_ms = 0;         ///< queue wait + service, completed only
  double p95_ms = 0;
  double p99_ms = 0;
  double p99_wait_ms = 0;    ///< queue-wait share of the latency tail
  std::size_t issued = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;      ///< settled with OverloadError
  std::size_t timed_out = 0; ///< settled with QueryTimeout
  std::size_t peak_queue_depth = 0;
  std::size_t parity_failures = 0;
};

double percentile(std::vector<double>& v, std::size_t num, std::size_t den) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, v.size() * num / den)];
}

}  // namespace

int main() {
  using namespace bbpim;
  using Clock = std::chrono::steady_clock;

  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  const std::size_t issued = bench::env_u64("BBPIM_OVERLOAD_QUERIES", 60);
  const std::size_t workers = bench::env_u64("BBPIM_OVERLOAD_WORKERS", 1);
  const std::size_t depth = bench::env_u64("BBPIM_OVERLOAD_DEPTH", 8);
  const std::uint64_t deadline_ms =
      bench::env_u64("BBPIM_OVERLOAD_DEADLINE_MS", 0);

  std::cerr << "[bench] generating SSB (sf=" << cfg.scale_factor << ")...\n";
  ssb::SsbConfig gen;
  gen.scale_factor = cfg.scale_factor;
  gen.zipf_theta = cfg.zipf_theta;
  gen.seed = cfg.seed;
  const ssb::SsbData data = ssb::generate(gen);

  std::vector<std::string> sqls;
  for (const auto& q : ssb::queries()) sqls.emplace_back(q.sql);

  db::SessionOptions session_opts = bench::bench_session_options(cfg);
  session_opts.verbose = false;
  auto models = std::make_shared<db::ModelCache>(session_opts.model_cache_dir,
                                                 session_opts.model_cache_tag);
  session_opts.models = models;

  // Serial single-session reference: the row oracle every completed result
  // must match.
  std::vector<std::uint64_t> reference(sqls.size());
  {
    db::Database database;
    database.register_table(ssb::prejoin_ssb(data));
    db::Session session(database, session_opts);
    for (std::size_t i = 0; i < sqls.size(); ++i) {
      reference[i] = bench::row_digest(session.execute(sqls[i]));
    }
  }

  // --- calibration: closed-loop service rate of the pool -------------------
  double saturation_qps = 0;
  {
    db::Database database;
    database.register_table(ssb::prejoin_ssb(data));
    db::QueryServiceOptions opts;
    opts.workers = workers;
    opts.session = session_opts;
    db::QueryService service(database, opts);
    service.warm_up(db::BackendKind::kOneXb);
    for (const std::string& sql : sqls) service.submit(sql).get();  // caches
    const std::size_t probes = 2 * sqls.size();
    const std::vector<std::size_t> stream = arrival_stream(probes, sqls.size());
    const auto t0 = Clock::now();
    for (const std::size_t qi : stream) service.submit(sqls[qi]).get();
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    saturation_qps = static_cast<double>(workers) *
                     static_cast<double>(probes) / secs;
  }

  std::cout << "=== Overload-safe serving: bounded admission across "
               "saturation ===\nworkers: "
            << workers << ", max queue depth: " << depth
            << " (shed-oldest), deadline: "
            << (deadline_ms > 0 ? std::to_string(deadline_ms) + " ms" : "none")
            << ", saturation ~" << TablePrinter::fmt(saturation_qps, 1)
            << " qps, sf=" << cfg.scale_factor << "\n\n";

  const auto run_leg = [&](double offered_x) {
    RunResult run;
    run.offered_x = offered_x;
    run.offered_qps = saturation_qps * offered_x;
    run.issued = issued;

    db::Database database;
    database.register_table(ssb::prejoin_ssb(data));
    db::QueryServiceOptions opts;
    opts.workers = workers;
    opts.session = session_opts;
    opts.admission.max_queue_depth = depth;
    opts.admission.policy = db::OverloadPolicy::kShedOldest;
    db::QueryService service(database, opts);
    service.warm_up(db::BackendKind::kOneXb);
    for (const std::string& sql : sqls) service.submit(sql).get();

    engine::ExecOptions eopts;
    eopts.deadline_us = deadline_ms * 1000;

    // Open loop: arrival i is released at i / offered_qps, whether or not
    // earlier statements finished — exactly the traffic a closed-loop
    // client can never generate and the reason admission must be bounded.
    const std::vector<std::size_t> stream = arrival_stream(issued, sqls.size());
    std::vector<std::future<db::ResultSet>> futures;
    std::vector<std::size_t> which;
    futures.reserve(issued);
    which.reserve(issued);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < issued; ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration<double>(
                      static_cast<double>(i) / run.offered_qps));
      futures.push_back(service.submit(sqls[stream[i]], eopts));
      which.push_back(stream[i]);
    }
    std::vector<double> latencies;
    std::vector<double> waits;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      try {
        const db::ResultSet rs = futures[i].get();
        ++run.completed;
        latencies.push_back(
            static_cast<double>(rs.queue_wait_us() + rs.service_us()) / 1e3);
        waits.push_back(static_cast<double>(rs.queue_wait_us()) / 1e3);
        if (bench::row_digest(rs) != reference[which[i]]) ++run.parity_failures;
      } catch (const db::OverloadError&) {
        ++run.shed;
      } catch (const engine::QueryTimeout&) {
        ++run.timed_out;
      }
    }
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    service.shutdown();
    run.achieved_qps = static_cast<double>(run.completed) / wall_s;
    run.p50_ms = percentile(latencies, 1, 2);
    run.p95_ms = percentile(latencies, 95, 100);
    run.p99_ms = percentile(latencies, 99, 100);
    run.p99_wait_ms = percentile(waits, 99, 100);
    run.peak_queue_depth = service.counters().peak_queue_depth;
    return run;
  };

  const std::vector<double> loads = {0.5, 1.0, 2.0};
  std::vector<RunResult> runs;
  for (const double x : loads) runs.push_back(run_leg(x));

  TablePrinter t({"offered", "offered qps", "served qps", "completed", "shed",
                  "timed out", "p50 [ms]", "p95 [ms]", "p99 [ms]",
                  "p99 wait [ms]"});
  for (const RunResult& r : runs) {
    t.add_row({TablePrinter::fmt(r.offered_x, 1) + "x",
               TablePrinter::fmt(r.offered_qps, 1),
               TablePrinter::fmt(r.achieved_qps, 1),
               std::to_string(r.completed), std::to_string(r.shed),
               std::to_string(r.timed_out), TablePrinter::fmt(r.p50_ms, 1),
               TablePrinter::fmt(r.p95_ms, 1), TablePrinter::fmt(r.p99_ms, 1),
               TablePrinter::fmt(r.p99_wait_ms, 1)});
  }
  t.print(std::cout);
  std::cout << "\nAt 2x saturation the bounded queue keeps p99 near "
               "depth x service time; the excess arrives as typed sheds, "
               "never as unbounded queueing.\n";

  std::size_t parity_failures = 0;
  bool consistent = true;
  for (const RunResult& r : runs) {
    parity_failures += r.parity_failures;
    consistent &= r.completed + r.shed + r.timed_out == r.issued;
  }
  if (parity_failures > 0 || !consistent) {
    std::cerr << "FAIL: " << parity_failures
              << " completed result(s) diverged from the serial reference"
              << (consistent ? "" : "; issued != completed + shed + timed_out")
              << "\n";
    return 1;
  }

  std::ofstream json("BENCH_overload_qps.json");
  json << "{\n"
       << "  \"bench\": \"overload_qps\",\n"
       << "  \"scale_factor\": " << cfg.scale_factor << ",\n"
       << "  \"service_workers\": " << workers << ",\n"
       << "  \"max_queue_depth\": " << depth << ",\n"
       << "  \"policy\": \"shed-oldest\",\n"
       << "  \"deadline_ms\": " << deadline_ms << ",\n"
       << "  \"saturation_qps\": " << saturation_qps << ",\n"
       << "  \"hardware_threads\": " << hardware_threads() << ",\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    json << "    {\"offered_x\": " << r.offered_x
         << ", \"offered_qps\": " << r.offered_qps
         << ", \"achieved_qps\": " << r.achieved_qps
         << ", \"issued\": " << r.issued << ", \"completed\": " << r.completed
         << ", \"shed\": " << r.shed << ", \"timed_out\": " << r.timed_out
         << ", \"p50_ms\": " << r.p50_ms << ", \"p95_ms\": " << r.p95_ms
         << ", \"p99_ms\": " << r.p99_ms
         << ", \"p99_wait_ms\": " << r.p99_wait_ms
         << ", \"peak_queue_depth\": " << r.peak_queue_depth << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"row_parity\": \"identical\"\n"
       << "}\n";

  std::cout << "wrote BENCH_overload_qps.json\n"
            << "Every completed result matched the serial reference rows.\n";
  return 0;
}
