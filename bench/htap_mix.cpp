// Concurrent HTAP serving: a Zipf-skewed read/update mix over the SSB set
// through db::QueryService at 1/2/4/8 workers, checksum-cross-validated
// against a serial oracle.
//
// Reads are the 13 SSB queries drawn with Zipf-skewed popularity; updates
// are Algorithm-1 city renames on the pre-joined relation (UPDATE
// ssb_prejoined SET s_city = <to> WHERE s_city = <from>) with the source
// city drawn Zipf-skewed over the dictionary — a hot-key write pattern on
// top of an analytical scan mix, i.e. the workload shape the paper's
// in-place UPDATE exists for.
//
// Validation, per worker count: every committed update's position in the
// table's log and every read's observed data version (ResultSet::
// data_version) are recorded; a serial oracle then replays the updates in
// committed order on a fresh database, executing each read at the version
// the concurrent run observed. Row checksums and the cost and plan stats
// (engine::stats_equal) must match exactly, and the final store contents
// (FNV over every record) must equal the oracle's. This is the
// concurrent-vs-serial equivalence argument of the snapshot design — reads
// serve immutable epoch-pinned snapshots, updates copy-on-write a successor
// version — measured rather than asserted.
//
// Emits BENCH_htap_mix.json in the working directory.
//
// Env: BBPIM_SF (default 0.05), BBPIM_HTAP_OPS (statements per run, default
// 64), BBPIM_HTAP_UPDATE_PCT (default 25), BBPIM_HTAP_MAX_WORKERS (default
// 8), BBPIM_THETA (workload skew, default 0.75).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/table_printer.hpp"
#include "common/zipf.hpp"
#include "harness.hpp"

namespace {

using namespace bbpim;

struct Op {
  std::string sql;
  bool is_update = false;
};

struct Done {
  const Op* op;
  db::ResultSet result;
};

/// Order-independent digest of one result's rows.
std::uint64_t row_checksum(const db::ResultSet& rs) {
  std::uint64_t sum = 0;
  for (const auto& row : rs.rows()) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::uint64_t g : row.group) h = (h ^ g) * 1099511628211ULL;
    h = (h ^ static_cast<std::uint64_t>(row.agg)) * 1099511628211ULL;
    sum += h;
  }
  return sum + rs.row_count() * 31;
}

}  // namespace

int main() {
  using Clock = std::chrono::steady_clock;

  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  const std::size_t ops = bench::env_u64("BBPIM_HTAP_OPS", 64);
  const std::size_t update_pct = bench::env_u64("BBPIM_HTAP_UPDATE_PCT", 25);
  const std::size_t max_workers = bench::env_u64("BBPIM_HTAP_MAX_WORKERS", 8);

  std::cerr << "[bench] generating SSB (sf=" << cfg.scale_factor << ")...\n";
  ssb::SsbConfig gen;
  gen.scale_factor = cfg.scale_factor;
  gen.zipf_theta = cfg.zipf_theta;
  gen.seed = cfg.seed;
  const ssb::SsbData data = ssb::generate(gen);
  const rel::Table prejoined = ssb::prejoin_ssb(data);
  const std::size_t s_city = *prejoined.schema().index_of("s_city");
  const auto& city_dict = *prejoined.schema().attribute(s_city).dict;

  db::SessionOptions session_opts = bench::bench_session_options(cfg);
  session_opts.verbose = false;
  auto models = std::make_shared<db::ModelCache>(session_opts.model_cache_dir,
                                                 session_opts.model_cache_tag);
  session_opts.models = models;

  // The mixed workload: deterministic Zipf draws over queries and cities.
  const ZipfSampler query_skew(ssb::queries().size(), cfg.zipf_theta);
  const ZipfSampler city_skew(city_dict.size(), cfg.zipf_theta);
  Rng rng(cfg.seed * 1000003 + 17);
  std::vector<Op> workload;
  std::size_t n_updates = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    Op op;
    op.is_update = rng.next_below(100) < update_pct;
    if (op.is_update) {
      const std::string from = city_dict.value(city_skew.sample(rng));
      const std::string to =
          city_dict.value(rng.next_below(city_dict.size()));
      op.sql = "UPDATE ssb_prejoined SET s_city = '" + to +
               "' WHERE s_city = '" + from + "'";
      ++n_updates;
    } else {
      op.sql = std::string(ssb::queries()[query_skew.sample(rng)].sql);
    }
    workload.push_back(std::move(op));
  }

  std::cout << "=== HTAP mix: QueryService reads + Algorithm-1 updates ===\n"
            << "ops/run: " << ops << " (" << n_updates << " updates, "
            << ops - n_updates << " reads), sf=" << cfg.scale_factor
            << ", theta=" << cfg.zipf_theta
            << ", hardware threads: " << std::thread::hardware_concurrency()
            << "\n\n";

  struct RunResult {
    std::size_t workers;
    double wall_ms;
    double qps;
    double read_sim_ms;    ///< mean simulated read latency
    double update_sim_ms;  ///< mean simulated update latency
    std::uint64_t final_version;
    std::uint64_t final_checksum;
    bool parity_ok;
  };
  std::vector<RunResult> runs;

  TablePrinter t({"workers", "wall [ms]", "ops/s", "sim read [ms]",
                  "sim update [ms]", "parity"});
  for (std::size_t workers = 1; workers <= max_workers; workers *= 2) {
    // Fresh catalog per worker count: every run starts from pristine data.
    db::Database database;
    database.register_table(ssb::prejoin_ssb(data));
    db::QueryServiceOptions service_opts;
    service_opts.workers = workers;
    service_opts.session = session_opts;
    db::QueryService service(database, service_opts);
    // Outside the clock: the one shared snapshot-store load + model fit.
    service.warm_up(db::BackendKind::kOneXb);

    const auto start = Clock::now();
    std::vector<std::future<db::ResultSet>> futures;
    futures.reserve(workload.size());
    for (const Op& op : workload) futures.push_back(service.submit(op.sql));
    std::vector<Done> done;
    done.reserve(workload.size());
    for (std::size_t i = 0; i < workload.size(); ++i) {
      done.push_back({&workload[i], futures[i].get()});
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();

    // --- serial-oracle cross-validation ---------------------------------
    // Recover the committed update order, then replay it single-threaded on
    // a fresh database, executing each read at the version it observed.
    std::map<std::uint64_t, const Done*> updates_by_version;
    std::vector<const Done*> reads;
    double read_sim_ns = 0, update_sim_ns = 0;
    for (const Done& d : done) {
      if (d.op->is_update) {
        updates_by_version.emplace(d.result.data_version(), &d);
        update_sim_ns += d.result.update_stats().total_ns;
      } else {
        reads.push_back(&d);
        read_sim_ns += d.result.stats().total_ns;
      }
    }
    std::stable_sort(reads.begin(), reads.end(),
                     [](const Done* a, const Done* b) {
                       return a->result.data_version() <
                              b->result.data_version();
                     });

    db::Database oracle_db;
    oracle_db.register_table(ssb::prejoin_ssb(data));
    db::Session oracle(oracle_db, session_opts);
    bool parity_ok = true;
    std::uint64_t version = 0;
    std::size_t next_read = 0;
    const std::uint64_t final_version = updates_by_version.size();
    while (true) {
      for (; next_read < reads.size() &&
             reads[next_read]->result.data_version() == version;
           ++next_read) {
        const Done& d = *reads[next_read];
        const db::ResultSet serial =
            oracle.execute(d.op->sql, db::BackendKind::kOneXb);
        parity_ok &= row_checksum(serial) == row_checksum(d.result) &&
                     engine::stats_equal(serial.stats(), d.result.stats(),
                                         {engine::StatClass::kCost,
                                          engine::StatClass::kPlan});
      }
      if (version == final_version) break;
      const Done& up = *updates_by_version.at(version + 1);
      const db::ResultSet serial_up =
          oracle.execute(up.op->sql, db::BackendKind::kOneXb);
      parity_ok &= serial_up.update_stats().updated_records ==
                       up.result.update_stats().updated_records &&
                   serial_up.update_stats().total_ns ==
                       up.result.update_stats().total_ns;
      ++version;
    }

    // Final contents: a fresh session over the concurrent database replays
    // the full log; its store must equal the oracle's.
    db::Session replayer(database, session_opts);
    replayer.execute("SELECT COUNT(*) FROM ssb_prejoined",
                     db::BackendKind::kOneXb);
    const std::uint64_t concurrent_final =
        replayer.pim_engine(engine::EngineKind::kOneXb)
            .store()
            .contents_checksum();
    const std::uint64_t oracle_final =
        oracle.pim_engine(engine::EngineKind::kOneXb).store().contents_checksum();
    parity_ok &= concurrent_final == oracle_final;
    service.shutdown();

    RunResult run;
    run.workers = workers;
    run.wall_ms = wall_ms;
    run.qps = ops / (wall_ms / 1000.0);
    run.read_sim_ms =
        reads.empty() ? 0 : read_sim_ns / 1e6 / static_cast<double>(reads.size());
    run.update_sim_ms = updates_by_version.empty()
                            ? 0
                            : update_sim_ns / 1e6 /
                                  static_cast<double>(updates_by_version.size());
    run.final_version = final_version;
    run.final_checksum = concurrent_final;
    run.parity_ok = parity_ok;
    runs.push_back(run);

    t.add_row({std::to_string(workers), TablePrinter::fmt(wall_ms, 1),
               TablePrinter::fmt(run.qps, 2),
               TablePrinter::fmt(run.read_sim_ms, 3),
               TablePrinter::fmt(run.update_sim_ms, 3),
               parity_ok ? "ok" : "MISMATCH"});
    if (!parity_ok) {
      std::cerr << "FAIL: serial-oracle parity mismatch at " << workers
                << " workers\n";
      t.print(std::cout);
      return 1;
    }
  }
  t.print(std::cout);

  std::ofstream json("BENCH_htap_mix.json");
  json << "{\n"
       << "  \"bench\": \"htap_mix\",\n"
       << "  \"scale_factor\": " << cfg.scale_factor << ",\n"
       << "  \"ops\": " << ops << ",\n"
       << "  \"updates\": " << n_updates << ",\n"
       << "  \"update_pct\": " << update_pct << ",\n"
       << "  \"zipf_theta\": " << cfg.zipf_theta << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    json << "    {\"workers\": " << r.workers << ", \"wall_ms\": " << r.wall_ms
         << ", \"ops_per_s\": " << r.qps
         << ", \"read_sim_ms\": " << r.read_sim_ms
         << ", \"update_sim_ms\": " << r.update_sim_ms
         << ", \"final_version\": " << r.final_version
         << ", \"final_checksum\": \"" << std::hex << r.final_checksum
         << std::dec << "\", \"parity\": \""
         << (r.parity_ok ? "ok" : "mismatch") << "\"}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"parity\": \"ok\"\n"
       << "}\n";
  std::cout << "\nwrote BENCH_htap_mix.json\n"
            << "Every worker count matched its serial oracle: identical "
               "rows, stats, and final store contents at the observed data "
               "versions.\n";
  return 0;
}
