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
// Writes BENCH_htap_mix.json (bench::Ledger) in the working directory.
//
// Env: BBPIM_SF (default 0.1), BBPIM_HTAP_OPS (statements per run, default
// 64), BBPIM_HTAP_MAX_WORKERS (default 8), BBPIM_THETA (workload skew,
// default 0.75). 25% of the statements are updates.
#include <algorithm>
#include <chrono>
#include <future>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.hpp"
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

}  // namespace

int main() {
  using Clock = std::chrono::steady_clock;
  using C = bench::Ledger::Clock;
  constexpr std::size_t kUpdatePct = 25;

  const bench::BenchConfig cfg = bench::BenchConfig::from_env();
  const std::size_t ops = bench::env_u64("BBPIM_HTAP_OPS", 64);
  const std::size_t max_workers = bench::env_u64("BBPIM_HTAP_MAX_WORKERS", 8);

  const ssb::SsbData data = bench::generate_data(cfg);
  const rel::Table prejoined = ssb::prejoin_ssb(data);
  const std::size_t s_city = *prejoined.schema().index_of("s_city");
  const auto& city_dict = *prejoined.schema().attribute(s_city).dict;

  const db::SessionOptions session_opts = bench::serving_session_options(cfg);
  // The GROUP-BY reads plan with latency models: fit (or load) them once,
  // through the cache every run's workers share, outside every clock.
  session_opts.models->get_or_fit(engine::EngineKind::kOneXb, session_opts.pim,
                                  session_opts.host, session_opts.fit);

  // The mixed workload: deterministic Zipf draws over queries and cities.
  const ZipfSampler query_skew(ssb::queries().size(), cfg.zipf_theta);
  const ZipfSampler city_skew(city_dict.size(), cfg.zipf_theta);
  Rng rng(bench::kSeed * 1000003 + 17);
  std::vector<Op> workload;
  std::size_t n_updates = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    Op op;
    op.is_update = rng.next_below(100) < kUpdatePct;
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
            << ", hardware threads: " << hardware_threads() << "\n\n";

  bench::Ledger ledger("htap_mix");
  ledger.set("scale_factor", cfg.scale_factor);
  ledger.set("zipf_theta", cfg.zipf_theta);
  ledger.set("ops", ops);
  ledger.set("updates", n_updates);

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
    // Outside the clock: the one shared snapshot-store load.
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
        parity_ok &=
            bench::row_digest(serial) == bench::row_digest(d.result) &&
            engine::stats_equal(
                serial.stats(), d.result.stats(),
                {engine::StatClass::kCost, engine::StatClass::kPlan});
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

    const double qps = ops / (wall_ms / 1000.0);
    const double read_sim_ms =
        reads.empty() ? 0 : read_sim_ns / 1e6 / static_cast<double>(reads.size());
    const double update_sim_ms =
        updates_by_version.empty()
            ? 0
            : update_sim_ns / 1e6 /
                  static_cast<double>(updates_by_version.size());
    const std::string arm = "workers=" + std::to_string(workers);
    ledger.record(arm, "all", "db.service", C::kWall, "wall_ms", wall_ms);
    ledger.record(arm, "all", "db.service", C::kWall, "ops_per_s", qps);
    ledger.record(arm, "read", "engine.query_exec", C::kModeled, "mean_ms",
                  read_sim_ms);
    ledger.record(arm, "update", "db.snapshot_manager", C::kModeled, "mean_ms",
                  update_sim_ms);
    ledger.record(arm, "all", "db.snapshot_manager", C::kCount,
                  "final_version", final_version);
    // The top 53 bits, which a double holds exactly.
    ledger.record(arm, "all", "engine.pim_store", C::kCount,
                  "contents_checksum_53", concurrent_final >> 11);

    t.add_row({std::to_string(workers), TablePrinter::fmt(wall_ms, 1),
               TablePrinter::fmt(qps, 2), TablePrinter::fmt(read_sim_ms, 3),
               TablePrinter::fmt(update_sim_ms, 3),
               parity_ok ? "ok" : "MISMATCH"});
    if (!parity_ok) {
      std::cerr << "FAIL: serial-oracle parity mismatch at " << workers
                << " workers\n";
      t.print(std::cout);
      return 1;
    }
  }
  t.print(std::cout);
  std::cout << "\n";
  ledger.write();
  std::cout << "Every worker count matched its serial oracle: identical "
               "rows, stats, and final store contents at the observed data "
               "versions.\n";
  return 0;
}
