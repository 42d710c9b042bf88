// perfbench: the bbpim benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// Runs one named workload (workloads.hpp) at SF 0.1 through the public
// db::QueryService / db::Session API, checks every answer against an
// oracle, and prints as its last stdout line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it is a {"record": ..} object holding every
// metric this invocation computed plus SF, seed, thread counts, build type
// and hardware_threads. README.md in this directory defines each metric.
//
// --trace 0: set up kSetupReps times (setup_s is the median), then the
//            measured run: closed-loop clients submit the seeded statement
//            streams to a QueryService.
// --trace 1: set up once with spans around each setup phase, make the same
//            measured run (the service-layer and modeled per-layer metrics
//            come from it), then replay the streams one statement at a time
//            in this thread twice — untraced, then traced, each on a fresh
//            catalog when the workload writes — with a span around every
//            call into a module's public function.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <latch>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/db.hpp"
#include "db/snapshot_manager.hpp"
#include "engine/hash_join.hpp"
#include "metrics.hpp"
#include "oracle.hpp"
#include "sql/parser.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/queries.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace db = bbpim::db;
namespace engine = bbpim::engine;
namespace rel = bbpim::rel;
namespace sql = bbpim::sql;
namespace ssb = bbpim::ssb;
using Clock = std::chrono::steady_clock;

/// Set-ups per --trace 0 run; setup_s is their median.
constexpr std::size_t kSetupReps = 2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Progress on standard error (standard output carries only results).
void note(const std::string& what) {
  std::cerr << "[perfbench] " << what << "\n";
}

// --- metrics output ----------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Printed with --trace 0, in this order (BENCHMARK.json "end_to_end").
const std::vector<std::string> kEndToEnd = {"setup_s", "peak_rss_mb",
                                            "modeled_read_ms",
                                            "modeled_read_uj"};

/// Printed with --trace 1, in this order (BENCHMARK.json "per_layer"). The
/// wall read metrics head the list: on a shared host they drift by more
/// than the largest regression bound BENCHMARK.json allows (README.md).
const std::vector<std::string> kPerLayer = {
    "read_p50_ms",
    "read_p95_ms",
    "ops_per_s",
    "update_p50_ms",
    "update_p90_ms",
    "modeled_update_us",
    "lifetime_years",
    "error_rate",
    "ssb.generate_s",
    "ssb.prejoin_s",
    "engine.model_fitter.fit_s",
    "db.snapshot_manager.load_s",
    "engine.query_exec.warm_pass_s",
    "db.service.queue_wait_ms_p50",
    "db.service.queue_wait_ms_p95",
    "db.service.service_ms_p50",
    "db.service.service_ms_p95",
    "db.service.batch_size_mean",
    "db.service.shared_served_frac",
    "db.service.retries",
    "db.service.failed",
    "sql.parse_us",
    "sql.bind_us",
    "db.session.prepare_us",
    "db.session.plan_cache_hit_ratio",
    "db.snapshot_manager.apply_update_ms",
    "db.snapshot_manager.acquire_ms",
    "db.snapshot_manager.live_snapshots_max",
    "db.snapshot_manager.updated_records",
    "engine.query_exec.read_warm_ms",
    "engine.query_exec.read_cold_ms",
    "engine.query_exec.cold_read_frac",
    "engine.query_exec.modeled_filter_ms",
    "engine.query_exec.modeled_transfer_ms",
    "engine.query_exec.modeled_sample_ms",
    "engine.query_exec.modeled_plan_ms",
    "engine.query_exec.modeled_pim_gb_ms",
    "engine.query_exec.modeled_host_gb_ms",
    "engine.query_exec.modeled_finalize_ms",
    "engine.query_exec.selected_records",
    "engine.query_exec.pim_subgroups",
    "engine.query_exec.host_lines",
    "engine.filter_compiler.cache_hit_ratio",
    "engine.zone_map.pages_skipped",
    "engine.zone_map.predicates_short_circuited",
    "engine.zone_map.memo_hits",
    "engine.query_exec.fused_page_passes",
    "pim.requests",
    "pim.energy_logic_uj",
    "pim.energy_read_uj",
    "pim.energy_write_uj",
    "pim.energy_controller_uj",
    "pim.energy_agg_circuit_uj",
    "pim.wear_row_writes_max",
    "pim.peak_chip_w",
    "engine.scan.wall_ms",
    "engine.scan.fact_wall_ms",
    "engine.scan.readback_rows",
    "engine.hash_join.wall_ms",
    "engine.hash_join.probe_rows",
    "engine.hash_join.build_rows",
    "engine.hash_join.modeled_build_ms",
    "engine.hash_join.modeled_probe_ms",
    "trace.coverage_frac",
    "trace.overhead_frac",
};

/// Shortest text that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string metrics_json(const Metrics& all,
                         const std::vector<std::string>& names) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric& m = all.at(names[i]);
    out << (i ? ", " : "") << "\"" << names[i] << "\": {\"value\": "
        << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}";
  return out.str();
}

// --- process memory ----------------------------------------------------------

/// Returns freed heap to the kernel and restarts the kernel's resident-set
/// high-water mark at the current resident set, so the peak read later
/// belongs to the phase that follows.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Resident-set high-water mark (VmHWM) in MB; ru_maxrss if unreadable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- set-up ------------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0;
  double prejoin_s = 0;
  double fit_s = 0;
  double load_s = 0;
  double warm_pass_s = 0;
  double total_s = 0;
};

/// Stable re-sort of a relation by one attribute's codes: the clustering a
/// chronological fact load produces for the date hierarchy.
rel::Table cluster_by(const rel::Table& t, const std::string& attr) {
  const std::size_t a = *t.schema().index_of(attr);
  std::vector<std::size_t> order(t.row_count());
  std::iota(order.begin(), order.end(), 0);
  const std::vector<std::uint64_t>& key = t.column(a);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t i, std::size_t j) {
                     return key[i] < key[j];
                   });
  rel::Table out(t.schema(), t.name());
  out.reserve(t.row_count());
  const std::size_t nattrs = t.schema().attribute_count();
  std::vector<std::uint64_t> row(nattrs);
  for (const std::size_t r : order) {
    for (std::size_t k = 0; k < nattrs; ++k) row[k] = t.column(k)[r];
    out.append_row(row);
  }
  return out;
}

/// One catalog, loaded and warm. Serving worlds own the QueryService the
/// measured run submits to; replay worlds own a plain Session.
struct World {
  std::unique_ptr<ssb::SsbData> data;
  db::Database db;
  std::vector<const rel::Table*> tables;  ///< [0] = fact or pre-joined
  std::shared_ptr<db::ModelCache> models;
  db::SessionOptions session_opts;
  std::unique_ptr<db::QueryService> service;
  std::unique_ptr<db::Session> session;
  SetupTimes times;

  const rel::Table& target() const { return *tables.front(); }
  db::SnapshotManager& manager(const rel::Table& t) {
    return db.snapshot_manager(t, false, session_opts.pim);
  }
};

/// Distinct statement texts of the streams: reads (by query index) and
/// update texts.
struct Distinct {
  std::set<std::size_t> reads;
  std::set<std::string> updates;
};

Distinct distinct_of(const std::vector<std::vector<Statement>>& streams) {
  Distinct d;
  for (const auto& stream : streams) {
    for (const Statement& st : stream) {
      if (st.is_update) {
        d.updates.insert(st.sql);
      } else {
        d.reads.insert(st.query);
      }
    }
  }
  return d;
}

db::SessionOptions session_options(const WorkloadSpec& spec,
                                   std::shared_ptr<db::ModelCache> models) {
  db::SessionOptions opts;
  opts.host.sim_threads = spec.sim_threads;
  opts.host.prune = spec.prune;
  opts.models = std::move(models);
  opts.model_cache_dir = "";  // memory only: nothing read or written on disk
  return opts;
}

enum class WorldKind { kServing, kReplay };

/// Builds, loads and warms one catalog. `models` null = fit afresh into a
/// new memory-only cache (the engine.model_fitter phase).
std::unique_ptr<World> build_world(const WorkloadSpec& spec,
                                   const Distinct& distinct, WorldKind kind,
                                   std::shared_ptr<db::ModelCache> models,
                                   Tracer& tracer) {
  const auto start = Clock::now();
  auto w = std::make_unique<World>();
  Tracer::Scope setup_span(tracer, "setup");

  auto t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "ssb.generate");
    ssb::SsbConfig gen;
    gen.scale_factor = kScaleFactor;
    gen.seed = kDataSeed;
    w->data = std::make_unique<ssb::SsbData>(ssb::generate(gen));
  }
  w->times.generate_s = seconds_since(t0);

  t0 = Clock::now();
  if (spec.catalog == Catalog::kNormalized) {
    for (const rel::Table* t : {&w->data->lineorder, &w->data->date,
                                &w->data->customer, &w->data->supplier,
                                &w->data->part}) {
      w->tables.push_back(&w->db.attach_table(*t));
    }
  } else {
    Tracer::Scope span(tracer, "ssb.prejoin");
    rel::Table prejoined = ssb::prejoin_ssb(*w->data);
    if (spec.catalog == Catalog::kPrejoinedByDate) {
      prejoined = cluster_by(prejoined, "lo_orderdate");
    }
    w->tables.push_back(&w->db.register_table(std::move(prejoined)));
    w->times.prejoin_s = seconds_since(t0);
  }

  const bool fit_now = models == nullptr;
  w->models = fit_now ? std::make_shared<db::ModelCache>() : std::move(models);
  w->session_opts = session_options(spec, w->models);
  if (fit_now && spec.catalog != Catalog::kNormalized) {
    t0 = Clock::now();
    Tracer::Scope span(tracer, "engine.model_fitter.fit");
    w->models->get_or_fit(engine::EngineKind::kOneXb, w->session_opts.pim,
                          w->session_opts.host, w->session_opts.fit);
    w->times.fit_s = seconds_since(t0);
  }

  t0 = Clock::now();
  for (const rel::Table* t : w->tables) {
    Tracer::Scope span(tracer, "db.snapshot_manager.load");
    w->manager(*t).acquire(w->session_opts.host);
  }
  w->times.load_s = seconds_since(t0);

  // One untimed pass over each distinct text: executors, plans and
  // compiled filters warm. UPDATE texts are only prepared — executing one
  // would move the data off version 0.
  t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "engine.query_exec.warm_pass");
    if (kind == WorldKind::kServing) {
      db::QueryServiceOptions opts;
      opts.workers = spec.workers;
      opts.session = w->session_opts;
      opts.shared_scan.enabled = spec.shared_scan;
      opts.shared_scan.max_batch = spec.clients;
      opts.shared_scan.gather_window_us = 1000;
      w->service = std::make_unique<db::QueryService>(w->db, opts);
      w->service->warm_up(db::BackendKind::kOneXb);
      for (const std::size_t q : distinct.reads) {
        w->service->submit(std::string(ssb::queries()[q].sql)).get();
      }
      db::Session binder(w->db, w->session_opts);
      for (const std::string& u : distinct.updates) binder.prepare(u);
    } else {
      w->session = std::make_unique<db::Session>(w->db, w->session_opts);
      for (const std::size_t q : distinct.reads) {
        w->session->execute(ssb::queries()[q].sql);
      }
      for (const std::string& u : distinct.updates) w->session->prepare(u);
    }
  }
  w->times.warm_pass_s = seconds_since(t0);
  w->times.total_s = seconds_since(start);
  return w;
}

// --- oracles -----------------------------------------------------------------

/// Expected row digest per SSB text, for workloads that never write:
/// the reference backend on the pre-joined catalogs; the pre-joined one-xb
/// rows for star_join (normalized = pre-joined), executed with force_k = 0
/// so no planner models are needed (k changes cost, never rows).
std::vector<std::uint64_t> expected_digests(World& w,
                                            const WorkloadSpec& spec) {
  std::vector<std::uint64_t> digests(ssb::queries().size());
  if (spec.catalog == Catalog::kNormalized) {
    db::Database prejoined;
    prejoined.register_table(ssb::prejoin_ssb(*w.data));
    db::Session session(prejoined, session_options(spec, nullptr));
    engine::ExecOptions opts;
    opts.force_k = 0;
    for (std::size_t q = 0; q < digests.size(); ++q) {
      digests[q] = row_digest(
          session.execute(ssb::queries()[q].sql, db::BackendKind::kOneXb, opts)
              .rows());
    }
  } else {
    db::Session session(w.db, w.session_opts);
    for (std::size_t q = 0; q < digests.size(); ++q) {
      digests[q] = row_digest(
          session.execute(ssb::queries()[q].sql, db::BackendKind::kReference)
              .rows());
    }
  }
  return digests;
}

/// WriteLog::final_checksum of a log whose final contents were not read.
constexpr std::uint64_t kUnchecked = 0;

/// A read as htap_rename's log-fold oracle checks it.
struct ReadObs {
  std::size_t query = 0;
  std::uint64_t version = 0;
  std::uint64_t digest = 0;
};

/// One execution of a write workload's streams: the committed UPDATE texts
/// in log order with their matched-record counts, the reads at the
/// versions they observed, and the final store contents.
struct WriteLog {
  std::vector<std::string> updates;  ///< [v-1] = text committed as version v
  std::vector<std::size_t> updated_records;
  std::vector<ReadObs> reads;
  std::uint64_t final_checksum = 0;  ///< kUnchecked: contents not read back
  std::size_t misplaced = 0;  ///< updates whose version was not unique
};

/// Checks logs of one stream against the serial fold of its UPDATEs over
/// the pristine relation. Each log may stop early (a replay of a prefix of
/// the stream): its committed texts must be a prefix of the longest log's,
/// and its final contents must equal the fold at its own length. Every
/// statement and every final-contents check counts as one operation.
void check_write_logs(const rel::Table& pristine, db::Session& binder,
                      const std::vector<const WriteLog*>& logs, OpCount& ops) {
  FoldOracle oracle(pristine);
  const WriteLog& longest = **std::max_element(
      logs.begin(), logs.end(), [](const WriteLog* a, const WriteLog* b) {
        return a->updates.size() < b->updates.size();
      });
  std::vector<ReadObs> reads;
  for (const WriteLog* log : logs) {
    reads.insert(reads.end(), log->reads.begin(), log->reads.end());
    for (std::size_t i = 0; i < log->misplaced; ++i) ops.record(false);
  }
  std::stable_sort(reads.begin(), reads.end(),
                   [](const ReadObs& a, const ReadObs& b) {
                     return a.version < b.version;
                   });
  std::size_t next = 0;
  for (std::uint64_t v = 0;; ++v) {
    for (; next < reads.size() && reads[next].version == v; ++next) {
      const ReadObs& r = reads[next];
      const std::string text(ssb::queries()[r.query].sql);
      ops.record(oracle.digest(text, binder.prepare(text).bound()) == r.digest);
    }
    std::optional<std::uint64_t> contents;
    for (const WriteLog* log : logs) {
      if (log->updates.size() != v || log->final_checksum == kUnchecked) {
        continue;
      }
      if (!contents) contents = oracle.contents_checksum();
      ops.record(log->final_checksum == *contents);
    }
    if (v == longest.updates.size()) break;
    const std::size_t matched =
        oracle.apply(binder.prepare(longest.updates[v]).bound_update());
    for (const WriteLog* log : logs) {
      if (v >= log->updates.size()) continue;
      ops.record(log->updates[v] == longest.updates[v] &&
                 log->updated_records[v] == matched);
    }
  }
  for (; next < reads.size(); ++next) ops.record(false);  // beyond the log
}

/// PimStore::contents_checksum of the catalog's current version, read
/// through a fresh session (which pins the newest snapshot).
std::uint64_t store_checksum(World& w) {
  db::Session session(w.db, w.session_opts);
  return session.pim_engine(engine::EngineKind::kOneXb)
      .store()
      .contents_checksum();
}

// --- measured run ------------------------------------------------------------

struct Outcome {
  const Statement* st = nullptr;
  double latency_ms = 0;
  std::optional<db::ResultSet> rs;  ///< empty when the statement raised
};

struct MeasuredRun {
  std::vector<Outcome> outcomes;
  double wall_s = 0;
  db::QueryService::Counters counters;
  double peak_rss_mb = 0;
};

/// Closed loop: each client submits its next statement only after the
/// previous one's result arrived.
MeasuredRun run_measured(World& w,
                         const std::vector<std::vector<Statement>>& streams) {
  reset_peak_rss();
  std::vector<std::vector<Outcome>> per_client(streams.size());
  const auto client = [&](std::size_t c) {
    for (const Statement& st : streams[c]) {
      Outcome o;
      o.st = &st;
      const auto t0 = Clock::now();
      try {
        o.rs = w.service->submit(st.sql).get();
      } catch (const std::exception& e) {
        std::cerr << "perfbench: statement failed: " << e.what() << "\n";
      }
      o.latency_ms = seconds_since(t0) * 1e3;
      per_client[c].push_back(std::move(o));
    }
  };

  MeasuredRun run;
  std::latch go(1);
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      go.wait();
      client(c);
    });
  }
  const auto start = Clock::now();
  go.count_down();
  client(0);
  for (std::thread& t : threads) t.join();
  run.wall_s = seconds_since(start);
  run.peak_rss_mb = peak_rss_mb();
  run.counters = w.service->counters();
  for (auto& outs : per_client) {
    for (Outcome& o : outs) run.outcomes.push_back(std::move(o));
  }
  return run;
}

/// The measured run's write log (htap_rename: one client, so versions
/// follow statement order).
WriteLog write_log_of(const MeasuredRun& run) {
  WriteLog log;
  std::map<std::uint64_t, std::pair<std::string, std::size_t>> by_version;
  for (const Outcome& o : run.outcomes) {
    if (!o.rs) continue;
    if (o.st->is_update) {
      if (!by_version
               .try_emplace(o.rs->data_version(), o.st->sql,
                            o.rs->updated_records())
               .second) {
        ++log.misplaced;
      }
    } else {
      log.reads.push_back(
          {o.st->query, o.rs->data_version(), row_digest(o.rs->rows())});
    }
  }
  std::uint64_t expect = 1;
  for (auto& [version, update] : by_version) {
    if (version != expect++) ++log.misplaced;
    log.updates.push_back(update.first);
    log.updated_records.push_back(update.second);
  }
  return log;
}

void add_measured_metrics(const MeasuredRun& run,
                          const bbpim::pim::PimConfig& pim, Metrics& m) {
  std::vector<double> reads, updates, queue_ms, service_ms;
  double completed = 0, modeled_read_ns = 0, modeled_update_ns = 0;
  double energy_j = 0, batched = 0, shared_served = 0;
  double fc_hits = 0, fc_total = 0;
  std::uint64_t wear_sum = 0, wear_max = 0;
  double peak_w = 0;
  Metrics per_read;  // summed here, divided by the read count below
  for (const Outcome& o : run.outcomes) {
    if (!o.rs) continue;
    ++completed;
    queue_ms.push_back(o.rs->queue_wait_us() / 1e3);
    service_ms.push_back(o.rs->service_us() / 1e3);
    if (o.rs->is_update()) {
      const engine::UpdateStats& s = o.rs->update_stats();
      updates.push_back(o.latency_ms);
      modeled_update_ns += s.total_ns;
      wear_sum += s.wear_row_writes;
      wear_max = std::max(wear_max, s.wear_row_writes);
      peak_w = std::max(peak_w, s.peak_chip_w);
      continue;
    }
    const engine::QueryStats& s = o.rs->stats();
    reads.push_back(o.latency_ms);
    modeled_read_ns += s.total_ns;
    energy_j += s.energy_j;
    wear_sum += s.wear_row_writes;
    wear_max = std::max(wear_max, s.wear_row_writes);
    peak_w = std::max(peak_w, s.peak_chip_w);
    batched += static_cast<double>(o.rs->batched_queries());
    shared_served += o.rs->batched_queries() >= 2 ? 1 : 0;
    fc_hits += static_cast<double>(s.filter_cache_hits);
    fc_total +=
        static_cast<double>(s.filter_cache_hits + s.filter_cache_misses);
    const auto add = [&](const char* name, double v, const char* unit) {
      Metric& sum = per_read[name];
      sum.value += v;
      sum.unit = unit;
    };
    add("engine.query_exec.modeled_filter_ms", s.phases.filter / 1e6, "ms");
    add("engine.query_exec.modeled_transfer_ms", s.phases.transfer / 1e6, "ms");
    add("engine.query_exec.modeled_sample_ms", s.phases.sample / 1e6, "ms");
    add("engine.query_exec.modeled_plan_ms", s.phases.plan / 1e6, "ms");
    add("engine.query_exec.modeled_pim_gb_ms", s.phases.pim_gb / 1e6, "ms");
    add("engine.query_exec.modeled_host_gb_ms", s.phases.host_gb / 1e6, "ms");
    add("engine.query_exec.modeled_finalize_ms", s.phases.finalize / 1e6, "ms");
    add("engine.query_exec.selected_records", s.selected_records, "count");
    add("engine.query_exec.pim_subgroups", s.pim_subgroups, "count");
    add("engine.query_exec.host_lines", s.host_lines, "count");
    add("engine.zone_map.pages_skipped", s.pages_skipped, "count");
    add("engine.zone_map.predicates_short_circuited",
        s.predicates_short_circuited, "count");
    add("engine.zone_map.memo_hits", s.classification_memo_hits, "count");
    add("engine.query_exec.fused_page_passes", s.fused_page_passes, "count");
    add("pim.requests", s.pim_requests, "count");
    add("pim.energy_logic_uj", s.energy_logic_j * 1e6, "uJ");
    add("pim.energy_read_uj", s.energy_read_j * 1e6, "uJ");
    add("pim.energy_write_uj", s.energy_write_j * 1e6, "uJ");
    add("pim.energy_controller_uj", s.energy_controller_j * 1e6, "uJ");
    add("pim.energy_agg_circuit_uj", s.energy_agg_circuit_j * 1e6, "uJ");
  }
  const double n_reads = std::max<double>(1, reads.size());
  const auto pct = [](const std::vector<double>& v, double q) {
    return v.empty() ? 0 : percentile(v, q);
  };

  m["read_p50_ms"] = {pct(reads, 0.50), "ms"};
  m["read_p95_ms"] = {pct(reads, 0.95), "ms"};
  m["ops_per_s"] = {completed / run.wall_s, "1/s"};
  m["peak_rss_mb"] = {run.peak_rss_mb, "MB"};
  m["modeled_read_ms"] = {modeled_read_ns / 1e6 / n_reads, "ms"};
  m["modeled_read_uj"] = {energy_j * 1e6 / n_reads, "uJ"};
  m["update_p50_ms"] = {pct(updates, 0.50), "ms"};
  m["update_p90_ms"] = {pct(updates, 0.90), "ms"};
  m["modeled_update_us"] = {
      updates.empty() ? 0 : modeled_update_ns / 1e3 / updates.size(), "us"};
  // Known gap: Session::execute_join never sums wear_row_writes, so
  // star_join's measured wear is 0 and its lifetime reads 0 ("omitted").
  m["lifetime_years"] = {
      lifetime_years(wear_sum, modeled_read_ns + modeled_update_ns, pim),
      "years"};

  m["db.service.queue_wait_ms_p50"] = {pct(queue_ms, 0.50), "ms"};
  m["db.service.queue_wait_ms_p95"] = {pct(queue_ms, 0.95), "ms"};
  m["db.service.service_ms_p50"] = {pct(service_ms, 0.50), "ms"};
  m["db.service.service_ms_p95"] = {pct(service_ms, 0.95), "ms"};
  m["db.service.batch_size_mean"] = {batched / n_reads, "count"};
  m["db.service.shared_served_frac"] = {shared_served / n_reads, "ratio"};
  m["db.service.retries"] = {static_cast<double>(run.counters.retries),
                             "count"};
  m["db.service.failed"] = {
      static_cast<double>(run.outcomes.size() - completed +
                          run.counters.rejected + run.counters.shed +
                          run.counters.timed_out + run.counters.cancelled),
      "count"};
  m["engine.filter_compiler.cache_hit_ratio"] = {
      fc_total > 0 ? fc_hits / fc_total : 0, "ratio"};
  m["pim.wear_row_writes_max"] = {static_cast<double>(wear_max), "count"};
  m["pim.peak_chip_w"] = {peak_w, "W"};
  for (const auto& [name, sum] : per_read) {
    m[name] = {sum.value / n_reads, sum.unit};
  }
}

// --- replay (the traced run and its untraced twin) ---------------------------

struct ReplayStats {
  double wall_s = 0;
  std::size_t statements = 0;
  std::size_t prepares = 0, plan_hits = 0;
  std::vector<double> warm_ms, cold_ms;
  std::size_t updates = 0;
  double updated_records = 0;
  std::int64_t live_snapshots_max = 0;
  // star_join
  std::size_t joins = 0;
  double readback_rows = 0, probe_rows = 0, build_rows = 0;
  double modeled_build_ns = 0, modeled_probe_ns = 0;
  std::uint64_t scan_wear_max = 0;
  WriteLog log;
};

/// Closes the innermost span and returns its duration in ms (0 untraced).
double close_ms(Tracer& tracer) {
  tracer.close();
  return tracer.enabled() ? tracer.spans().back().duration_us() / 1e3 : 0;
}

/// Replays the streams one statement at a time through the world's
/// session, wrapping every module call in a span; shared-scan workloads
/// replay in Session::execute_batch groups of the client count. Checks
/// each read of a read-only workload against `expected`; write workloads
/// fill the WriteLog for the fold oracle.
ReplayStats replay(World& w, const WorkloadSpec& spec,
                   const std::vector<std::vector<Statement>>& streams,
                   const std::vector<std::uint64_t>& expected, Tracer& tracer,
                   OpCount& ops) {
  db::Session& session = *w.session;
  const bbpim::host::HostConfig& hcfg = w.session_opts.host;
  db::SnapshotManager& manager = w.manager(w.target());
  const bool writes = spec.update_share > 0;
  ReplayStats st;
  std::uint64_t version = 0;
  std::map<std::size_t, std::uint64_t> last_version;  // query -> version

  const auto front_end = [&](const Statement& s) {
    sql::Statement parsed;
    {
      Tracer::Scope span(tracer, "sql.parse");
      parsed = sql::parse_statement(s.sql);
    }
    {
      Tracer::Scope span(tracer, "sql.bind");
      if (parsed.kind == sql::Statement::Kind::kUpdate) {
        sql::bind_update(parsed.update, w.target().schema());
      } else if (spec.catalog == Catalog::kNormalized) {
        std::vector<sql::JoinTableRef> refs;
        for (const std::string& name : parsed.select.from) {
          const rel::Table& t = w.db.table(name);
          refs.push_back({name, &t.schema(), t.row_count()});
        }
        sql::bind_join(parsed.select, refs);
      } else {
        sql::bind(parsed.select, w.target().schema());
      }
    }
    const std::size_t cached = w.db.plan_cache_size();
    Tracer::Scope span(tracer, "db.session.prepare");
    db::PreparedStatement ps = session.prepare(s.sql);
    ++st.prepares;
    if (w.db.plan_cache_size() == cached) ++st.plan_hits;
    return ps;
  };

  const auto single = [&](const Statement& s) {
    Tracer::Scope root(tracer, "statement");
    const db::PreparedStatement ps = front_end(s);
    if (s.is_update) {
      std::uint64_t v = 0;
      tracer.open("db.snapshot_manager.apply_update");
      const engine::UpdateStats us =
          manager.apply_update(ps.bound_update(), hcfg, &v);
      tracer.close();
      ++st.updates;
      st.updated_records += static_cast<double>(us.updated_records);
      if (v != ++version) ++st.log.misplaced;
      st.log.updates.push_back(s.sql);
      st.log.updated_records.push_back(us.updated_records);
      return;
    }
    if (writes) {
      Tracer::Scope span(tracer, "db.snapshot_manager.acquire");
      manager.acquire(hcfg);
    }
    const bool cold = last_version[s.query] != version;
    last_version[s.query] = version;
    tracer.open("engine.query_exec.execute");
    const db::ResultSet rs = ps.execute();
    (cold ? st.cold_ms : st.warm_ms).push_back(close_ms(tracer));
    const std::uint64_t digest = row_digest(rs.rows());
    if (writes) {
      st.log.reads.push_back({s.query, rs.data_version(), digest});
    } else {
      ops.record(digest == expected[s.query]);
    }
  };

  const auto join = [&](const Statement& s) {
    Tracer::Scope root(tracer, "statement");
    const db::PreparedStatement ps = front_end(s);
    const sql::BoundJoin& jp = ps.join();
    const auto attrs = engine::join_scan_attrs(jp);
    std::vector<engine::JoinScanInput> inputs(jp.table_names.size());
    double scan_ms = 0;
    for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
      db::Executor& ex = session.executor_for(db::BackendKind::kOneXb,
                                              w.db.table(jp.table_names[t]));
      tracer.open(t == jp.fact ? "engine.scan.fact" : "engine.scan.dimension");
      engine::ScanOutput scan = ex.execute_scan(jp.filters[t], attrs[t], {});
      scan_ms += close_ms(tracer);
      st.readback_rows += static_cast<double>(scan.row_ids.size());
      st.scan_wear_max = std::max(st.scan_wear_max, scan.stats.wear_row_writes);
      inputs[t].columns = std::move(scan.columns);
    }
    tracer.open("engine.hash_join");
    const engine::JoinOutput joined =
        engine::hash_join_execute(jp, inputs, hcfg);
    const double join_ms = close_ms(tracer);
    ++st.joins;
    st.warm_ms.push_back(scan_ms + join_ms);
    st.probe_rows += static_cast<double>(joined.stats.probe_rows);
    for (const std::size_t b : joined.stats.build_rows) st.build_rows += b;
    st.modeled_build_ns += joined.stats.build_ns;
    st.modeled_probe_ns += joined.stats.probe_ns;
    ops.record(row_digest(joined.rows) == expected[s.query]);
  };

  const auto batch = [&](const std::vector<const Statement*>& group) {
    Tracer::Scope root(tracer, "statement");
    std::vector<std::string> texts;
    for (const Statement* s : group) {
      front_end(*s);
      texts.push_back(s->sql);
    }
    tracer.open("db.session.execute_batch");
    const std::vector<db::Session::BatchItem> items =
        session.execute_batch(texts);
    const double ms = close_ms(tracer);
    for (std::size_t i = 0; i < group.size(); ++i) {
      st.warm_ms.push_back(ms / static_cast<double>(group.size()));
      ops.record(items[i].error == nullptr &&
                 row_digest(items[i].result.rows()) ==
                     expected[group[i]->query]);
    }
  };

  const auto sample_snapshots = [&] {
    for (const rel::Table* t : w.tables) {
      st.live_snapshots_max =
          std::max(st.live_snapshots_max, w.manager(*t).live_snapshots());
    }
  };

  const auto start = Clock::now();
  if (spec.clients > 1) {
    std::size_t longest = 0;
    for (const auto& s : streams) longest = std::max(longest, s.size());
    for (std::size_t i = 0; i < longest; ++i) {
      std::vector<const Statement*> group;
      for (const auto& s : streams) {
        if (i < s.size()) group.push_back(&s[i]);
      }
      batch(group);
      st.statements += group.size();
      sample_snapshots();
    }
  } else {
    for (const Statement& s : streams.front()) {
      if (spec.catalog == Catalog::kNormalized) {
        join(s);
      } else {
        single(s);
      }
      ++st.statements;
      sample_snapshots();
    }
  }
  st.wall_s = seconds_since(start);
  return st;
}

void add_replay_metrics(const ReplayStats& traced, double untraced_wall_s,
                        const std::vector<Span>& spans, Metrics& m) {
  const auto totals = totals_by_name(spans);
  const auto mean_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_us / static_cast<double>(it->second.count);
  };
  const auto per = [](double sum, std::size_t n) {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  const auto total_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_us / 1e3;
  };

  m["sql.parse_us"] = {mean_us("sql.parse"), "us"};
  m["sql.bind_us"] = {mean_us("sql.bind"), "us"};
  m["db.session.prepare_us"] = {mean_us("db.session.prepare"), "us"};
  m["db.session.plan_cache_hit_ratio"] = {
      per(static_cast<double>(traced.plan_hits), traced.prepares), "ratio"};
  m["db.snapshot_manager.apply_update_ms"] = {
      mean_us("db.snapshot_manager.apply_update") / 1e3, "ms"};
  m["db.snapshot_manager.acquire_ms"] = {
      mean_us("db.snapshot_manager.acquire") / 1e3, "ms"};
  m["db.snapshot_manager.live_snapshots_max"] = {
      static_cast<double>(traced.live_snapshots_max), "count"};
  m["db.snapshot_manager.updated_records"] = {
      per(traced.updated_records, traced.updates), "count"};
  const std::size_t reads = traced.warm_ms.size() + traced.cold_ms.size();
  m["engine.query_exec.read_warm_ms"] = {mean(traced.warm_ms), "ms"};
  m["engine.query_exec.read_cold_ms"] = {mean(traced.cold_ms), "ms"};
  m["engine.query_exec.cold_read_frac"] = {
      per(static_cast<double>(traced.cold_ms.size()), reads), "ratio"};
  m["engine.scan.wall_ms"] = {
      per(total_ms("engine.scan.fact") + total_ms("engine.scan.dimension"),
          traced.joins),
      "ms"};
  m["engine.scan.fact_wall_ms"] = {
      per(total_ms("engine.scan.fact"), traced.joins), "ms"};
  m["engine.scan.readback_rows"] = {per(traced.readback_rows, traced.joins),
                                    "count"};
  m["engine.hash_join.wall_ms"] = {
      per(total_ms("engine.hash_join"), traced.joins), "ms"};
  m["engine.hash_join.probe_rows"] = {per(traced.probe_rows, traced.joins),
                                      "count"};
  m["engine.hash_join.build_rows"] = {per(traced.build_rows, traced.joins),
                                      "count"};
  m["engine.hash_join.modeled_build_ms"] = {
      per(traced.modeled_build_ns / 1e6, traced.joins), "ms"};
  m["engine.hash_join.modeled_probe_ms"] = {
      per(traced.modeled_probe_ns / 1e6, traced.joins), "ms"};
  m["pim.wear_row_writes_max"].value =
      std::max(m["pim.wear_row_writes_max"].value,
               static_cast<double>(traced.scan_wear_max));

  double root_us = 0, covered_us = 0;
  const auto statement = totals.find("statement");
  if (statement != totals.end()) {
    root_us = statement->second.total_us;
    covered_us = root_us - statement->second.self_us;
  }
  m["trace.coverage_frac"] = {root_us > 0 ? covered_us / root_us : 0, "ratio"};
  m["trace.overhead_frac"] = {traced.wall_s / untraced_wall_s - 1, "ratio"};
}

// --- command line ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = val == "1";
      if (val != "0" && val != "1") return std::nullopt;
    } else if (key == "--spans-out") {
      a.spans_out = val;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && (*end != '\0' || val.empty())) return std::nullopt;
  }
  if (argc % 2 == 0 || !have_workload || !(a.seconds > 0)) return std::nullopt;
  return a;
}

/// Part k of `parts` of every client's stream (contiguous, in order).
std::vector<std::vector<Statement>> slice(
    const std::vector<std::vector<Statement>>& streams, std::size_t k,
    std::size_t parts) {
  std::vector<std::vector<Statement>> out;
  for (const auto& s : streams) {
    out.emplace_back(s.begin() + s.size() * k / parts,
                     s.begin() + s.size() * (k + 1) / parts);
  }
  return out;
}

int run(const Args& args) {
  const auto process_start = Clock::now();
  const WorkloadSpec* spec_ptr = find_workload(args.workload);
  if (spec_ptr == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const WorkloadSpec& spec = *spec_ptr;
  const bool writes = spec.update_share > 0;

  // The streams need the s_city dictionary, which the generator fixes
  // independently of scale and seed; a tiny generation supplies it.
  std::vector<std::vector<Statement>> streams;
  {
    ssb::SsbConfig tiny;
    tiny.scale_factor = 0.001;
    const ssb::SsbData names = ssb::generate(tiny);
    const rel::Schema& schema = names.supplier.schema();
    streams = make_streams(spec, args.seed, args.seconds,
                           *schema.attribute(*schema.index_of("s_city")).dict);
  }
  const Distinct distinct = distinct_of(streams);
  std::size_t n_statements = 0, n_updates = 0;
  for (const auto& s : streams) {
    n_statements += s.size();
    for (const Statement& st : s) n_updates += st.is_update ? 1 : 0;
  }

  // --- cycles of set-up + measured slice ------------------------------------
  // --trace 0 sets up kSetupReps times and measures one slice of the streams
  // after each set-up, so the measurement samples separate stretches of the
  // run; --trace 1 sets up once, traced, and measures the streams whole.
  const std::size_t cycles = args.trace ? 1 : kSetupReps;
  std::vector<std::vector<std::vector<Statement>>> slices;
  for (std::size_t k = 0; k < cycles; ++k) {
    slices.push_back(slice(streams, k, cycles));
  }

  Metrics m;
  OpCount ops;
  Tracer tracer(args.trace);
  std::vector<double> setup_samples;
  std::unique_ptr<World> world;
  std::vector<std::uint64_t> expected;
  MeasuredRun measured;
  std::vector<WriteLog> logs;
  const double before_setup_s = seconds_since(process_start);
  for (std::size_t k = 0; k < cycles; ++k) {
    world.reset();
    malloc_trim(0);
    world = build_world(spec, distinct, WorldKind::kServing, nullptr, tracer);
    setup_samples.push_back(world->times.total_s +
                            (k == 0 ? before_setup_s : 0));
    // Oracle answers: outside set-up and outside the timed phase.
    if (!writes && expected.empty()) expected = expected_digests(*world, spec);

    MeasuredRun part = run_measured(*world, slices[k]);
    note("cycle " + std::to_string(k + 1) + ": set-up " +
         number(world->times.total_s) + " s, measured " +
         std::to_string(part.outcomes.size()) + " statements in " +
         number(part.wall_s) + " s");
    if (writes) {
      logs.push_back(write_log_of(part));
      // Reading the whole store back costs about a second: the final
      // contents are checked on the last cycle only.
      logs.back().final_checksum =
          k + 1 == cycles ? store_checksum(*world) : kUnchecked;
    }
    measured.wall_s += part.wall_s;
    measured.peak_rss_mb = std::max(measured.peak_rss_mb, part.peak_rss_mb);
    measured.counters.retries += part.counters.retries;
    measured.counters.rejected += part.counters.rejected;
    measured.counters.shed += part.counters.shed;
    measured.counters.timed_out += part.counters.timed_out;
    measured.counters.cancelled += part.counters.cancelled;
    for (Outcome& o : part.outcomes) measured.outcomes.push_back(std::move(o));
  }
  m["setup_s"] = {median(setup_samples), "s"};
  m["ssb.generate_s"] = {world->times.generate_s, "s"};
  m["ssb.prejoin_s"] = {world->times.prejoin_s, "s"};
  m["engine.model_fitter.fit_s"] = {world->times.fit_s, "s"};
  m["db.snapshot_manager.load_s"] = {world->times.load_s, "s"};
  m["engine.query_exec.warm_pass_s"] = {world->times.warm_pass_s, "s"};
  add_measured_metrics(measured, world->session_opts.pim, m);
  for (const Outcome& o : measured.outcomes) {
    if (!o.rs) {
      ops.record(false);
    } else if (!writes) {
      ops.record(row_digest(o.rs->rows()) == expected[o.st->query]);
    }
  }

  // --- replays of a prefix: untraced, then traced ----------------------------
  if (args.trace) {
    // A quarter of each stream (at least two rounds of the 13 texts) keeps
    // the traced run's cost a fraction of the measured run's.
    std::vector<std::vector<Statement>> prefix;
    for (const auto& s : streams) {
      const std::size_t n =
          std::min(s.size(), std::max<std::size_t>((s.size() + 3) / 4, 26));
      prefix.emplace_back(s.begin(), s.begin() + n);
    }
    const std::shared_ptr<db::ModelCache> models = world->models;
    // A workload that writes replays on a fresh catalog so each replay
    // starts at version 0; the others replay on the measured catalog.
    const auto prepare_replay = [&] {
      if (writes) {
        world.reset();
        malloc_trim(0);
        Tracer off(false);
        world = build_world(spec, distinct, WorldKind::kReplay, models, off);
      } else if (world->session == nullptr) {
        world->session =
            std::make_unique<db::Session>(world->db, world->session_opts);
        for (const std::size_t q : distinct.reads) {
          world->session->execute(ssb::queries()[q].sql);
        }
      }
    };
    prepare_replay();
    Tracer off(false);
    ReplayStats untraced = replay(*world, spec, prefix, expected, off, ops);
    if (writes) {
      untraced.log.final_checksum = store_checksum(*world);
      logs.push_back(std::move(untraced.log));
    }
    prepare_replay();
    ReplayStats traced = replay(*world, spec, prefix, expected, tracer, ops);
    if (writes) {
      traced.log.final_checksum = store_checksum(*world);
      logs.push_back(std::move(traced.log));
    }
    note("replays of " + std::to_string(traced.statements) +
         " statements: untraced " + number(untraced.wall_s) + " s, traced " +
         number(traced.wall_s) + " s");
    add_replay_metrics(traced, untraced.wall_s, tracer.spans(), m);
    if (!args.spans_out.empty()) {
      std::ofstream out(args.spans_out);
      write_spans_jsonl(tracer.spans(), out);
    }
  }

  if (writes) {
    // Each cycle ran its own slice from version 0; the replays ran prefixes
    // of the stream the traced run measured whole.
    std::vector<std::vector<const WriteLog*>> groups;
    for (const WriteLog& log : logs) {
      if (args.trace && !groups.empty()) {
        groups.front().push_back(&log);
      } else {
        groups.push_back({&log});
      }
    }
    db::Session binder(world->db, world->session_opts);
    for (const auto& group : groups) {
      check_write_logs(world->target(), binder, group, ops);
    }
  }
  m["error_rate"] = {ops.error_rate(), "ratio"};

  // --- output ----------------------------------------------------------------
  std::ostringstream setup_list;
  for (std::size_t i = 0; i < setup_samples.size(); ++i) {
    setup_list << (i ? ", " : "") << number(setup_samples[i]);
  }
  std::vector<std::string> all_names;
  for (const auto& [name, metric] : m) all_names.push_back(name);
  std::cout << "{\"record\": {\"workload\": \"" << spec.name
            << "\", \"seed\": " << args.seed
            << ", \"data_seed\": " << kDataSeed
            << ", \"scale_factor\": " << number(kScaleFactor)
            << ", \"seconds\": " << number(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"statements\": " << n_statements
            << ", \"updates\": " << n_updates
            << ", \"clients\": " << spec.clients
            << ", \"workers\": " << spec.workers
            << ", \"sim_threads\": " << spec.sim_threads
            << ", \"shared_scan\": " << (spec.shared_scan ? "true" : "false")
            << ", \"prune\": " << (spec.prune ? "true" : "false")
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"hardware_threads\": "
            << std::thread::hardware_concurrency()
            << ", \"setup_s_samples\": [" << setup_list.str()
            << "], \"attempted\": " << ops.attempted
            << ", \"failed\": " << ops.failed
            << ", \"metrics\": " << metrics_json(m, all_names) << "}}\n";
  std::cout << "{\"correct\": " << (ops.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << ops.attempted
            << ", \"failed\": " << ops.failed << ", \"metrics\": "
            << metrics_json(m, args.trace ? kPerLayer : kEndToEnd) << "}"
            << std::endl;
  if (ops.failed > 0) {
    std::cerr << "perfbench: " << ops.failed << " of " << ops.attempted
              << " operations failed their oracle\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <path>]\n";
    return 2;
  }
  try {
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
