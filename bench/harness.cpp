#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/table_printer.hpp"
#include "pim/endurance.hpp"

namespace bbpim::bench {
namespace {

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

db::Database make_database(const ssb::SsbData& data, const BenchConfig& cfg) {
  db::Database db;
  const rel::Table& prejoined = db.register_table(ssb::prejoin_ssb(data));
  if (cfg.verbose) {
    std::cerr << "[bench] pre-joined relation: " << prejoined.row_count()
              << " records, " << prejoined.schema().record_bits()
              << " bits/record\n";
  }
  return db;
}

}  // namespace

ssb::SsbData generate_data(const BenchConfig& cfg) {
  if (cfg.verbose) {
    std::cerr << "[bench] generating SSB (sf=" << cfg.scale_factor
              << ", theta=" << cfg.zipf_theta << ", seed=" << kSeed
              << ")...\n";
  }
  ssb::SsbConfig gen;
  gen.scale_factor = cfg.scale_factor;
  gen.zipf_theta = cfg.zipf_theta;
  gen.seed = kSeed;
  return ssb::generate(gen);
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

double best_of_ms(std::size_t reps, const std::function<void()>& run) {
  using Clock = std::chrono::steady_clock;
  double best = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    run();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

std::uint64_t row_digest(const db::ResultSet& rs) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& row : rs.rows()) {
    for (const std::uint64_t g : row.group) h = (h ^ g) * 1099511628211ULL;
    h = (h ^ static_cast<std::uint64_t>(row.agg)) * 1099511628211ULL;
  }
  h = (h ^ rs.row_count()) * 1099511628211ULL;
  return h;
}

BenchConfig BenchConfig::from_env() {
  BenchConfig cfg;
  cfg.scale_factor = env_double("BBPIM_SF", cfg.scale_factor);
  cfg.zipf_theta = env_double("BBPIM_THETA", cfg.zipf_theta);
  return cfg;
}

double QueryRun::endurance_cycles(const engine::QueryStats& s,
                                  std::uint32_t row_cells) {
  if (s.total_ns <= 0) return 0;
  pim::PimConfig cfg;
  cfg.crossbar_cols = row_cells;
  return pim::endurance_report(s.wear_row_writes, s.total_ns, cfg)
      .writes_over_horizon;
}

std::vector<Headline> headlines(const std::vector<QueryRun>& runs,
                                std::uint32_t row_cells) {
  std::vector<double> one, two, pdb, mj, mr, e_one, e_pdb, w_one, w_pdb;
  for (const QueryRun& r : runs) {
    one.push_back(r.one_xb.stats.total_ns);
    two.push_back(r.two_xb.stats.total_ns);
    pdb.push_back(r.pimdb.stats.total_ns);
    mj.push_back(r.mnt_join.model_ns);
    mr.push_back(r.mnt_reg.model_ns);
    if (r.pimdb.stats.pim_subgroups > 0) {
      e_one.push_back(r.one_xb.stats.energy_j);
      e_pdb.push_back(r.pimdb.stats.energy_j);
    }
    if (r.id == "1.1" || r.id == "1.2" || r.id == "1.3" || r.id == "3.4") {
      w_one.push_back(QueryRun::endurance_cycles(r.one_xb.stats, row_cells));
      w_pdb.push_back(QueryRun::endurance_cycles(r.pimdb.stats, row_cells));
    }
  }
  const auto ratio = [](const std::vector<double>& num,
                        const std::vector<double>& den) -> std::string {
    return num.empty() ? "n/a"
                       : TablePrinter::fmt(geomean_ratio(num, den), 2) + "x";
  };
  using A = Headline::Axis;
  return {
      {A::kRuntime, "Runtime: one_xb vs PIMDB", ratio(pdb, one), "1.83x",
       "one_xb faster"},
      {A::kEnergy, "Energy: one_xb vs PIMDB (PIM-agg queries)",
       ratio(e_pdb, e_one), "4.31x", "one_xb cheaper"},
      {A::kLifetime, "Lifetime: one_xb vs PIMDB (Q1.x, Q3.4)",
       ratio(w_pdb, w_one), "3.21x", "one_xb lasts longer"},
      {A::kRuntime, "Runtime: one_xb vs MonetDB pre-joined", ratio(mj, one),
       "4.65x", "one_xb faster"},
      {A::kRuntime, "Runtime: one_xb vs MonetDB standard", ratio(mr, one),
       "7.46x", "one_xb faster"},
      {A::kRuntime, "Runtime: two_xb vs one_xb", ratio(two, one), "3.39x",
       "one_xb faster"},
      {A::kRuntime, "Runtime: two_xb vs MonetDB pre-joined", ratio(mj, two),
       "1.37x", "two_xb faster"},
  };
}

void print_headlines(const std::vector<QueryRun>& runs,
                     std::uint32_t row_cells,
                     std::optional<Headline::Axis> axis) {
  TablePrinter t({"Metric", "This build", "Paper", "Direction"});
  for (const Headline& h : headlines(runs, row_cells)) {
    if (!axis || h.axis == *axis) {
      t.add_row({h.label, h.value, h.paper, h.direction});
    }
  }
  t.print(std::cout);
}

engine::FitConfig bench_fit_config() {
  engine::FitConfig fit;
  fit.page_counts = {2, 4, 6, 8};
  fit.ratios = {0.005, 0.02, 0.08, 0.2, 0.5, 0.8};
  fit.s_values = {2, 3, 4, 5};
  fit.n_values = {1, 2, 3};
  return fit;
}

db::SessionOptions bench_session_options(const BenchConfig& cfg) {
  db::SessionOptions opts;
  opts.fit = bench_fit_config();
  opts.model_cache_dir = ".";
  opts.verbose = cfg.verbose;
  return opts;
}

db::SessionOptions serving_session_options(const BenchConfig& cfg) {
  db::SessionOptions opts = bench_session_options(cfg);
  opts.verbose = false;
  opts.models = std::make_shared<db::ModelCache>(opts.model_cache_dir);
  return opts;
}

std::vector<std::uint64_t> reference_digests(const ssb::SsbData& data,
                                             const db::SessionOptions& opts) {
  db::Database database;
  database.register_table(ssb::prejoin_ssb(data));
  db::Session session(database, opts);
  std::vector<std::uint64_t> digests;
  for (const ssb::SsbQuery& q : ssb::queries()) {
    digests.push_back(row_digest(session.execute(q.sql)));
  }
  return digests;
}

std::vector<std::size_t> hot_skew_stream(std::uint64_t seed, std::size_t count,
                                         std::size_t n) {
  std::vector<double> cdf(n);
  double mass = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mass += 1.0 / static_cast<double>(i + 1);
    cdf[i] = mass;
  }
  std::uint64_t state = seed;
  std::vector<std::size_t> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u =
        static_cast<double>(state >> 11) / 9007199254740992.0 * mass;
    std::size_t idx = 0;
    while (idx + 1 < n && cdf[idx] < u) ++idx;
    stream.push_back(idx);
  }
  return stream;
}

double percentile(std::vector<double>& v, std::size_t num, std::size_t den) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, v.size() * num / den)];
}

namespace {

/// JSON has no NaN or infinity.
double finite(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("Ledger: non-finite " + name);
  }
  return value;
}

}  // namespace

Ledger::Ledger(std::string bench) : bench_(std::move(bench)) {}

void Ledger::set(const std::string& key, double value) {
  header_.emplace_back(key, finite(key, value));
}

void Ledger::record(const std::string& arm, const std::string& query,
                    const std::string& layer, Clock clock,
                    const std::string& metric, double value) {
  static constexpr const char* kClockNames[] = {"modeled", "wall", "count"};
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"arm\": \"" << arm << "\", \"query\": \"" << query
      << "\", \"layer\": \"" << layer << "\", \"clock\": \""
      << kClockNames[static_cast<int>(clock)] << "\", \"metric\": \"" << metric
      << "\", \"value\": " << finite(metric, value) << "}";
  records_.push_back(out.str());
}

void Ledger::write() const {
  const std::string path = "BENCH_" + bench_ + ".json";
  std::ofstream json(path);
  json.precision(std::numeric_limits<double>::max_digits10);
  json << "{\n  \"bench\": \"" << bench_ << "\",\n  \"hardware_threads\": "
       << hardware_threads() << ",\n";
  for (const auto& [key, value] : header_) {
    json << "  \"" << key << "\": " << value << ",\n";
  }
  json << "  \"records\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    json << "    " << records_[i] << (i + 1 < records_.size() ? "," : "")
         << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  if (!json) throw std::runtime_error("Ledger: cannot write " + path);
  std::cout << "wrote " << path << "\n";
}

BenchWorld::BenchWorld(BenchConfig cfg)
    : cfg_(cfg),
      data_(generate_data(cfg_)),
      db_(make_database(data_, cfg_)),
      session_(db_, bench_session_options(cfg_)) {
  monet_ = std::make_unique<baseline::MonetLikeEngine>(data_, prejoined());
}

engine::ModelFitResult BenchWorld::fit_result(engine::EngineKind kind) {
  return engine::fit_latency_models(kind, pim_config(), host_config(),
                                    bench_fit_config());
}

const std::vector<QueryRun>& BenchWorld::run_all() {
  if (!runs_.empty()) return runs_;
  for (const auto& q : ssb::queries()) {
    if (cfg_.verbose) std::cerr << "[bench] running Q" << q.id << "...\n";
    const db::PreparedStatement stmt = session_.prepare(q.sql);
    QueryRun run;
    run.id = std::string(q.id);
    run.one_xb = stmt.execute(db::BackendKind::kOneXb).output();
    run.two_xb = stmt.execute(db::BackendKind::kTwoXb).output();
    run.pimdb = stmt.execute(db::BackendKind::kPimdb).output();
    run.mnt_join = baseline::execute_prejoined(prejoined(), stmt.bound());
    run.mnt_reg = monet_->execute_star(stmt.bound());
    if (cfg_.verbose) {
      // FilterCache and zone-map effectiveness of the one-xb run (the
      // counters are all-zero unless HostConfig::prune was on).
      const engine::QueryStats& s = run.one_xb.stats;
      std::cerr << "[bench]   filter-cache hits/misses="
                << s.filter_cache_hits << "/" << s.filter_cache_misses
                << ", crossbars skipped=" << s.crossbars_skipped
                << " (pages " << s.pages_skipped << "+"
                << s.group_pages_skipped << " gb), predicates short-circuited="
                << s.predicates_short_circuited << "\n";
    }
    runs_.push_back(std::move(run));
  }
  return runs_;
}

}  // namespace bbpim::bench
