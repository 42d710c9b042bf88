// Shared world for the benchmark binaries, built on the bbpim::db facade.
//
// Builds the SSB database (scale factor from BBPIM_SF, default 0.1),
// registers the pre-joined relation with a db::Database, and opens one
// db::Session configured with the bench fitting grid and an on-disk model
// cache (so repeated bench runs skip the fitting campaign). The session
// owns the three PIM engines; the MonetDB-like baseline is kept alongside
// for the mnt-reg star-schema plans the facade does not model. Each bench
// binary regenerates one paper table/figure from the same runs.
//
// The speed programs share the pieces below the world as well: SSB
// generation, the serving session options, the serial reference digests,
// the hot-skewed statement stream, one percentile rule, and the Ledger, the
// one writer of their BENCH_<bench>.json files.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/monet.hpp"
#include "db/db.hpp"
#include "engine/model_fitter.hpp"
#include "engine/query_exec.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/queries.hpp"

namespace bbpim::bench {

/// Ten years of back-to-back execution, the Fig. 9 horizon.
inline constexpr double kTenYearsNs = 10 * 365.25 * 24 * 3600 * 1e9;

/// Seed of the SSB generator and of every bench workload draw.
inline constexpr std::uint64_t kSeed = 42;

struct BenchConfig {
  double scale_factor = 0.1;   ///< BBPIM_SF
  double zipf_theta = 0.75;    ///< BBPIM_THETA
  bool verbose = true;

  static BenchConfig from_env();
};

/// One query, every system (Fig. 6's five bars).
struct QueryRun {
  std::string id;
  engine::QueryOutput one_xb;
  engine::QueryOutput two_xb;
  engine::QueryOutput pimdb;
  baseline::BaselineRun mnt_join;
  baseline::BaselineRun mnt_reg;

  /// Fig. 9 metric: per-cell write cycles over ten years of back-to-back
  /// execution with row-level wear leveling across `row_cells` cells.
  static double endurance_cycles(const engine::QueryStats& s,
                                 std::uint32_t row_cells);
};

/// One of the paper's headline geo-mean ratios (abstract, conclusion),
/// computed from this build's runs beside the published value.
struct Headline {
  enum class Axis { kRuntime, kEnergy, kLifetime };
  Axis axis;
  const char* label;
  std::string value;      ///< "<ratio>x", or "n/a" when no query qualifies
  const char* paper;      ///< the published ratio
  const char* direction;  ///< which system the ratio favors
};

/// Every headline ratio, each with its query filter: energy on the queries
/// where pimdb aggregates in PIM, lifetime (Fig. 9 write cycles over
/// `row_cells` cells) on Q1.1-1.3 and Q3.4, runtime on all.
std::vector<Headline> headlines(const std::vector<QueryRun>& runs,
                                std::uint32_t row_cells);

/// Prints the headline rows on `axis` (every row when empty) as one table.
void print_headlines(const std::vector<QueryRun>& runs,
                     std::uint32_t row_cells,
                     std::optional<Headline::Axis> axis = std::nullopt);

class BenchWorld {
 public:
  explicit BenchWorld(BenchConfig cfg = BenchConfig::from_env());

  const BenchConfig& config() const { return cfg_; }
  const pim::PimConfig& pim_config() const { return session_.options().pim; }
  const host::HostConfig& host_config() const {
    return session_.options().host;
  }
  const ssb::SsbData& data() const { return data_; }
  const rel::Table& prejoined() const { return db_.default_target(); }

  db::Database& database() { return db_; }
  db::Session& session() { return session_; }

  engine::PimQueryEngine& engine_of(engine::EngineKind kind) {
    return session_.pim_engine(kind);
  }
  baseline::MonetLikeEngine& monet() { return *monet_; }

  /// Fitted models for an engine kind (disk-cached fitting campaign).
  const engine::LatencyModels& models(engine::EngineKind kind) {
    return session_.models(kind);
  }

  /// Raw fit observations (Fig. 4); runs the campaign without the cache.
  engine::ModelFitResult fit_result(engine::EngineKind kind);

  /// Runs all 13 queries through every system (results cached in memory).
  const std::vector<QueryRun>& run_all();

  /// Pages M of the pre-joined relation (per part).
  std::size_t pages() {
    return engine_of(engine::EngineKind::kOneXb).store().pages_per_part();
  }

 private:
  BenchConfig cfg_;
  ssb::SsbData data_;
  db::Database db_;
  db::Session session_;
  std::unique_ptr<baseline::MonetLikeEngine> monet_;
  std::vector<QueryRun> runs_;
};

/// The SSB tables at the config's scale factor and skew, seeded by kSeed.
ssb::SsbData generate_data(const BenchConfig& cfg);

/// Unsigned integer from environment variable `name`, else `fallback`.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// Fastest of `reps` wall-clock runs of `run`, in milliseconds.
double best_of_ms(std::size_t reps, const std::function<void()>& run);

/// FNV digest of one result's rows (order within a result is deterministic).
std::uint64_t row_digest(const db::ResultSet& rs);

/// The fit grid used by all benches (kept moderate so fitting stays fast).
engine::FitConfig bench_fit_config();

/// The session options every bench shares: bench fitting grid, disk model
/// cache in the working directory, verbosity from the config.
db::SessionOptions bench_session_options(const BenchConfig& cfg);

/// bench_session_options for serving benches that open many sessions: quiet,
/// and every session shares one ModelCache, so the models are fitted (or
/// loaded from disk) once per process.
db::SessionOptions serving_session_options(const BenchConfig& cfg);

/// row_digest of each of the 13 SSB queries, in ssb::queries() order, from
/// one serial session over a fresh pre-joined catalog: the row oracle every
/// concurrently served result must match.
std::vector<std::uint64_t> reference_digests(const ssb::SsbData& data,
                                             const db::SessionOptions& opts);

/// Deterministic hot-skewed stream of `count` indices below `n`: index r is
/// drawn with probability proportional to 1/(r+1) from an LCG started at
/// `seed`. Streams share the hot head, the duplicate traffic a shared scan
/// deduplicates, while the tail keeps batches mixed.
std::vector<std::size_t> hot_skew_stream(std::uint64_t seed, std::size_t count,
                                         std::size_t n);

/// Nearest-rank percentile num/den of `v` (sorts `v`; 0 when empty).
double percentile(std::vector<double>& v, std::size_t num, std::size_t den);

/// The one writer of BENCH_<bench>.json. The file holds a header (`bench`,
/// `hardware_threads`, then the run's values set with set()) and `records`,
/// a flat list of {arm, query, layer, clock, metric, value}. `layer` names
/// the measured module (e.g. "db.service", "engine.query_exec"). Records
/// hold raw values only: ratios between arms are for the text tables.
/// Numbers print at max_digits10, so a file reads back bit for bit.
class Ledger {
 public:
  enum class Clock { kModeled, kWall, kCount };

  explicit Ledger(std::string bench);

  /// One header value: a config value of the run. set() and record()
  /// throw std::invalid_argument on a non-finite value.
  void set(const std::string& key, double value);

  void record(const std::string& arm, const std::string& query,
              const std::string& layer, Clock clock, const std::string& metric,
              double value);

  /// Writes BENCH_<bench>.json in the working directory; throws
  /// std::runtime_error when the file cannot be written.
  void write() const;

 private:
  std::string bench_;
  std::vector<std::pair<std::string, double>> header_;
  std::vector<std::string> records_;  ///< rendered JSON objects
};

}  // namespace bbpim::bench
