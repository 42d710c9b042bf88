// Session: one facade over parsing, binding, PIM loading, model fitting,
// and multi-backend execution — "SQL in, results + simulated costs out".
//
// A session connects to a Database catalog and owns everything the seed's
// call sites used to wire by hand: the host/PIM configuration, the fitted
// Section-IV latency models (fit once, cached in memory and optionally on
// disk), and a lazily built registry of executors keyed by backend and
// target relation. The low-level PimQueryEngine API stays intact underneath
// — the session is a layer, not a fork — and is reachable through
// pim_engine() for benches that need forced-k sweeps or direct store access.
// A statement's ExecOptions (its cancel token included) are its own from
// execute() or execute_batch() down to the engine's pass: a batch carries
// one set per statement, never one set for the batch.
//
//   db::Database database;
//   database.register_table(std::move(sales));
//   db::Session session(database);
//   db::ResultSet rs = session.execute(
//       "SELECT region, SUM(qty) FROM sales GROUP BY region");
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/memo.hpp"
#include "db/backend.hpp"
#include "db/database.hpp"
#include "db/result_set.hpp"
#include "db/statement.hpp"
#include "engine/model_fitter.hpp"
#include "engine/query_exec.hpp"
#include "host/config.hpp"
#include "pim/config.hpp"

namespace bbpim::db {

/// The facade's default fitting grid: small enough that a first GROUP-BY
/// query fits in seconds, dense enough for sane planner decisions (the
/// grid every seed example hand-rolled). Benches override it.
engine::FitConfig quick_fit_config();

/// Fit-once-and-cache registry for the Section-IV latency models, keyed by
/// engine kind. Shareable across sessions whose pim/host/fit configurations
/// match (the models depend on those, not on the data); optionally backed
/// by a directory of plain-text cache files.
///
/// Thread-safe: N threads calling get_or_fit for the same configuration run
/// exactly one fitting campaign — one Memo entry per (kind, config
/// fingerprint), computed once outside the lock while the rest wait for it.
/// Cache files carry a fingerprint of the (pim, host, fit) configuration
/// that produced them; a mismatching, truncated, or otherwise unreadable
/// file is a cache miss (refit and overwrite), never an error.
class ModelCache {
 public:
  ModelCache() = default;
  /// `dir` of "" disables disk persistence. Files are named by kind and
  /// config fingerprint, so configurations sharing a dir never collide.
  explicit ModelCache(std::string dir);

  bool contains(engine::EngineKind kind) const;
  /// Injects externally fitted models for `kind`, bypassing the campaign;
  /// they win over (and pre-empt) any get_or_fit for that kind. Injection
  /// is a setup-time operation: a second put for the same kind throws
  /// std::logic_error, because resident models are immutable — threads may
  /// hold references into them.
  void put(engine::EngineKind kind, engine::LatencyModels models);

  /// Memory hit, else disk hit, else runs the fitting campaign (and saves).
  /// In-memory entries are keyed by (kind, config fingerprint) just like
  /// the disk files, so callers with different configurations sharing one
  /// cache never see each other's models. The reference stays valid for the
  /// cache's lifetime (entries are never dropped).
  const engine::LatencyModels& get_or_fit(engine::EngineKind kind,
                                          const pim::PimConfig& pim,
                                          const host::HostConfig& host,
                                          const engine::FitConfig& fit,
                                          bool verbose = false);

  /// Fitting campaigns this cache actually ran (memory and valid disk hits
  /// don't count) — the observable half of the fit-once guarantee.
  std::size_t fit_count() const {
    return fits_.load(std::memory_order_relaxed);
  }

 private:
  /// (kind, config fingerprint); fingerprint 0 holds put()-injected models.
  using Key = std::pair<engine::EngineKind, std::uint64_t>;

  /// One file per (kind, fingerprint): configurations sharing a cache dir
  /// coexist on disk instead of overwriting each other's campaigns.
  std::string cache_path(engine::EngineKind kind,
                         std::uint64_t fingerprint) const;
  /// Validated disk load, else fitting campaign (counted in fits_).
  engine::LatencyModels load_or_fit(engine::EngineKind kind,
                                    std::uint64_t fingerprint,
                                    const pim::PimConfig& pim,
                                    const host::HostConfig& host,
                                    const engine::FitConfig& fit,
                                    bool verbose);

  std::string dir_;
  Memo<Key, engine::LatencyModels> models_;
  std::atomic<std::size_t> fits_{0};
};

struct SessionOptions {
  host::HostConfig host;
  pim::PimConfig pim;
  engine::FitConfig fit = quick_fit_config();
  /// Shared fit-once cache; a private one is created when null.
  std::shared_ptr<ModelCache> models;
  /// Disk cache location for the private ModelCache ("" = memory only).
  /// Ignored when `models` is provided.
  std::string model_cache_dir;
  bool verbose = false;
};

/// Uniform execution interface over one (backend, relation) pair.
///
/// Mutation-safe serving contract: PIM executors serve every read against
/// an immutable epoch-pinned snapshot of the table's shared store
/// (db::SnapshotManager). A read whose pinned version is current runs
/// entirely lock-free; a stale reader re-pins the newest snapshot first
/// (pointer swings of the changed column groups, no replay). Updates route
/// through the manager's single builder, which copy-on-writes only the
/// column groups whose bits change and atomically publishes the successor
/// version. Every result therefore reflects a prefix of the table's update
/// log, and its output's data_version reports which one.
class Executor {
 public:
  virtual ~Executor() = default;
  virtual BackendKind backend() const = 0;
  virtual engine::QueryOutput execute(const sql::BoundQuery& q,
                                      const engine::ExecOptions& opts) = 0;
  /// Executes several bound SELECTs over this executor's relation in one
  /// call, each under its own options: outputs[i]/errors[i] pair with
  /// members[i], exactly one of each set per member. The default runs the
  /// members one by one (the host baselines have no page pass to share);
  /// PIM executors override it with the engine's shared-scan fused pass,
  /// serving every member from ONE pinned snapshot version.
  virtual engine::PimQueryEngine::BatchOutput execute_many(
      const std::vector<engine::BatchMember>& members);
  /// Applies a bound UPDATE (Algorithm 1) and commits it to the table's
  /// update log. Throws std::invalid_argument for backends that cannot
  /// mutate (the host baselines read the immutable catalog table).
  virtual UpdateResult execute_update(const sql::BoundUpdate& update,
                                      const engine::ExecOptions& opts);
  /// Filter-only scan feeding the host hash join: survivor row ids plus the
  /// requested attribute columns, snapshot-pinned exactly like execute().
  /// Throws std::invalid_argument for backends without a scan path (the
  /// columnar baseline models pre-joined plans only).
  virtual engine::ScanOutput execute_scan(
      const std::vector<sql::BoundPredicate>& filters,
      const std::vector<std::size_t>& attrs, const engine::ExecOptions& opts);
};

/// Threading model: a session's executor registry and model lookups are
/// mutex-guarded and its plans live in the Database's shared cache, so
/// concurrent prepare()/models() calls — and sessions sharing one Database
/// and ModelCache across threads — are safe.
/// Executing queries concurrently *through one session* is not: executors
/// are stateful (private scratch pages, the pinned snapshot), so concurrent
/// execute() on a single session requires external synchronization. Use one
/// session per thread (or QueryService, which does exactly that): sessions
/// sharing a Database then serve reads from the SAME immutable snapshot
/// store — readers never block writers, and a writer never blocks readers
/// pinned to the current version.
class Session {
 public:
  explicit Session(Database& db, SessionOptions opts = {});
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- statements ---------------------------------------------------------
  /// Parses, resolves the target against the catalog, binds, and caches
  /// the plan by SQL text in the Database's shared plan cache, so N workers
  /// preparing the same statement bind it once. Accepts SELECT and UPDATE
  /// statements (an UPDATE resolves its table name like a one-element FROM
  /// list); a SELECT whose FROM list names two or more registered tables
  /// binds through the star-join planner (sql::bind_join). Throws
  /// std::invalid_argument on syntax errors, unknown/ambiguous columns,
  /// type mismatches, multiple aggregates, non-star join graphs, or
  /// unencodable SET values.
  PreparedStatement prepare(std::string_view sql_text);
  ResultSet execute(std::string_view sql_text,
                    BackendKind backend = BackendKind::kOneXb,
                    const engine::ExecOptions& opts = {});

  /// One statement of execute_batch: its text and the options it runs
  /// under, its own cancel token included.
  struct BatchStatement {
    std::string sql;
    engine::ExecOptions opts;
  };
  /// One statement's outcome in execute_batch: exactly one of `result` /
  /// `error` is set (per-statement errors never fail batchmates).
  struct BatchItem {
    ResultSet result;
    std::exception_ptr error;
  };
  /// Shared-scan batched execution: settles every statement whose token has
  /// already stopped (typed, without binding it), prepares the rest, groups
  /// the single-table non-join SELECTs by target table and options —
  /// duplicates of one plan with no token execute once and share the
  /// ResultSet — and runs each group through the executor's fused pass
  /// (Executor::execute_many), so a group's members read one snapshot
  /// version in one pass over its pages. Statements that cannot share a
  /// scan (UPDATEs, joins) run after the groups, in statement order. Results
  /// align with `statements`; each item's rows and semantic stats are
  /// byte-identical to a solo execute() of the same text and options. Every
  /// failure lands on the items of the statements it concerns.
  std::vector<BatchItem> execute_batch(
      const std::vector<BatchStatement>& statements,
      BackendKind backend = BackendKind::kOneXb);
  /// execute_batch with every statement under default options.
  std::vector<BatchItem> execute_batch(
      const std::vector<std::string>& sqls,
      BackendKind backend = BackendKind::kOneXb);

  /// EXPLAIN on the one-xb (or given) PIM backend; throws
  /// std::invalid_argument for the host baselines, which have no physical
  /// plan. A join's EXPLAIN runs its dimension scans: the stages after them
  /// depend on their survivors. On two-xb it states each relation that
  /// loads as one part.
  std::string explain(std::string_view sql_text,
                      BackendKind backend = BackendKind::kOneXb);

  // --- backends -----------------------------------------------------------
  /// The executor of `backend` over the default target relation. Two-xb
  /// over a relation with no dimension attribute is the one-xb executor:
  /// the relation loads as one part.
  Executor& executor(BackendKind backend);
  Executor& executor(BackendKind backend, std::string_view table);
  Executor& executor_for(BackendKind backend, const rel::Table& table);

  // --- models (fit-once-and-cache) ----------------------------------------
  const engine::LatencyModels& models(engine::EngineKind kind);
  const std::shared_ptr<ModelCache>& model_cache() { return model_cache_; }

  // --- low-level escape hatches ------------------------------------------
  /// The engine (store loaded) behind a PIM backend over the default target
  /// relation. Models are fitted lazily when a facade execution needs the
  /// GROUP-BY planner; to run grouped queries directly on the returned
  /// engine, seed it first: `eng.set_models(session.models(kind))`.
  engine::PimQueryEngine& pim_engine(engine::EngineKind kind);
  engine::PimQueryEngine& pim_engine(engine::EngineKind kind,
                                     std::string_view table);

  Database& database() { return *db_; }
  const SessionOptions& options() const { return opts_; }

 private:
  friend class PreparedStatement;

  /// Parses and binds `sql_text` against the current catalog: UPDATE, the
  /// multi-table join path (every FROM name registered), or the seed's
  /// single-table resolution. Front-end only — no executors touched.
  Plan build_plan(std::string_view sql_text);
  /// Runs a bound join plan: the dimension scans, then the fact scan that
  /// engine::plan_star_join asks for (none when a build side is empty; on a
  /// PIM backend, with the semijoin prefix it prices on the fact's store),
  /// then engine::finish_star_join's host join and stats. Every scan is
  /// snapshot-pinned, and so is the fact's version when its scan is skipped.
  ResultSet execute_join(const Plan& plan, BackendKind backend,
                         const engine::ExecOptions& opts);

  Database* db_;
  SessionOptions opts_;
  std::shared_ptr<ModelCache> model_cache_;
  /// Guards executors_; held across executor construction so a backend's
  /// first touch (PIM store load) happens exactly once per (backend, table).
  std::mutex executors_mutex_;
  std::map<std::pair<BackendKind, const rel::Table*>,
           std::unique_ptr<Executor>>
      executors_;
};

}  // namespace bbpim::db
