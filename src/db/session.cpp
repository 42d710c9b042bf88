#include "db/session.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "baseline/monet.hpp"
#include "baseline/reference.hpp"
#include "db/snapshot_manager.hpp"
#include "engine/explain.hpp"
#include "engine/fault_injector.hpp"
#include "engine/hash_join.hpp"
#include "engine/pim_store.hpp"
#include "pim/module.hpp"
#include "sql/parser.hpp"

namespace bbpim::db {
namespace {

const rel::Attribute& attribute_of(const rel::Schema& schema,
                                   std::size_t attr) {
  return schema.attribute(attr);
}

const rel::Attribute& attribute_of(const std::vector<const rel::Table*>& tables,
                                   const sql::BoundColumnRef& ref) {
  return tables[ref.table]->schema().attribute(ref.attr);
}

/// The result header: the GROUP BY columns, named through `source` (the
/// schema of a single-table query, the FROM tables of a join), then the
/// aggregate.
template <class Ref, class Source>
std::vector<ResultSet::Column> result_columns(const sql::AggregateTail<Ref>& q,
                                              const Source& source) {
  std::vector<ResultSet::Column> cols;
  for (const Ref& g : q.group_by) {
    const rel::Attribute& a = attribute_of(source, g);
    cols.push_back({a.name, false, a.dict});
  }
  cols.push_back({q.agg_alias.empty() ? "agg" : q.agg_alias, true, nullptr});
  return cols;
}

/// PIM backends: a zero-copy view over the table's shared snapshot store.
/// The executor pins the current StoreSnapshot (published by the table's
/// db::SnapshotManager), allocates its own pages for private scratch (each
/// scratch group on its first write), and serves queries against the
/// snapshot's immutable crossbar data. Updates route through the manager's
/// single builder store; the executor then re-pins the version it produced
/// (read-your-writes).
/// Models are fitted only when a query actually needs the GROUP-BY planner.
class PimExecutor final : public Executor {
 public:
  PimExecutor(Session& session, engine::EngineKind kind,
              const rel::Table& table)
      : session_(&session),
        kind_(kind),
        writes_(&session.database().writes(table)),
        manager_(&session.database().snapshot_manager(
            table, kind == engine::EngineKind::kTwoXb,
            session.options().pim)),
        snap_(manager_->acquire(session.options().host)),
        module_(session.options().pim),
        store_(module_, table, manager_->store_options(), snap_),
        engine_(kind, store_, session.options().host) {
    if (session.options().verbose) {
      std::cerr << "[db] pinned '" << table.name() << "' snapshot v"
                << snap_->version() << " ("
                << engine::engine_kind_name(kind) << "): "
                << store_.record_count() << " records, "
                << store_.pages_per_part() << " pages/part\n";
    }
  }

  BackendKind backend() const override { return backend_of(kind_); }

  engine::QueryOutput execute(const sql::BoundQuery& q,
                              const engine::ExecOptions& opts) override {
    engine::PimQueryEngine::BatchOutput out = execute_many({{&q, opts}});
    if (out.errors[0] != nullptr) std::rethrow_exception(out.errors[0]);
    return std::move(out.outputs[0]);
  }

  engine::PimQueryEngine::BatchOutput execute_many(
      const std::vector<engine::BatchMember>& members) override {
    // The planner (Equation 3) is the only consumer of the fitted models;
    // forced-k and ungrouped queries run model-free, exactly as the seed's
    // ablation benches did.
    bool planned = false;
    for (const engine::BatchMember& m : members) {
      planned |= m.query->has_group_by() && !m.opts.force_k.has_value();
    }
    if (planned) ensure_models();
    // One refresh pins ONE snapshot version for the whole batch: every
    // member reads the same prefix of the table's update log, and a commit
    // landing mid-batch is observed by all members or by none.
    refresh();
    return engine_.execute_batch(members);
  }

  UpdateResult execute_update(const sql::BoundUpdate& update,
                              const engine::ExecOptions&) override {
    UpdateResult result;
    result.stats = manager_->apply_update(update, session_->options().host,
                                          &result.data_version);
    // Read-your-writes: re-pin at (at least) the version this update
    // produced before the caller's next read through this executor.
    snap_ = manager_->acquire(session_->options().host);
    store_.adopt(snap_);
    return result;
  }

  /// The store at the version a read through this executor would see now,
  /// pinned without reading: a join prices its fact scan on it, and reports
  /// its data_version when the scan is skipped.
  const engine::PimStore& pin_store() {
    refresh();
    return store_;
  }

  engine::ScanOutput execute_scan(
      const std::vector<sql::BoundPredicate>& filters,
      const std::vector<std::size_t>& attrs,
      const engine::ExecOptions& opts) override {
    refresh();
    return engine_.execute_scan(filters, attrs, opts);
  }

  void ensure_models() {
    if (!engine_.models().fitted()) {
      engine_.set_models(session_->models(kind_));
    }
  }

  engine::PimQueryEngine& engine() { return engine_; }

 private:
  /// Re-pins the current snapshot when behind. The fast path is one atomic
  /// load with no locks anywhere: when the table's committed counter equals
  /// the pinned version (the common case in read-mostly serving) the
  /// executor touches neither the writer gate nor the manager — this is
  /// what removed the reader-side contention that made HTAP worker scaling
  /// negative. A commit racing the check serializes after this read.
  void refresh() {
    if (writes_->committed.load(std::memory_order_acquire) !=
        snap_->version()) {
      snap_ = manager_->acquire(session_->options().host);
      store_.adopt(snap_);
    }
  }

  Session* session_;
  engine::EngineKind kind_;
  TableWrites* writes_;
  SnapshotManager* manager_;
  std::shared_ptr<const engine::StoreSnapshot> snap_;  ///< pinned version
  pim::PimModule module_;      ///< scratch pages only (data is the snapshot's)
  engine::PimStore store_;     ///< view over snap_
  engine::PimQueryEngine engine_;
};

/// What a host-baseline read checks before it scans. The PIM-only
/// execution knobs are meaningless there; silently ignoring them would let
/// an ablation pointed at the wrong backend report plausible-looking but
/// meaningless numbers. The baselines scan the immutable catalog table, so
/// once PIM-side updates exist their results would silently diverge from
/// every PIM backend: refuse instead of serving stale rows. Last, a
/// statement whose token has stopped unwinds typed, as on every backend.
void check_host_read(BackendKind backend, const engine::ExecOptions& opts,
                     Database& db, const rel::Table& table) {
  if (opts != engine::ExecOptions{}) {  // any simulation knob set
    throw std::invalid_argument(
        std::string("execute: backend '") + backend_name(backend) +
        "' does not honor ExecOptions (force_k / skip_host_gb / sim_scalar"
        " are PIM-only)");
  }
  if (db.update_version(table) > 0) {
    throw std::runtime_error(
        std::string("execute: backend '") + backend_name(backend) +
        "' reads the immutable catalog table and cannot observe the " +
        "committed PIM updates on '" + table.name() + "'");
  }
  opts.cancel.check();
}

/// MonetDB-like columnar cost model over the target relation (mnt-join).
class ColumnarExecutor final : public Executor {
 public:
  ColumnarExecutor(Database& db, const rel::Table& table)
      : db_(&db), table_(&table) {}

  BackendKind backend() const override { return BackendKind::kColumnar; }

  engine::QueryOutput execute(const sql::BoundQuery& q,
                              const engine::ExecOptions& opts) override {
    check_host_read(backend(), opts, *db_, *table_);
    baseline::BaselineRun run = baseline::execute_prejoined(*table_, q);
    engine::QueryOutput out;
    out.rows = std::move(run.rows);
    out.stats.total_ns = run.model_ns;
    out.stats.set_selected(run.selected_records, table_->row_count());
    return out;
  }

 private:
  Database* db_;
  const rel::Table* table_;
};

/// Scalar reference scan: exact rows, no cost model.
class ReferenceExecutor final : public Executor {
 public:
  ReferenceExecutor(Database& db, const rel::Table& table)
      : db_(&db), table_(&table) {}

  BackendKind backend() const override { return BackendKind::kReference; }

  engine::QueryOutput execute(const sql::BoundQuery& q,
                              const engine::ExecOptions& opts) override {
    check_host_read(backend(), opts, *db_, *table_);
    baseline::ReferenceRun run = baseline::scan_execute(*table_, q);
    engine::QueryOutput out;
    out.rows = std::move(run.rows);
    out.stats.set_selected(run.selected_records, table_->row_count());
    return out;
  }

  /// Exact row-at-a-time scan of the catalog table: the oracle half of the
  /// join parity tests. No cost model (stats stay zero).
  engine::ScanOutput execute_scan(
      const std::vector<sql::BoundPredicate>& filters,
      const std::vector<std::size_t>& attrs,
      const engine::ExecOptions& opts) override {
    check_host_read(backend(), opts, *db_, *table_);
    engine::ScanOutput out;
    out.columns.resize(attrs.size());
    for (std::size_t r = 0; r < table_->row_count(); ++r) {
      if (!baseline::row_matches(*table_, r, filters)) continue;
      out.row_ids.push_back(r);
      for (std::size_t i = 0; i < attrs.size(); ++i) {
        out.columns[i].push_back(table_->value(r, attrs[i]));
      }
    }
    out.stats.set_selected(out.row_ids.size(), table_->row_count());
    return out;
  }

 private:
  Database* db_;
  const rel::Table* table_;
};

/// A star join's dimension scans through `session`'s executors, each
/// snapshot-pinned, then the engine's plan for the rest
/// (engine::plan_star_join), priced on the fact's PIM store at the version
/// pinned after them.
engine::StarJoin plan_join(Session& session, const Plan& plan,
                           BackendKind backend,
                           const engine::ExecOptions& opts) {
  const sql::BoundJoin& jp = plan.join;
  const auto attrs = engine::join_scan_attrs(jp);
  std::vector<engine::ScanOutput> scans(jp.table_names.size());
  for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
    if (t == jp.fact) continue;
    scans[t] = session.executor_for(backend, *plan.join_tables[t])
                   .execute_scan(jp.filters[t], attrs[t], opts);
  }
  auto* pim = dynamic_cast<PimExecutor*>(
      &session.executor_for(backend, *plan.join_tables[jp.fact]));
  return engine::plan_star_join(jp, std::move(scans), plan.join_tables,
                                pim != nullptr ? &pim->pin_store() : nullptr,
                                session.options().host);
}

/// The store EXPLAIN renders `table` from on `backend`; throws
/// std::invalid_argument for the host baselines, which have none. Two-xb
/// states when `table` loads as one part (Session::executor_for).
const engine::PimStore& explained_store(Session& session, BackendKind backend,
                                        const rel::Table& table,
                                        std::ostream& os) {
  auto* pim = dynamic_cast<PimExecutor*>(&session.executor_for(backend, table));
  if (pim == nullptr) {
    throw std::invalid_argument(std::string("explain: backend '") +
                                backend_name(backend) +
                                "' has no physical plan rendering");
  }
  if (backend == BackendKind::kTwoXb && pim->backend() != backend) {
    os << "two-xb: '" << table.name()
       << "' has no dimension attribute; it loads as one part\n";
  }
  return pim->engine().store();
}

}  // namespace

engine::FitConfig quick_fit_config() {
  engine::FitConfig fit;
  fit.page_counts = {2, 4};
  fit.ratios = {0.02, 0.2, 0.6};
  fit.s_values = {2, 4};
  fit.n_values = {1, 2};
  return fit;
}

// --- ModelCache ------------------------------------------------------------

ModelCache::ModelCache(std::string dir) : dir_(std::move(dir)) {}

std::string ModelCache::cache_path(engine::EngineKind kind,
                                   std::uint64_t fingerprint) const {
  std::ostringstream ss;
  ss << dir_ << "/bbpim_models_" << engine::engine_kind_name(kind) << '_'
     << fingerprint << ".txt";
  return ss.str();
}

bool ModelCache::contains(engine::EngineKind kind) const {
  return models_.count_if([kind](const Key& k) { return k.first == kind; }) !=
         0;
}

void ModelCache::put(engine::EngineKind kind, engine::LatencyModels models) {
  if (!models_.put({kind, 0}, std::move(models))) {
    // Resident models are immutable — other threads may hold references
    // into them — so injection only works before first use.
    throw std::logic_error(std::string("ModelCache::put: models for '") +
                           engine::engine_kind_name(kind) +
                           "' already resident");
  }
}

engine::LatencyModels ModelCache::load_or_fit(
    engine::EngineKind kind, std::uint64_t fingerprint,
    const pim::PimConfig& pim, const host::HostConfig& host,
    const engine::FitConfig& fit, bool verbose) {
  const std::string path = cache_path(kind, fingerprint);
  if (!dir_.empty()) {
    if (std::ifstream in(path); in.good()) {
      // A cache file is only trusted when it parses cleanly, carries the
      // fingerprint of OUR configuration, and holds a usable (non-empty)
      // model. Anything else — truncation, corruption, a hand-copied file
      // fitted under different configs, the pre-fingerprint format — is a
      // miss.
      try {
        std::uint64_t file_fingerprint = 0;
        engine::LatencyModels loaded =
            engine::LatencyModels::load(in, &file_fingerprint);
        if (loaded.fitted() && file_fingerprint == fingerprint) {
          if (verbose) {
            std::cerr << "[db] loading cached models from " << path << "\n";
          }
          return loaded;
        }
        if (verbose) {
          std::cerr << "[db] stale model cache " << path
                    << (loaded.fitted() ? " (config fingerprint mismatch)"
                                        : " (empty model)")
                    << " — refitting\n";
        }
      } catch (const std::exception& e) {
        if (verbose) {
          std::cerr << "[db] unreadable model cache " << path << " ("
                    << e.what() << ") — refitting\n";
        }
      }
    }
  }
  if (verbose) {
    std::cerr << "[db] fitting latency models for "
              << engine::engine_kind_name(kind) << "...\n";
  }
  engine::LatencyModels models =
      engine::fit_latency_models(kind, pim, host, fit).models;
  fits_.fetch_add(1, std::memory_order_relaxed);
  if (!dir_.empty()) {
    // Write a temp file and rename it into place (atomic on POSIX) so a
    // concurrent reader never sees a partial write. Writers that race on
    // the same temp name are by construction fitting the same configuration
    // — the campaign is deterministic, so they write identical bytes.
    const std::string tmp = path + ".tmp";
    bool written = false;
    {
      std::ofstream out(tmp);
      if (out.good()) {
        models.save(out, fingerprint);
        written = out.good();
      }
    }
    if (!written || std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
    }
  }
  return models;
}

const engine::LatencyModels& ModelCache::get_or_fit(
    engine::EngineKind kind, const pim::PimConfig& pim,
    const host::HostConfig& host, const engine::FitConfig& fit, bool verbose) {
  // Explicitly injected models (put) pre-empt fitting for their kind.
  if (const auto injected = models_.find(Key{kind, 0})) return *injected;
  const std::uint64_t fingerprint = engine::config_fingerprint(pim, host, fit);
  return *models_
              .get_or_compute(Key{kind, fingerprint},
                              [&] {
                                return load_or_fit(kind, fingerprint, pim,
                                                   host, fit, verbose);
                              })
              .value;
}

// --- PreparedStatement -----------------------------------------------------

ResultSet PreparedStatement::execute(BackendKind backend,
                                     const engine::ExecOptions& opts) const {
  if (session_ == nullptr) {
    throw std::logic_error("PreparedStatement: not prepared by a session");
  }
  if (plan_->is_join()) {
    return session_->execute_join(*plan_, backend, opts);
  }
  Executor& ex = session_->executor_for(backend, *plan_->target);
  if (plan_->kind == sql::Statement::Kind::kUpdate) {
    return ResultSet(ex.execute_update(plan_->update, opts), backend);
  }
  return ResultSet(ex.execute(plan_->bound, opts),
                   result_columns(plan_->bound, plan_->target->schema()),
                   backend);
}

// --- Session ---------------------------------------------------------------

UpdateResult Executor::execute_update(const sql::BoundUpdate&,
                                      const engine::ExecOptions&) {
  throw std::invalid_argument(
      std::string("execute: backend '") + backend_name(backend()) +
      "' does not support UPDATE (host baselines read the immutable "
      "catalog table; route updates through a PIM backend)");
}

engine::ScanOutput Executor::execute_scan(
    const std::vector<sql::BoundPredicate>&, const std::vector<std::size_t>&,
    const engine::ExecOptions&) {
  throw std::invalid_argument(
      std::string("execute: backend '") + backend_name(backend()) +
      "' has no per-table scan path (joins run on PIM or reference "
      "backends; the columnar baseline models pre-joined plans only)");
}

engine::PimQueryEngine::BatchOutput Executor::execute_many(
    const std::vector<engine::BatchMember>& members) {
  engine::PimQueryEngine::BatchOutput out;
  out.outputs.resize(members.size());
  out.errors.resize(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    try {
      out.outputs[i] = execute(*members[i].query, members[i].opts);
    } catch (...) {
      out.errors[i] = std::current_exception();
    }
  }
  return out;
}

Session::Session(Database& db, SessionOptions opts)
    : db_(&db), opts_(std::move(opts)) {
  model_cache_ = opts_.models != nullptr
                     ? opts_.models
                     : std::make_shared<ModelCache>(opts_.model_cache_dir);
}

Session::~Session() = default;

PreparedStatement Session::prepare(std::string_view sql_text) {
  // The Database-scope bind-once front door: N sessions (QueryService
  // workers) racing the same uncached statement bind it exactly once, and
  // a catalog change invalidates every plan bound against the old catalog.
  return PreparedStatement(
      *this, db_->find_or_bind(sql_text, [&] { return build_plan(sql_text); }));
}

Plan Session::build_plan(std::string_view sql_text) {
  // Fault seam: binding sits before any shared state mutates (a throwing
  // bind releases the Database plan-cache claim), so an injected fault here
  // is transient — the service's retry re-binds cleanly.
  engine::fault_point(engine::FaultSeam::kPlanBind);
  Plan plan;
  plan.sql = std::string(sql_text);
  const sql::Statement stmt = sql::parse_statement(plan.sql);
  plan.kind = stmt.kind;
  if (stmt.kind == sql::Statement::Kind::kUpdate) {
    // UPDATE targets resolve like FROM lists: a registered table by name,
    // else the default target (SSB updates name logical source tables the
    // pre-joined relation subsumes).
    const rel::Table& target = db_->resolve_target({stmt.update.table});
    plan.update = sql::bind_update(stmt.update, target.schema());
    plan.target = &target;
    return plan;
  }
  // The join path triggers only when EVERY name in a multi-table FROM list
  // is a registered table. Otherwise the seed semantics hold: SSB texts
  // naming logical source tables fall through to the default (pre-joined)
  // target, so the same query runs normalized or pre-joined depending only
  // on what the catalog holds.
  const std::vector<std::string>& from = stmt.select.from;
  bool join_path = from.size() > 1;
  for (const std::string& name : from) {
    if (!db_->has_table(name)) {
      join_path = false;
      break;
    }
  }
  if (join_path) {
    std::vector<sql::JoinTableRef> refs;
    refs.reserve(from.size());
    plan.join_tables.reserve(from.size());
    for (const std::string& name : from) {
      const rel::Table& t = db_->table(name);
      refs.push_back({name, &t.schema(), t.row_count()});
      plan.join_tables.push_back(&t);
    }
    plan.join = sql::bind_join(stmt.select, refs);
    plan.target = plan.join_tables[plan.join.fact];
    return plan;
  }
  const rel::Table& target = db_->resolve_target(stmt.select.from);
  plan.bound = sql::bind(stmt.select, target.schema());
  plan.target = &target;
  return plan;
}

ResultSet Session::execute_join(const Plan& plan, BackendKind backend,
                                const engine::ExecOptions& opts) {
  const sql::BoundJoin& jp = plan.join;
  // One token for the whole join: its deadline covers every per-table scan
  // plus the host build/probe.
  engine::StarJoin join = plan_join(*this, plan, backend, opts);
  if (join.scans_fact()) {
    join.scans[jp.fact] =
        executor_for(backend, *plan.join_tables[jp.fact])
            .execute_scan(join.fact_filters,
                          engine::join_scan_attrs(jp)[jp.fact], opts);
  }
  // The version each table's scan read (or, for a skipped fact scan,
  // pinned), in FROM order.
  std::vector<std::pair<std::string, std::uint64_t>> versions;
  for (std::size_t t = 0; t < jp.table_names.size(); ++t) {
    versions.emplace_back(jp.table_names[t], join.scans[t].data_version);
  }
  ResultSet rs(engine::finish_star_join(jp, std::move(join), opts_.host,
                                        opts.cancel),
               result_columns(jp, plan.join_tables), backend);
  rs.set_table_versions(std::move(versions));
  return rs;
}

ResultSet Session::execute(std::string_view sql_text, BackendKind backend,
                           const engine::ExecOptions& opts) {
  return prepare(sql_text).execute(backend, opts);
}

std::vector<Session::BatchItem> Session::execute_batch(
    const std::vector<std::string>& sqls, BackendKind backend) {
  std::vector<BatchStatement> statements;
  statements.reserve(sqls.size());
  for (const std::string& sql : sqls) statements.push_back({sql, {}});
  return execute_batch(statements, backend);
}

std::vector<Session::BatchItem> Session::execute_batch(
    const std::vector<BatchStatement>& statements, BackendKind backend) {
  std::vector<BatchItem> items(statements.size());

  // Front end, per statement: one whose token has already stopped (deadline
  // spent queued, caller cancelled) settles typed without being bound, and
  // a text that fails to parse or bind carries its own error; neither
  // touches its batchmates.
  std::vector<std::shared_ptr<const Plan>> plans(statements.size());
  for (std::size_t i = 0; i < statements.size(); ++i) {
    try {
      statements[i].opts.cancel.check();
      plans[i] = prepare(statements[i].sql).plan_;
    } catch (...) {
      items[i].error = std::current_exception();
    }
  }
  const auto batchable = [&](std::size_t i) {
    return items[i].error == nullptr &&
           plans[i]->kind == sql::Statement::Kind::kSelect &&
           !plans[i]->is_join();
  };

  // Admission: single-table SELECTs group by target table and options
  // (ExecOptions::operator==, which ignores the token); a mixed batch
  // splits into one group per (table, options). Groups form in
  // first-statement order.
  struct Group {
    const rel::Table* target = nullptr;
    std::vector<std::size_t> members;  ///< item indices, statement order
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < statements.size(); ++i) {
    if (!batchable(i)) continue;
    Group* g = nullptr;
    for (Group& cand : groups) {
      if (cand.target == plans[i]->target &&
          statements[cand.members.front()].opts == statements[i].opts) {
        g = &cand;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back({plans[i]->target, {}});
      g = &groups.back();
    }
    g->members.push_back(i);
  }

  for (Group& g : groups) {
    // Duplicate texts share one plan (the cache interns by SQL text); the
    // engine executes each unique plan once and every duplicate copies the
    // result — the cheapest scan is the one that never runs. Members that
    // carry their own abort token are never interned: a cancelled member
    // must not take a duplicate's result (or fate) with it.
    std::vector<engine::BatchMember> unique;
    std::vector<std::size_t> slot_of(g.members.size());
    for (std::size_t m = 0; m < g.members.size(); ++m) {
      const std::size_t i = g.members[m];
      const engine::BatchMember member{&plans[i]->bound, statements[i].opts};
      std::size_t u = unique.size();
      if (!member.opts.cancel.valid()) {
        for (u = 0; u < unique.size(); ++u) {
          if (unique[u].query == member.query &&
              !unique[u].opts.cancel.valid()) {
            break;
          }
        }
      }
      if (u == unique.size()) unique.push_back(member);
      slot_of[m] = u;
    }
    std::vector<std::size_t> dup_count(unique.size(), 0);
    for (const std::size_t u : slot_of) ++dup_count[u];

    engine::PimQueryEngine::BatchOutput out;
    try {
      out = executor_for(backend, *g.target).execute_many(unique);
    } catch (...) {
      // A fault before the executor isolates its members (the snapshot
      // pin) is the error of every statement in the group.
      for (const std::size_t i : g.members) {
        items[i].error = std::current_exception();
      }
      continue;
    }
    for (std::size_t m = 0; m < g.members.size(); ++m) {
      const std::size_t i = g.members[m];
      const std::size_t u = slot_of[m];
      if (out.errors[u] != nullptr) {
        items[i].error = out.errors[u];
        continue;
      }
      engine::QueryOutput qo = out.outputs[u];
      // batched_queries counts the statements whose answers this execution
      // produced: a fused member served the whole group (duplicates ride
      // along); an unfused one (engine fell back, a singleton, a host
      // baseline) still served its own duplicates. 0 = genuinely solo.
      qo.stats.batched_queries =
          out.fused ? g.members.size() : (dup_count[u] > 1 ? dup_count[u] : 0);
      items[i].result = ResultSet(
          std::move(qo),
          result_columns(plans[i]->bound, plans[i]->target->schema()),
          backend);
    }
  }

  // Everything that cannot share a scan (UPDATEs, joins) runs after the
  // groups, in statement order, exactly as a plain execute() would.
  for (std::size_t i = 0; i < statements.size(); ++i) {
    if (items[i].error != nullptr || batchable(i)) continue;
    try {
      items[i].result = PreparedStatement(*this, plans[i])
                            .execute(backend, statements[i].opts);
    } catch (...) {
      items[i].error = std::current_exception();
    }
  }
  return items;
}

std::string Session::explain(std::string_view sql_text, BackendKind backend) {
  const PreparedStatement st = prepare(sql_text);
  if (st.is_update()) {
    throw std::invalid_argument(
        "explain: UPDATE statements have no physical plan rendering");
  }
  // Throws for the host baselines before a join runs any scan.
  std::ostringstream ss;
  const engine::PimStore& target =
      explained_store(*this, backend, st.target(), ss);
  if (!st.is_join()) {
    engine::explain_query(st.bound(), target, ss);
    return ss.str();
  }
  const Plan& plan = *st.plan_;
  engine::explain_join_tree(plan.join, plan.join_tables,
                            plan_join(*this, plan, backend, {}), ss);
  for (std::size_t t = 0; t < plan.join.table_names.size(); ++t) {
    ss << "-- scan " << plan.join.table_names[t] << " --\n";
    engine::explain_scan(
        plan.join.filters[t],
        explained_store(*this, backend, *plan.join_tables[t], ss), ss);
  }
  return ss.str();
}

Executor& Session::executor(BackendKind backend) {
  return executor_for(backend, db_->default_target());
}

Executor& Session::executor(BackendKind backend, std::string_view table) {
  return executor_for(backend, db_->table(table));
}

Executor& Session::executor_for(BackendKind backend, const rel::Table& table) {
  // Two-xb loads a relation with no dimension attribute as one part, so it
  // runs on the one-xb executor: its engine, models and snapshots.
  if (backend == BackendKind::kTwoXb && !table.schema().has_dimension_attrs()) {
    backend = BackendKind::kOneXb;
  }
  const auto key = std::make_pair(backend, &table);
  std::lock_guard lock(executors_mutex_);
  auto it = executors_.find(key);
  if (it != executors_.end()) return *it->second;

  std::unique_ptr<Executor> ex;
  if (const auto kind = engine_kind_of(backend)) {
    ex = std::make_unique<PimExecutor>(*this, *kind, table);
  } else if (backend == BackendKind::kColumnar) {
    ex = std::make_unique<ColumnarExecutor>(*db_, table);
  } else {
    ex = std::make_unique<ReferenceExecutor>(*db_, table);
  }
  return *executors_.emplace(key, std::move(ex)).first->second;
}

const engine::LatencyModels& Session::models(engine::EngineKind kind) {
  return model_cache_->get_or_fit(kind, opts_.pim, opts_.host, opts_.fit,
                                  opts_.verbose);
}

engine::PimQueryEngine& Session::pim_engine(engine::EngineKind kind) {
  return static_cast<PimExecutor&>(
             executor_for(backend_of(kind), db_->default_target()))
      .engine();
}

engine::PimQueryEngine& Session::pim_engine(engine::EngineKind kind,
                                            std::string_view table) {
  return static_cast<PimExecutor&>(
             executor_for(backend_of(kind), db_->table(table)))
      .engine();
}

}  // namespace bbpim::db
