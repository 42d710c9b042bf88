// Parity: the db facade is a layer over PimQueryEngine, not a fork.
//
// Runs the full SSB query set twice — once through a db::Session, once
// through hand-wired PimStore + PimQueryEngine + fit_latency_models exactly
// as the seed's call sites did — and asserts byte-identical
// QueryOutput.rows for every query and engine variant. The same world also
// checks the vectorized kernels against the scalar gate-level oracle
// (ExecOptions::sim_scalar) at 1 and 4 simulation threads.
#include <gtest/gtest.h>

#include <memory>

#include "db/db.hpp"
#include "engine/model_fitter.hpp"
#include "engine/pim_store.hpp"
#include "engine/query_exec.hpp"
#include "pim/module.hpp"
#include "sql/parser.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/queries.hpp"

namespace bbpim {
namespace {

using engine::EngineKind;

struct ParityWorld {
  static ParityWorld& instance() {
    static ParityWorld w;
    return w;
  }

  ssb::SsbData data;
  db::Database database;
  std::unique_ptr<db::Session> session;

  // The seed's 7-step wiring ritual, reproduced verbatim as the oracle.
  pim::PimConfig cfg;
  host::HostConfig hcfg;
  std::unique_ptr<pim::PimModule> modules[3];
  std::unique_ptr<engine::PimStore> stores[3];
  std::unique_ptr<engine::PimQueryEngine> raw[3];

  const rel::Table& prejoined() { return database.default_target(); }

  engine::PimQueryEngine& raw_engine(EngineKind kind) {
    return *raw[static_cast<int>(kind)];
  }

  /// A session over the same catalog with other simulation settings: it
  /// pins the same snapshots and shares the default session's model fit.
  db::Session arm(std::uint32_t sim_threads, bool prune = false) {
    db::SessionOptions opts = session->options();
    opts.models = session->model_cache();
    opts.host.sim_threads = sim_threads;
    opts.host.prune = prune;
    return db::Session(database, std::move(opts));
  }

 private:
  ParityWorld() {
    ssb::SsbConfig gen;
    gen.scale_factor = 0.02;
    gen.seed = 4321;
    data = ssb::generate(gen);
    database.register_table(ssb::prejoin_ssb(data));

    db::SessionOptions opts;  // facade defaults: quick fit grid
    session = std::make_unique<db::Session>(database, opts);

    for (const EngineKind kind : engine::kAllEngineKinds) {
      const int i = static_cast<int>(kind);
      modules[i] = std::make_unique<pim::PimModule>(cfg);
      engine::PimStore::Options sopt;
      sopt.two_crossbar = kind == EngineKind::kTwoXb;
      stores[i] =
          std::make_unique<engine::PimStore>(*modules[i], prejoined(), sopt);
      raw[i] = std::make_unique<engine::PimQueryEngine>(
          kind, *stores[i], hcfg,
          engine::fit_latency_models(kind, cfg, hcfg, db::quick_fit_config())
              .models);
    }
  }
};

struct ParityCase {
  const char* id;
  EngineKind kind;
};

class FacadeMatchesRawEngine : public ::testing::TestWithParam<ParityCase> {};

TEST_P(FacadeMatchesRawEngine, ByteIdenticalRows) {
  const auto [id, kind] = GetParam();
  ParityWorld& w = ParityWorld::instance();
  const auto& q = ssb::query(id);

  const db::ResultSet facade =
      w.session->execute(q.sql, db::backend_of(kind));
  const sql::BoundQuery bound =
      sql::bind(sql::parse(q.sql), w.prejoined().schema());
  const engine::QueryOutput raw = w.raw_engine(kind).execute(bound);

  ASSERT_EQ(facade.row_count(), raw.rows.size());
  for (std::size_t i = 0; i < raw.rows.size(); ++i) {
    ASSERT_EQ(facade.rows()[i].group, raw.rows[i].group) << "row " << i;
    ASSERT_EQ(facade.rows()[i].agg, raw.rows[i].agg) << "row " << i;
  }
  // Same plan, same simulated machine: the cost side must agree too.
  EXPECT_EQ(facade.stats().selected_records, raw.stats.selected_records);
  EXPECT_EQ(facade.stats().pim_subgroups, raw.stats.pim_subgroups);
}

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  for (const auto& q : ssb::queries()) {
    for (const EngineKind kind : engine::kAllEngineKinds) {
      cases.push_back({q.id.data(), kind});
    }
  }
  return cases;
}

std::string parity_name(const ::testing::TestParamInfo<ParityCase>& info) {
  std::string id(info.param.id);
  for (char& c : id) {
    if (c == '.') c = '_';
  }
  return "Q" + id + "_" + engine_kind_name(info.param.kind);
}

INSTANTIATE_TEST_SUITE_P(Ssb, FacadeMatchesRawEngine,
                         ::testing::ValuesIn(parity_cases()), parity_name);

// The scalar kernels on one thread are the oracle: the vectorized kernels
// must reproduce their rows, modeled cost and plan exactly at any thread
// count.
TEST(KernelParity, ScalarAndThreadedKernelsAgreeOnSsb) {
  ParityWorld& w = ParityWorld::instance();
  db::Session serial = w.arm(1);
  db::Session threaded = w.arm(4);
  engine::ExecOptions scalar;
  scalar.sim_scalar = true;
  for (const auto& q : ssb::queries()) {
    const db::ResultSet oracle =
        serial.execute(q.sql, db::BackendKind::kOneXb, scalar);
    for (db::Session* arm : {&serial, &threaded}) {
      const std::uint32_t threads = arm->options().host.sim_threads;
      const db::ResultSet rs = arm->execute(q.sql, db::BackendKind::kOneXb);
      EXPECT_EQ(rs.rows(), oracle.rows()) << "Q" << q.id << " at " << threads;
      EXPECT_TRUE(engine::stats_equal(
          rs.stats(), oracle.stats(),
          {engine::StatClass::kCost, engine::StatClass::kPlan}))
          << "Q" << q.id << " at " << threads << " threads";
    }
  }
}

// No bulk reader widens a host column: the pre-join, the store load and its
// version-0 stats, the one-xb, two-xb and reference backends and a pruned
// shared scan all read the relations at their native widths, so every
// table still holds its 1/2/4/8-byte columns alone (Table::column's uint64
// copies would show in resident_bytes).
TEST(HostTables, BulkReadersKeepNativeWidths) {
  ParityWorld& w = ParityWorld::instance();
  std::vector<std::string> texts;
  for (const auto& q : ssb::queries()) {
    texts.emplace_back(q.sql);
    for (const db::BackendKind backend :
         {db::BackendKind::kOneXb, db::BackendKind::kTwoXb,
          db::BackendKind::kReference}) {
      w.session->execute(q.sql, backend);
    }
  }
  db::Session pruned = w.arm(0, true);  // 0: all hardware threads
  for (const auto& item :
       pruned.execute_batch(texts, db::BackendKind::kOneXb)) {
    EXPECT_FALSE(item.error);
  }

  const auto native_bytes = [](const rel::Table& t) {
    std::size_t bytes = 0;
    for (std::size_t a = 0; a < t.schema().attribute_count(); ++a) {
      bytes += t.visit_column(a, [](auto col) { return col.size_bytes(); });
    }
    return bytes;
  };
  for (const rel::Table* t : std::initializer_list<const rel::Table*>{
           &w.prejoined(), &w.data.lineorder, &w.data.date,
           &w.data.customer, &w.data.supplier, &w.data.part}) {
    EXPECT_EQ(t->resident_bytes(), native_bytes(*t)) << t->name();
  }
}

}  // namespace
}  // namespace bbpim
