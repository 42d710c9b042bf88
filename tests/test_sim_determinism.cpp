// Parallel-vs-serial determinism of the simulation core.
//
// The page-parallel substrate promises that the simulation thread budget is
// invisible in every observable output: result rows, modeled phase times,
// energy by category (bit-identical doubles — per-chunk journaling meters
// replayed in page order), peak power, wear, and request counts. The same
// promise covers the vectorized kernels against the scalar baseline. These
// tests pin that contract for all three engine kinds.
//
// The star-join path is held to the same promise end to end: the dimension
// stage, the semijoin-reduced fact scan and the host join of every SSB text.
//
// The serial runs are also pinned to golden modeled values (hex-float
// literals compared with ==): any change to the cost model or to the order
// in which the engine accumulates it shows up here as an exact diff.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "db/db.hpp"
#include "engine_test_util.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/queries.hpp"

namespace bbpim::engine {
namespace {

using testutil::EngineFixture;

struct Workload {
  std::string sql;
  std::optional<std::size_t> force_k;  ///< planner bypass: no fitted models
};

std::vector<Workload> workloads() {
  return {
      {"SELECT SUM(f_val) FROM t WHERE f_key < 2400", std::nullopt},
      {"SELECT COUNT(*) FROM t WHERE f_gid BETWEEN 1 AND 4 AND d_tag = 2",
       std::nullopt},
      {"SELECT SUM(f_val - f_val2) FROM t WHERE f_key >= 100", std::nullopt},
      {"SELECT f_gid, SUM(f_val) FROM t WHERE f_key < 3000 "
       "GROUP BY f_gid ORDER BY f_gid",
       2},
      {"SELECT f_gid, MIN(f_val) FROM t WHERE d_tag <= 4 "
       "GROUP BY f_gid ORDER BY f_gid",
       3},
      {"SELECT f_gid, SUM(f_val * f_val2) AS rev FROM t WHERE f_key < 2800 "
       "GROUP BY f_gid ORDER BY rev DESC",
       2},
  };
}

/// Byte-exact equality over every QueryStats field. Doubles are compared
/// with ==: the determinism guarantee is bit-identity, not tolerance.
void expect_identical(const QueryOutput& got, const QueryOutput& want,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < got.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].group, want.rows[i].group) << "row " << i;
    EXPECT_EQ(got.rows[i].agg, want.rows[i].agg) << "row " << i;
  }
  const QueryStats& a = got.stats;
  const QueryStats& b = want.stats;
  EXPECT_EQ(a.total_ns, b.total_ns);
  EXPECT_EQ(a.phases.filter, b.phases.filter);
  EXPECT_EQ(a.phases.transfer, b.phases.transfer);
  EXPECT_EQ(a.phases.sample, b.phases.sample);
  EXPECT_EQ(a.phases.plan, b.phases.plan);
  EXPECT_EQ(a.phases.pim_gb, b.phases.pim_gb);
  EXPECT_EQ(a.phases.host_gb, b.phases.host_gb);
  EXPECT_EQ(a.phases.finalize, b.phases.finalize);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.energy_logic_j, b.energy_logic_j);
  EXPECT_EQ(a.energy_read_j, b.energy_read_j);
  EXPECT_EQ(a.energy_write_j, b.energy_write_j);
  EXPECT_EQ(a.energy_controller_j, b.energy_controller_j);
  EXPECT_EQ(a.energy_agg_circuit_j, b.energy_agg_circuit_j);
  EXPECT_EQ(a.peak_chip_w, b.peak_chip_w);
  EXPECT_EQ(a.wear_row_writes, b.wear_row_writes);
  EXPECT_EQ(a.selectivity, b.selectivity);
  EXPECT_EQ(a.selected_records, b.selected_records);
  EXPECT_EQ(a.total_subgroups, b.total_subgroups);
  EXPECT_EQ(a.sampled_subgroups, b.sampled_subgroups);
  EXPECT_EQ(a.pim_subgroups, b.pim_subgroups);
  EXPECT_EQ(a.host_lines, b.host_lines);
  EXPECT_EQ(a.pim_requests, b.pim_requests);
  EXPECT_EQ(a.n_chunks, b.n_chunks);
  EXPECT_EQ(a.s_chunks, b.s_chunks);
  EXPECT_EQ(a.selectivity_estimate, b.selectivity_estimate);
  EXPECT_EQ(a.candidates_complete, b.candidates_complete);
  EXPECT_EQ(a.candidate_masses, b.candidate_masses);
}

/// Golden modeled stats of one serial execution.
struct Golden {
  TimeNs total_ns;
  EnergyJ energy_j;
  /// filter, transfer, sample, plan, pim_gb, host_gb, finalize
  TimeNs phases[7];
  std::uint64_t wear_row_writes;
};

void expect_golden(const QueryStats& s, const Golden& g,
                   const std::string& label) {
  SCOPED_TRACE(label + " (golden)");
  EXPECT_EQ(s.total_ns, g.total_ns);
  EXPECT_EQ(s.energy_j, g.energy_j);
  EXPECT_EQ(s.phases.filter, g.phases[0]);
  EXPECT_EQ(s.phases.transfer, g.phases[1]);
  EXPECT_EQ(s.phases.sample, g.phases[2]);
  EXPECT_EQ(s.phases.plan, g.phases[3]);
  EXPECT_EQ(s.phases.pim_gb, g.phases[4]);
  EXPECT_EQ(s.phases.host_gb, g.phases[5]);
  EXPECT_EQ(s.phases.finalize, g.phases[6]);
  EXPECT_EQ(s.wear_row_writes, g.wear_row_writes);
}

/// workloads() on EngineFixture(kind, 900, 31) at one sim thread.
const std::vector<Golden>& golden(EngineKind kind) {
  static const std::vector<Golden> one_xb = {
      {0x1.2bbap+17, 0x1.1a94c20368656p-25,
       {0x1.8da8p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.90ap+16, 0x0p+0, 0x0p+0},
       46},
      {0x1.2c64p+17, 0x1.2f85baf30921ap-25,
       {0x1.9258p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.8f9cp+16, 0x0p+0, 0x0p+0},
       57},
      {0x1.f4bep+17, 0x1.0ac51766476f2p-24,
       {0x1.9078p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.90ap+17, 0x0p+0, 0x0p+0},
       74},
      {0x1.5ab3ap+19, 0x1.5f52592580384p-23,
       {0x1.90fp+15, 0x0p+0, 0x1.e59p+16, 0x0p+0, 0x1.2c2dp+18, 0x1.58ce8p+17,
        0x1.8a88p+15},
       152},
      {0x1.a308cp+19, 0x1.93cf221daf4acp-23,
       {0x1.89e8p+15, 0x0p+0, 0x1.e868p+16, 0x0p+0, 0x1.c269p+18, 0x1.4e33p+17,
        0x1.89cp+15},
       179},
      {0x1.d9f408p+20, 0x1.09b785d77ac9ep-21,
       {0x1.8f88p+15, 0x0p+0, 0x1.e538p+16, 0x0p+0, 0x1.77e9cp+20,
        0x1.57324p+17, 0x1.8a88p+15},
       396},
  };
  static const std::vector<Golden> two_xb = {
      {0x1.3d67p+18, 0x1.06c79ac9b2c6ap-22,
       {0x1.93e8p+15, 0x1.4d84p+17, 0x0p+0, 0x0p+0, 0x1.90ap+16, 0x0p+0,
        0x0p+0},
       68},
      {0x1.3d17p+18, 0x1.0884db17cfb4p-22,
       {0x1.937p+15, 0x1.4d84p+17, 0x0p+0, 0x0p+0, 0x1.8f9cp+16, 0x0p+0,
        0x0p+0},
       57},
      {0x1.a1e9p+18, 0x1.26264862d795ap-22,
       {0x1.96b8p+15, 0x1.4d84p+17, 0x0p+0, 0x0p+0, 0x1.90ap+17, 0x0p+0,
        0x0p+0},
       96},
      {0x1.ae78ap+19, 0x1.931e2f1c05d61p-22,
       {0x1.973p+15, 0x1.4d84p+17, 0x1.e59p+16, 0x0p+0, 0x1.2c2dp+18,
        0x1.58ce8p+17, 0x1.8a88p+15},
       174},
      {0x1.f6cdcp+19, 0x1.ad5c93981d5f5p-22,
       {0x1.9028p+15, 0x1.4d84p+17, 0x1.e868p+16, 0x0p+0, 0x1.c269p+18,
        0x1.4e33p+17, 0x1.89cp+15},
       191},
      {0x1.01eb44p+21, 0x1.7b72071c1da6ep-21,
       {0x1.95c8p+15, 0x1.4d84p+17, 0x1.e538p+16, 0x0p+0, 0x1.77e9cp+20,
        0x1.57324p+17, 0x1.8a88p+15},
       418},
  };
  static const std::vector<Golden> pimdb = {
      {0x1.0eafp+19, 0x1.7d04690b1b3d2p-21,
       {0x1.8da8p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.eba9p+18, 0x0p+0, 0x0p+0},
       3484},
      {0x1.d9c5p+18, 0x1.0048d1c1c1df3p-22,
       {0x1.9258p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.a77ap+18, 0x0p+0, 0x0p+0},
       1173},
      {0x1.f5928p+19, 0x1.435f4b0393109p-20,
       {0x1.9078p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.dc8bp+19, 0x0p+0, 0x0p+0},
       5918},
      {0x1.162668p+21, 0x1.0893cdcd36bbfp-19,
       {0x1.90fp+15, 0x0p+0, 0x1.e59p+16, 0x0p+0, 0x1.c9fe4p+20, 0x1.58ce8p+17,
        0x1.8a88p+15},
       9260},
      {0x1.73ff5p+21, 0x1.dee92df4b1da9p-20,
       {0x1.89e8p+15, 0x0p+0, 0x1.e868p+16, 0x0p+0, 0x1.438a4p+21, 0x1.4e33p+17,
        0x1.89cp+15},
       8387},
      {0x1.c48d02p+22, 0x1.2eac9dc6495c1p-17,
       {0x1.8f88p+15, 0x0p+0, 0x1.e538p+16, 0x0p+0, 0x1.ac0a7p+22,
        0x1.57324p+17, 0x1.8a88p+15},
       43884},
  };
  switch (kind) {
    case EngineKind::kOneXb:
      return one_xb;
    case EngineKind::kTwoXb:
      return two_xb;
    default:
      return pimdb;
  }
}

void check_kind(EngineKind kind) {
  EngineFixture fx(kind, 900, 31);
  const std::vector<Workload> ws = workloads();
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const Workload& w = ws[i];
    const sql::BoundQuery q = fx.bind_sql(w.sql);

    ExecOptions opts;
    opts.force_k = w.force_k;
    const QueryOutput reference = fx.arm(1).execute(q, opts);
    expect_golden(reference.stats, golden(kind)[i], w.sql);

    for (const std::uint32_t threads : {2u, 8u}) {
      expect_identical(fx.arm(threads).execute(q, opts), reference,
                       w.sql + " @ " + std::to_string(threads) + " threads");
    }

    // The scalar kernel baseline (also serial) must be indistinguishable.
    ExecOptions scalar = opts;
    scalar.sim_scalar = true;
    expect_identical(fx.arm(1).execute(q, scalar), reference,
                     w.sql + " @ scalar kernels");

    // And scalar kernels under parallelism, for completeness.
    expect_identical(fx.arm(8).execute(q, scalar), reference,
                     w.sql + " @ scalar kernels, 8 threads");
  }
}

TEST(SimDeterminism, OneXb) { check_kind(EngineKind::kOneXb); }
TEST(SimDeterminism, TwoXb) { check_kind(EngineKind::kTwoXb); }
TEST(SimDeterminism, Pimdb) { check_kind(EngineKind::kPimdb); }

/// Zone-map pruning on a two-xb store: part 0's predicate is provably
/// always-true on every page, so its gate program is replaced by a
/// synthesized validity copy.
TEST(SimDeterminism, GoldenPrunedTwoXb) {
  EngineFixture fx(EngineKind::kTwoXb, 900, 31);
  ExecOptions opts;
  opts.force_k = 2;
  const QueryOutput out = fx.arm(1, /*prune=*/true).execute(
      fx.bind_sql("SELECT f_gid, SUM(f_val) FROM t WHERE f_key < 4096 AND "
                  "d_tag <= 4 GROUP BY f_gid ORDER BY f_gid"),
      opts);
  EXPECT_EQ(out.stats.pages_synthesized, 4u);
  expect_golden(out.stats,
                {0x1.ae9a2p+19, 0x1.8e22373a2004p-22,
                 {0x1.89e8p+15, 0x1.4d84p+17, 0x1.e868p+16, 0x0p+0,
                  0x1.2c2dp+18, 0x1.5b6c8p+17, 0x1.89cp+15},
                 130},
                "pruned two-xb");
}

/// Subgroup keys in part 1 of a two-xb store: every pim-gb subgroup runs
/// the part-1 match program and transfers its bits to part 0. The first key
/// lies entirely in part 1, the second spans both parts. Pruning is pinned
/// on and off; at k = 6 it skips pages of the spanning key's rare subgroups.
TEST(SimDeterminism, GoldenPartOneGroupKeyTwoXb) {
  struct Case {
    std::string sql;
    std::size_t k;
    bool prune;
    Golden golden;
  };
  const std::string by_tag =
      "SELECT d_tag, SUM(f_val) FROM t WHERE f_key < 3000 "
      "GROUP BY d_tag ORDER BY d_tag";
  const std::string by_gid_tag =
      "SELECT f_gid, d_tag, SUM(f_val) FROM t WHERE d_tag <= 4 "
      "GROUP BY f_gid, d_tag ORDER BY f_gid";
  const std::vector<Case> cases = {
      {by_tag, 3, false,
       {0x1.78103p+20, 0x1.15b018f33625bp-20,
        {0x1.973p+15, 0x1.4d84p+17, 0x1.e59p+16, 0x0p+0, 0x1.db14p+19,
         0x1.4bc28p+17, 0x1.895cp+15},
        237}},
      {by_tag, 3, true,
       {0x1.4e2dbp+20, 0x1.b9a5b0a1c96e7p-21,
        {0x1.90fp+15, 0x0p+0, 0x1.e59p+16, 0x0p+0, 0x1.db14p+19,
         0x1.4bc28p+17, 0x1.895cp+15},
        215}},
      {by_tag, 6, false,
       {0x1.31dcbp+21, 0x1.d8d77d8c2c20cp-20,
        {0x1.973p+15, 0x1.4d84p+17, 0x1.e59p+16, 0x0p+0, 0x1.db1f4p+20,
         0x1.3c62p+17, 0x1.895cp+15},
        408}},
      {by_tag, 6, true,
       {0x1.1ceb7p+21, 0x1.9ffa3ce9dab24p-20,
        {0x1.90fp+15, 0x0p+0, 0x1.e59p+16, 0x0p+0, 0x1.db1f4p+20,
         0x1.3c62p+17, 0x1.895cp+15},
        386}},
      {by_gid_tag, 3, false,
       {0x1.7d2c2p+20, 0x1.19ac372e7fc85p-20,
        {0x1.9028p+15, 0x1.4d84p+17, 0x1.0d34p+17, 0x0p+0, 0x1.dbf5p+19,
         0x1.585bp+17, 0x1.89cp+15},
        257}},
      {by_gid_tag, 3, true,
       {0x1.7cfa2p+20, 0x1.1973ff7a89fdcp-20,
        {0x1.89e8p+15, 0x1.4d84p+17, 0x1.0d34p+17, 0x0p+0, 0x1.dbf5p+19,
         0x1.585bp+17, 0x1.89cp+15},
        253}},
      {by_gid_tag, 6, false,
       {0x1.33d04cp+21, 0x1.deed0af241d49p-20,
        {0x1.9028p+15, 0x1.4d84p+17, 0x1.0d34p+17, 0x0p+0, 0x1.dc07cp+20,
         0x1.3b94cp+17, 0x1.89cp+15},
        490}},
      {by_gid_tag, 6, true,
       {0x1.33b24cp+21, 0x1.bd484d3965b34p-20,
        {0x1.89e8p+15, 0x1.4d84p+17, 0x1.0d34p+17, 0x0p+0, 0x1.dbfdcp+20,
         0x1.3b94cp+17, 0x1.89cp+15},
        486}},
  };
  EngineFixture fx(EngineKind::kTwoXb, 900, 31);
  for (const Case& c : cases) {
    const std::string label = c.sql + " k=" + std::to_string(c.k) +
                              (c.prune ? " pruned" : " unpruned");
    const sql::BoundQuery q = fx.bind_sql(c.sql);
    ExecOptions opts;
    opts.force_k = c.k;
    const QueryOutput out = fx.arm(1, c.prune).execute(q, opts);
    EXPECT_EQ(out.stats.pim_subgroups, c.k) << label;
    expect_golden(out.stats, c.golden, label);
    if (c.prune) {
      const QueryOutput want = fx.arm(1).execute(q, opts);
      ASSERT_EQ(out.rows.size(), want.rows.size()) << label;
      for (std::size_t i = 0; i < out.rows.size(); ++i) {
        EXPECT_EQ(out.rows[i].group, want.rows[i].group) << label;
        EXPECT_EQ(out.rows[i].agg, want.rows[i].agg) << label;
      }
    }
  }
}

/// The join feeder: a filter-only scan reading back two attributes.
TEST(SimDeterminism, GoldenScan) {
  EngineFixture fx(EngineKind::kOneXb, 900, 31);
  const sql::BoundQuery q = fx.bind_sql(
      "SELECT COUNT(*) FROM t WHERE f_key < 2400 AND f_gid BETWEEN 1 AND 4");
  const ScanOutput out = fx.arm(1).execute_scan(q.filters, {1, 2}, {});
  EXPECT_EQ(out.row_ids.size(), 258u);
  expect_golden(out.stats,
                {0x1.62d98p+17, 0x1.6d6df422b5ebap-24,
                 {0x1.9438p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.fb97p+16,
                  0x0p+0},
                 58},
                "scan");
}

/// Golden modeled stats of one star join: the single-table fields plus the
/// dimension stage's time and the fact scan's survivors.
struct JoinGolden {
  Golden cost;
  TimeNs dims_ns;
  std::size_t selected_records;
};

/// The 13 SSB texts in ssb::queries() order on the normalized catalog at
/// SF 0.01, one-xb, one sim thread.
const std::vector<JoinGolden>& join_golden() {
  static const std::vector<JoinGolden> goldens = {
      {{0x1.21f7bp+20, 0x1.3c25e10a25ed2p-18,
        {0x1.9d5cp+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.081edp+20,
         0x1.9p+5},
        132},
       0x1.7cd66p+18, 1086},
      {{0x1.49864p+19, 0x1.94c72fe24e998p-19,
        {0x1.a338p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.1519p+19,
         0x1.9p+5},
        150},
       0x1.3b662p+18, 57},
      {{0x1.3a45ap+19, 0x1.84aa117f50e66p-19,
        {0x1.a374p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.05d0ep+19,
         0x1.9p+5},
        144},
       0x1.36dd2p+18, 10},
      {{0x1.b0921p+20, 0x1.dc0020a82d3b4p-18,
        {0x1.96ccp+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.9521bp+20,
         0x1.01dp+13},
        112},
       0x1.ca371p+19, 895},
      {{0x1.3f4acp+20, 0x1.6e0096e08143bp-18,
        {0x1.9e4cp+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.2517ep+20,
         0x1.388p+10},
        120},
       0x1.cad6cp+19, 59},
      {{0x1.37112p+20, 0x1.5f6ef5db728d7p-18,
        {0x1.9b04p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.1d4e2p+20,
         0x1.2cp+8},
        116},
       0x1.ca794p+19, 13},
      {{0x1.f51ebp+20, 0x1.1f23cb20d9e18p-17,
        {0x1.a248p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.d9289p+20,
         0x1.d1ap+12},
        142},
       0x1.ca791p+19, 1728},
      {{0x1.43223p+20, 0x1.8519ee7ae0371p-18,
        {0x1.a2cp+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.285d1p+20,
         0x1.324p+11},
        146},
       0x1.ca617p+19, 87},
      {{0x1.ce1d6p+19, 0x1.048f98321775ep-18,
        {0x1.9ca8p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.b452ep+19,
         0x0p+0},
        94},
       0x1.ca5dfp+19, 0},
      {{0x1.47848p+18, 0x1.48d61ba529736p-19,
        {0x1.9bb8p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.140d8p+18,
         0x0p+0},
        90},
       0x1.4766cp+18, 0},
      {{0x1.06391p+21, 0x1.4b453bca324c2p-17,
        {0x1.9ffp+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.f205cp+20,
         0x1.b58p+10},
        180},
       0x1.cbe11p+19, 1554},
      {{0x1.7d0428p+20, 0x1.3191105737d34p-17,
        {0x1.b6e8p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.607628p+20,
         0x1.1f8p+12},
        282},
       0x1.b2fe2p+19, 443},
      {{0x1.150038p+20, 0x1.bfb03ad56bd74p-18,
        {0x1.afa4p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.f3183p+19,
         0x1.e78p+10},
        220},
       0x1.72ef4p+19, 57},
  };
  return goldens;
}

/// Star joins: all 13 SSB texts on the normalized catalog through the
/// facade, at 1 and 4 simulation threads. Rows, cost and plan stats are
/// bit-identical, and so are the pinned table versions. The serial runs
/// match their goldens.
TEST(SimDeterminism, StarJoinsMatchAcrossThreadCounts) {
  ssb::SsbConfig cfg;
  cfg.scale_factor = 0.01;
  const ssb::SsbData data = ssb::generate(cfg);
  db::Database normalized;
  for (const rel::Table* t : {&data.lineorder, &data.date, &data.customer,
                              &data.supplier, &data.part}) {
    normalized.attach_table(*t);
  }
  db::SessionOptions one;
  one.host.sim_threads = 1;
  db::SessionOptions four;
  four.host.sim_threads = 4;
  db::Session serial(normalized, one);
  db::Session parallel(normalized, four);
  ASSERT_EQ(join_golden().size(), ssb::queries().size());
  for (std::size_t i = 0; i < ssb::queries().size(); ++i) {
    const ssb::SsbQuery& q = ssb::queries()[i];
    SCOPED_TRACE(std::string("q") + std::string(q.id));
    const db::ResultSet a = serial.execute(q.sql, db::BackendKind::kOneXb);
    expect_golden(a.stats(), join_golden()[i].cost, "serial");
    EXPECT_EQ(a.stats().dims_ns, join_golden()[i].dims_ns);
    EXPECT_EQ(a.stats().selected_records, join_golden()[i].selected_records);
    const db::ResultSet b = parallel.execute(q.sql, db::BackendKind::kOneXb);
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_TRUE(stats_equal(a.stats(), b.stats(),
                            {StatClass::kCost, StatClass::kPlan}));
    EXPECT_GT(a.stats().dims_ns, 0.0);
    EXPECT_EQ(a.table_versions(), b.table_versions());
  }
}

/// Two stores built alike, one serial engine and one at 8 threads.
TEST(SimDeterminism, HostConfigDefaultMatchesExplicit) {
  testutil::EngineFixture serial_fx(EngineKind::kOneXb, 600, 7);
  serial_fx.hcfg.sim_threads = 1;
  engine::PimQueryEngine serial_engine(EngineKind::kOneXb, *serial_fx.store,
                                       serial_fx.hcfg);

  testutil::EngineFixture parallel_fx(EngineKind::kOneXb, 600, 7);
  parallel_fx.hcfg.sim_threads = 8;
  engine::PimQueryEngine parallel_engine(EngineKind::kOneXb, *parallel_fx.store,
                                         parallel_fx.hcfg);

  const std::string sql =
      "SELECT f_gid, SUM(f_val) FROM t WHERE f_key < 2000 "
      "GROUP BY f_gid ORDER BY f_gid";
  ExecOptions opts;
  opts.force_k = 2;
  const sql::BoundQuery qa = serial_fx.bind_sql(sql);
  const sql::BoundQuery qb = parallel_fx.bind_sql(sql);
  expect_identical(parallel_engine.execute(qb, opts),
                   serial_engine.execute(qa, opts),
                   "HostConfig::sim_threads 8 vs 1");
}

}  // namespace
}  // namespace bbpim::engine
