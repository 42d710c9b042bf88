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
      {0x1.2ec6p+17, 0x1.75ef4672d182ap-25,
       {0x1.99d8p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.90ap+16, 0x0p+0, 0x0p+0},
       98},
      {0x1.2e8p+17, 0x1.6ec465678cfacp-25,
       {0x1.9ac8p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.8f9cp+16, 0x0p+0, 0x0p+0},
       93},
      {0x1.f6f8p+17, 0x1.2c262a4037bp-24,
       {0x1.996p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.90ap+17, 0x0p+0, 0x0p+0},
       112},
      {0x1.5bb2ap+19, 0x1.7d2ff0c013d0ap-23,
       {0x1.a0ep+15, 0x0p+0, 0x1.e59p+16, 0x0p+0, 0x1.2c2dp+18, 0x1.58ce8p+17,
        0x1.8a88p+15},
       220},
      {0x1.a335cp+19, 0x1.99145afcba479p-23,
       {0x1.8cb8p+15, 0x0p+0, 0x1.e868p+16, 0x0p+0, 0x1.c269p+18, 0x1.4e33p+17,
        0x1.89cp+15},
       191},
      {0x1.da6c08p+20, 0x1.10be7c56341afp-21,
       {0x1.9e88p+15, 0x0p+0, 0x1.e538p+16, 0x0p+0, 0x1.77e9cp+20,
        0x1.57324p+17, 0x1.8a88p+15},
       460},
  };
  static const std::vector<Golden> two_xb = {
      {0x1.3eedp+18, 0x1.1232eb579fea4p-22,
       {0x1.a018p+15, 0x1.4d84p+17, 0x0p+0, 0x0p+0, 0x1.90ap+16, 0x0p+0,
        0x0p+0},
       120},
      {0x1.3e25p+18, 0x1.106cb066602f2p-22,
       {0x1.9bep+15, 0x1.4d84p+17, 0x0p+0, 0x0p+0, 0x1.8f9cp+16, 0x0p+0,
        0x0p+0},
       93},
      {0x1.a306p+18, 0x1.2e7e8d1953a5ep-22,
       {0x1.9fap+15, 0x1.4d84p+17, 0x0p+0, 0x0p+0, 0x1.90ap+17, 0x0p+0,
        0x0p+0},
       134},
      {0x1.af77ap+19, 0x1.a20cfae94fa24p-22,
       {0x1.a72p+15, 0x1.4d84p+17, 0x1.e59p+16, 0x0p+0, 0x1.2c2dp+18,
        0x1.58ce8p+17, 0x1.8a88p+15},
       242},
      {0x1.f6facp+19, 0x1.afff3007a2ddbp-22,
       {0x1.92f8p+15, 0x1.4d84p+17, 0x1.e868p+16, 0x0p+0, 0x1.c269p+18,
        0x1.4e33p+17, 0x1.89cp+15},
       191},
      {0x1.022744p+21, 0x1.8278fd9ad6f7ep-21,
       {0x1.a4c8p+15, 0x1.4d84p+17, 0x1.e538p+16, 0x0p+0, 0x1.77e9cp+20,
        0x1.57324p+17, 0x1.8a88p+15},
       482},
  };
  static const std::vector<Golden> pimdb = {
      {0x1.0f72p+19, 0x1.82ba115211cefp-21,
       {0x1.99d8p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.eba9p+18, 0x0p+0, 0x0p+0},
       3536},
      {0x1.dad3p+18, 0x1.0830a710525a5p-22,
       {0x1.9ac8p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.a77ap+18, 0x0p+0, 0x0p+0},
       1209},
      {0x1.f621p+19, 0x1.45755c313214ap-20,
       {0x1.996p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.dc8bp+19, 0x0p+0, 0x0p+0},
       5956},
      {0x1.166628p+21, 0x1.0a71a746dff58p-19,
       {0x1.a0ep+15, 0x0p+0, 0x1.e59p+16, 0x0p+0, 0x1.c9fe4p+20, 0x1.58ce8p+17,
        0x1.8a88p+15},
       9328},
      {0x1.740a9p+21, 0x1.df91d510933a2p-20,
       {0x1.8cb8p+15, 0x0p+0, 0x1.e868p+16, 0x0p+0, 0x1.438a4p+21, 0x1.4e33p+17,
        0x1.89cp+15},
       8399},
      {0x1.c4ab02p+22, 0x1.2f1d0d2e34f12p-17,
       {0x1.9e88p+15, 0x0p+0, 0x1.e538p+16, 0x0p+0, 0x1.ac0a7p+22,
        0x1.57324p+17, 0x1.8a88p+15},
       43948},
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
                {0x1.aec72p+19, 0x1.90c4d3a9a5827p-22,
                 {0x1.8cb8p+15, 0x1.4d84p+17, 0x1.e868p+16, 0x0p+0,
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
       {0x1.788fbp+20, 0x1.196bcbe68898bp-20,
        {0x1.a72p+15, 0x1.4d84p+17, 0x1.e59p+16, 0x0p+0, 0x1.db14p+19,
         0x1.4bc28p+17, 0x1.895cp+15},
        305}},
      {by_tag, 3, true,
       {0x1.4ead3p+20, 0x1.c11d16886e548p-21,
        {0x1.a0ep+15, 0x0p+0, 0x1.e59p+16, 0x0p+0, 0x1.db14p+19,
         0x1.4bc28p+17, 0x1.895cp+15},
        283}},
      {by_tag, 6, false,
       {0x1.321c7p+21, 0x1.dc93307f7e93ep-20,
        {0x1.a72p+15, 0x1.4d84p+17, 0x1.e59p+16, 0x0p+0, 0x1.db1f4p+20,
         0x1.3c62p+17, 0x1.895cp+15},
        476}},
      {by_tag, 6, true,
       {0x1.1d2b3p+21, 0x1.a3b5efdd2d255p-20,
        {0x1.a0ep+15, 0x0p+0, 0x1.e59p+16, 0x0p+0, 0x1.db1f4p+20,
         0x1.3c62p+17, 0x1.895cp+15},
        454}},
      {by_gid_tag, 3, false,
       {0x1.7d42ap+20, 0x1.1a54de4a6127ep-20,
        {0x1.92f8p+15, 0x1.4d84p+17, 0x1.0d34p+17, 0x0p+0, 0x1.dbf5p+19,
         0x1.585bp+17, 0x1.89cp+15},
        257}},
      {by_gid_tag, 3, true,
       {0x1.7d10ap+20, 0x1.1a1ca6966b5d5p-20,
        {0x1.8cb8p+15, 0x1.4d84p+17, 0x1.0d34p+17, 0x0p+0, 0x1.dbf5p+19,
         0x1.585bp+17, 0x1.89cp+15},
        253}},
      {by_gid_tag, 6, false,
       {0x1.33db8cp+21, 0x1.df95b20e23343p-20,
        {0x1.92f8p+15, 0x1.4d84p+17, 0x1.0d34p+17, 0x0p+0, 0x1.dc07cp+20,
         0x1.3b94cp+17, 0x1.89cp+15},
        490}},
      {by_gid_tag, 6, true,
       {0x1.33bd8cp+21, 0x1.bdf0f4554712dp-20,
        {0x1.8cb8p+15, 0x1.4d84p+17, 0x1.0d34p+17, 0x0p+0, 0x1.dbfdcp+20,
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
                {0x1.68018p+17, 0x1.baba8b94ac66ep-24,
                 {0x1.a8d8p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.fb97p+16,
                  0x0p+0},
                 146},
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
      {{0x1.23637p+20, 0x1.828ee5fe66a35p-18,
        {0x1.b418p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.081edp+20,
         0x1.9p+5},
        326},
       0x1.7cd66p+18, 1086},
      {{0x1.4d20cp+19, 0x1.23ac0fb5643e6p-18,
        {0x1.c00cp+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.1519p+19,
         0x1.9p+5},
        396},
       0x1.3b662p+18, 57},
      {{0x1.3d6fap+19, 0x1.10ba20bd22a5p-18,
        {0x1.bcc4p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.05d0ep+19,
         0x1.9p+5},
        360},
       0x1.36dd2p+18, 10},
      {{0x1.b1a79p+20, 0x1.08db962d4c54ap-17,
        {0x1.a824p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.9521bp+20,
         0x1.01dp+13},
        260},
       0x1.ca371p+19, 895},
      {{0x1.417d4p+20, 0x1.c8bcb50382d76p-18,
        {0x1.c174p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.2517ep+20,
         0x1.388p+10},
        320},
       0x1.cc4dcp+19, 59},
      {{0x1.385eep+20, 0x1.a0096154a0bb4p-18,
        {0x1.afep+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.1d4e2p+20,
         0x1.2cp+8},
        294},
       0x1.ca794p+19, 13},
      {{0x1.f785bp+20, 0x1.4f6926efe3efap-17,
        {0x1.c8b8p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.d9289p+20,
         0x1.d1ap+12},
        346},
       0x1.cc4a1p+19, 1728},
      {{0x1.455c3p+20, 0x1.dceebfe058868p-18,
        {0x1.c66p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.285d1p+20,
         0x1.324p+11},
        326},
       0x1.cc327p+19, 87},
      {{0x1.cfee6p+19, 0x1.1b102aeeff469p-18,
        {0x1.b9b8p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.b452ep+19,
         0x0p+0},
        218},
       0x1.cc2efp+19, 0},
      {{0x1.47848p+18, 0x1.48d61ba529736p-19,
        {0x1.9bb8p+15, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.140d8p+18,
         0x0p+0},
        90},
       0x1.4766cp+18, 0},
      {{0x1.070b1p+21, 0x1.73eb6e27b4072p-17,
        {0x1.ba3p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.f205cp+20,
         0x1.b58p+10},
        404},
       0x1.cbe11p+19, 1554},
      {{0x1.7f9be8p+20, 0x1.71ce9238b4d88p-17,
        {0x1.e064p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.607628p+20,
         0x1.1f8p+12},
        636},
       0x1.b2fe2p+19, 443},
      {{0x1.173678p+20, 0x1.16a5e5e434d32p-17,
        {0x1.d308p+16, 0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, 0x1.f3183p+19,
         0x1.e78p+10},
        522},
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
