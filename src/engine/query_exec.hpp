// The PIM OLAP query executor — the paper's system in one class.
//
// Executes a bound SELECT against a PIM-resident pre-joined relation in the
// paper's phase structure:
//
//   1. filter      — WHERE conjunction as bulk-bitwise programs on every
//                    page (both parts for two-xb, then a host transfer
//                    combines part results);
//   2. sample      — read one 2 MB page's filter bits + group attributes,
//                    estimate subgroup sizes (Section IV);
//   3. plan        — Equation 3 picks k, the number of subgroups for pim-gb;
//   4. pim-gb      — per subgroup: equality match AND filter result, then
//                    aggregation (circuit for one-xb/two-xb, bit-serial
//                    bulk-bitwise for the PIMDB baseline), host reads one
//                    result line set per page;
//   5. host-gb     — read the residual filter bit-vector and s chunks of
//                    each remaining record (unique-line accounting captures
//                    the 32x read amplification), hash-aggregate on CPU;
//   6. finalize    — merge, ORDER BY.
//
// SUM over a product decomposes into per-multiplier-bit masked aggregation
// passes (SUM(a*b) = sum_i 2^i * SUM(a | b_i AND R)); SUM over +- decomposes
// by linearity. Every phase advances a simulated clock and accounts energy,
// peak power, and cell wear; all results are exact and are checked against a
// scalar reference executor in the tests.
//
// A shared-scan batch runs phase 1 of several statements as one fused pass
// over the store's pages. Each member is a BatchMember: its bound query and
// its own ExecOptions, whose cancel token only that member checks.
#pragma once

#include <cstdint>
#include <exception>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "engine/cancel.hpp"
#include "engine/group_index.hpp"
#include "engine/groupby.hpp"
#include "engine/latency_model.hpp"
#include "engine/pim_store.hpp"
#include "host/config.hpp"
#include "pim/agg_circuit.hpp"
#include "pim/config.hpp"
#include "pim/controller.hpp"
#include "pim/trackers.hpp"
#include "sql/logical_plan.hpp"

namespace bbpim::engine {

struct QueryPhaseBreakdown {
  TimeNs filter = 0;    ///< bulk-bitwise WHERE evaluation (+ arithmetic)
  TimeNs transfer = 0;  ///< two-xb inter-part bit-column transfers
  TimeNs sample = 0;    ///< GROUP-BY sampling reads
  TimeNs plan = 0;      ///< model evaluation / k selection
  TimeNs pim_gb = 0;    ///< per-subgroup PIM aggregation
  TimeNs host_gb = 0;   ///< residual host aggregation (incl. bit-vector read)
  TimeNs finalize = 0;  ///< merge + sort

  TimeNs total() const {
    return filter + transfer + sample + plan + pim_gb + host_gb + finalize;
  }
};

struct QueryStats {
  TimeNs total_ns = 0;
  QueryPhaseBreakdown phases;

  EnergyJ energy_j = 0;          ///< PIM module energy (Fig. 7)
  EnergyJ energy_logic_j = 0;
  EnergyJ energy_read_j = 0;
  EnergyJ energy_write_j = 0;
  EnergyJ energy_controller_j = 0;
  EnergyJ energy_agg_circuit_j = 0;
  PowerW peak_chip_w = 0;        ///< peak power of one PIM chip (Fig. 8)
  std::uint64_t wear_row_writes = 0;  ///< worst per-row writes (Fig. 9 input)

  double selectivity = 0;
  std::size_t selected_records = 0;
  std::size_t total_subgroups = 0;    ///< kmax (Table II "total subgroups")
  std::size_t sampled_subgroups = 0;  ///< Table II "subgroups in sample"
  std::size_t pim_subgroups = 0;      ///< chosen k (Table II "PIM agg")
  std::size_t host_lines = 0;         ///< unique record lines read by host-gb
  std::size_t pim_requests = 0;
  /// Star joins: the modeled time of the dimension stage, a share of
  /// total_ns (0 for single-table queries).
  TimeNs dims_ns = 0;

  // Planner inputs (exported so benches can re-evaluate Equation 3 at other
  // relation sizes, e.g. the paper's M = 1831 pages at SF = 10).
  std::uint32_t n_chunks = 1;
  std::uint32_t s_chunks = 2;
  double selectivity_estimate = 0;
  bool candidates_complete = false;
  /// Estimated subgroup masses, descending (sampled groups then zeros).
  std::vector<double> candidate_masses;

  // --- zone-map pruning effectiveness (all zero with pruning off) ----------
  /// Filter-phase pages skipped outright (no gate program, no readback).
  std::size_t pages_skipped = 0;
  /// (part, page) filter programs replaced by a synthesized validity copy.
  std::size_t pages_synthesized = 0;
  /// Valid crossbars inside the skipped pages.
  std::size_t crossbars_skipped = 0;
  /// (predicate, page) evaluations resolved statically by the sketches.
  std::size_t predicates_short_circuited = 0;
  /// (subgroup, page) pim-gb aggregations skipped because the sketches
  /// refute the subgroup key on every crossbar of the page.
  std::size_t group_pages_skipped = 0;

  // --- compiled-filter cache traffic of this execution ---------------------
  std::size_t filter_cache_hits = 0;
  std::size_t filter_cache_misses = 0;

  // --- shared-scan batching (all zero for solo executions) -----------------
  /// Statements this execution answered (incl. itself): the whole group
  /// when its pass was fused, else its interned duplicates. Set only by
  /// db::Session::execute_batch.
  std::size_t batched_queries = 0;
  /// Page visits of this query's filter pass that also served at least one
  /// other batch member (the shared-scan savings, per query).
  std::size_t fused_page_passes = 0;
  /// Pages whose zone-map classification was reused from the classification
  /// memo instead of recomputed (batch members sharing a WHERE, or repeated
  /// executions against the same store version).
  std::size_t classification_memo_hits = 0;

  // --- shared-scan robustness ---------------------------------------------
  /// 1 when this result came from the shared-scan member-failure fallback:
  /// the fused pass aborted and this member was re-executed solo.
  std::size_t batch_fallbacks = 0;

  /// Records the filter's survivors: their count and fraction of `rows`.
  void set_selected(std::size_t selected, std::size_t rows);

  /// Adds one part of a star join into the join's stats, every field by its
  /// BBPIM_QUERY_STATS_FIELDS rule: a dimension scan into the dimension
  /// stage (price_concurrent_scans), or one of the join's stages — the
  /// dimension stage, the fact scan, the host build / probe / finalize
  /// term — into the join. `fact` marks the fact table's scan.
  void merge(const QueryStats& part, bool fact);
};

/// How QueryStats::merge folds the parts of a star join into one.
enum class StatMerge {
  kSum,   ///< adds up: every scan's energy, work and traffic, and the time
          ///< of the join's stages, which run one after another (inside
          ///< the dimension stage, price_concurrent_scans replaces the
          ///< scans' summed time by their shared schedule)
  kMax,   ///< each scan is its own device epoch: the worst scan's peak
          ///< power and worst-row wear (the dimension stage's peak power
          ///< comes from its shared schedule)
  kFact,  ///< the join's result semantics: the fact scan's value
  kNone,  ///< no join meaning (group-by planner, batching): left as is
};

/// What a QueryStats field measures.
enum class StatClass {
  kCost,     ///< modeled time, energy, power, wear and traffic
  kPlan,     ///< result semantics and planner inputs
  kCounter,  ///< pruning, filter-cache, batching and serving counters
};

// Every QueryStats field, once: X(member, StatMerge rule, StatClass).
// tests/test_query_stats.cpp counts the struct's members at compile time,
// so a field added without a row here breaks the build.
#define BBPIM_QUERY_STATS_FIELDS(X)              \
  X(total_ns, kSum, kCost)                       \
  X(phases.filter, kSum, kCost)                  \
  X(phases.transfer, kSum, kCost)                \
  X(phases.sample, kSum, kCost)                  \
  X(phases.plan, kSum, kCost)                    \
  X(phases.pim_gb, kSum, kCost)                  \
  X(phases.host_gb, kSum, kCost)                 \
  X(phases.finalize, kSum, kCost)                \
  X(energy_j, kSum, kCost)                       \
  X(energy_logic_j, kSum, kCost)                 \
  X(energy_read_j, kSum, kCost)                  \
  X(energy_write_j, kSum, kCost)                 \
  X(energy_controller_j, kSum, kCost)            \
  X(energy_agg_circuit_j, kSum, kCost)           \
  X(peak_chip_w, kMax, kCost)                    \
  X(wear_row_writes, kMax, kCost)                \
  X(selectivity, kFact, kPlan)                   \
  X(selected_records, kFact, kPlan)              \
  X(total_subgroups, kNone, kPlan)               \
  X(sampled_subgroups, kNone, kPlan)             \
  X(pim_subgroups, kNone, kPlan)                 \
  X(host_lines, kSum, kCost)                     \
  X(pim_requests, kSum, kCost)                   \
  X(dims_ns, kSum, kCost)                        \
  X(n_chunks, kNone, kPlan)                      \
  X(s_chunks, kNone, kPlan)                      \
  X(selectivity_estimate, kNone, kPlan)          \
  X(candidates_complete, kNone, kPlan)           \
  X(candidate_masses, kNone, kPlan)              \
  X(pages_skipped, kSum, kCounter)               \
  X(pages_synthesized, kSum, kCounter)           \
  X(crossbars_skipped, kSum, kCounter)           \
  X(predicates_short_circuited, kSum, kCounter)  \
  X(group_pages_skipped, kSum, kCounter)         \
  X(filter_cache_hits, kSum, kCounter)           \
  X(filter_cache_misses, kSum, kCounter)         \
  X(batched_queries, kNone, kCounter)            \
  X(fused_page_passes, kNone, kCounter)          \
  X(classification_memo_hits, kSum, kCounter)    \
  X(batch_fallbacks, kNone, kCounter)

/// Bit-exact equality (doubles compare with ==) over every field whose
/// class is in `classes`.
bool stats_equal(const QueryStats& a, const QueryStats& b,
                 std::initializer_list<StatClass> classes);

/// The finalize step of the engine and of the host hash join: sorts result
/// rows by `order_by`, ties broken by the group key, so the order is total
/// and deterministic, and returns its modeled host time, 50 ns per row.
TimeNs finalize_rows(std::vector<ResultRow>& rows,
                     const std::vector<sql::BoundOrderItem>& order_by);

/// One aggregation pass (product/linearity decomposition; see the top of
/// this file).
struct AggPass {
  bool use_select_as_value = false;  ///< value = the select bit column
  pim::Field value{};                ///< on part 0
  std::int64_t scale = 1;            ///< host-side multiplier for pass total
  /// AND this attribute bit column into the select (mul decomposition).
  std::optional<std::uint16_t> mask_attr_col;
  pim::AggOp op = pim::AggOp::kSum;
  bool carries_count = false;        ///< circuit also reports the row count
};

/// The aggregation passes of a query on a store, as pim-gb runs them and
/// EXPLAIN prints them.
struct AggPlan {
  std::vector<AggPass> passes;
  std::uint32_t value_bits = 1;  ///< widest aggregated value
  std::uint32_t n_chunks = 1;    ///< model parameter n
  std::uint32_t s_chunks = 2;    ///< model parameter s
};

/// Plans the aggregation passes of `q` on `store`. Throws
/// std::runtime_error for an aggregate the engine refuses: an aggregated
/// attribute outside part 0, MIN/MAX over an expression, or a product with
/// no operand of <= 12 bits.
AggPlan plan_agg_passes(const sql::BoundQuery& q, const PimStore& store);

struct QueryOutput {
  std::vector<ResultRow> rows;
  QueryStats stats;
  /// The store version the execution read (PimStore::data_version; a
  /// snapshot view's pinned version). 0 for the host baselines.
  std::uint64_t data_version = 0;
};

/// One barrier-delimited phase of a filter-only scan as the host model
/// schedules it, logged so that several scans can be scheduled as one
/// stage (price_concurrent_scans). A PIM scan logs, in order: the filter
/// programs (slot `filter`); on two-xb, the transfer's result-bit read,
/// column write and AND (slot `transfer`); the result-bit read and the
/// survivor walk (slot `host_gb`). Any of them may be missing — no gate
/// program to run, or pages pruned away — and the rest keep their order.
struct ScanPhase {
  /// The QueryPhaseBreakdown field the phase's time lands in.
  TimeNs QueryPhaseBreakdown::*slot = nullptr;
  /// A request phase: one trace per page, issued as schedule_requests does.
  std::vector<pim::RequestTrace> traces;
  std::uint32_t window = 0;
  TimeNs issue_gap_ns = 0;
  /// The survivor walk instead: unique host lines per page, records walked.
  bool walk = false;
  std::vector<std::uint32_t> page_lines;
  std::size_t processed = 0;
};

/// Survivors of a filter-only scan (the feeder of the host hash join):
/// global record ids plus the requested attribute codes, aligned so that
/// columns[i][k] is attribute attrs[i] of record row_ids[k]. Rows appear in
/// page order — deterministic at any sim thread count. The PIM engine sizes
/// every vector once from per-page survivor counts and each page job writes
/// its rows in place at its page's offset.
struct ScanOutput {
  std::vector<std::uint64_t> row_ids;
  std::vector<std::vector<std::uint64_t>> columns;
  QueryStats stats;
  /// The phases behind stats' modeled time (empty for the host baselines).
  std::vector<ScanPhase> phases;
  /// The store version the scan read, as QueryOutput::data_version.
  std::uint64_t data_version = 0;
};

/// Prices scans over disjoint pages as one concurrent stage: a star join's
/// dimension scans, which the simulator runs one after another. The host
/// model of Section V-A applies to the union of the scans' pages: each
/// phase any scan runs is scheduled once, over the union of the scans'
/// requests or walk lines, with the host's `threads` workers owning whole
/// pages of that union, and ends in one phase_overhead_ns barrier. The
/// stage's total_ns, phases and peak_chip_w come from that schedule; every
/// other field merges by its BBPIM_QUERY_STATS_FIELDS rule, so energy,
/// wear, host lines and requests are the scans' own. One scan prices
/// exactly as it ran alone.
QueryStats price_concurrent_scans(std::span<const ScanOutput> scans,
                                  const host::HostConfig& hcfg,
                                  const pim::PimConfig& pim);

struct ExecOptions {
  /// Bypass the planner and aggregate exactly this many subgroups with PIM
  /// (clamped to the candidate count). Used by the model fitter and the
  /// ablation benches.
  std::optional<std::size_t> force_k;
  /// Skip the host-gb phase (measurement of pure pim-gb cost).
  bool skip_host_gb = false;
  /// Run the scalar (pre-vectorization) simulation kernels and bypass the
  /// compiled-filter cache: the oracle of the kernel-equivalence tests
  /// (test_db_parity, test_sim_determinism). Same results, slower.
  bool sim_scalar = false;

  /// Cooperative cancellation handle; empty = never cancelled, all checks
  /// free. A deadline is armed on the token (CancelState::set_deadline) by
  /// whoever makes it, so its clock starts there: a caller of
  /// db::QueryService::submit arms it before submitting, and queue wait
  /// counts. See engine/cancel.hpp.
  CancelToken cancel;

  /// Batch admission groups only executions with identical simulation knobs.
  /// cancel is deliberately excluded: statements with different deadlines
  /// still fuse into one shared scan (each member checks its own token).
  bool operator==(const ExecOptions& o) const {
    return force_k == o.force_k && skip_host_gb == o.skip_host_gb &&
           sim_scalar == o.sim_scalar;
  }
};

/// One statement of a pass: its bound query and the options it runs under,
/// its own cancel token included.
struct BatchMember {
  const sql::BoundQuery* query = nullptr;
  ExecOptions opts;
};

class PimQueryEngine {
 public:
  /// `models` may be empty when every execution passes force_k.
  PimQueryEngine(EngineKind kind, PimStore& store, host::HostConfig hcfg,
                 LatencyModels models = {});

  /// One SELECT: a one-member execute_batch (the same fused filter pass);
  /// rethrows the member's error.
  QueryOutput execute(const sql::BoundQuery& q, const ExecOptions& opts = {});

  /// Result of one shared-scan batch: outputs[i]/errors[i] belong to
  /// members[i]. Exactly one of the pair is set per member — a query that
  /// would throw when executed solo (e.g. an unsupported aggregate) gets its
  /// exception captured here so one bad member cannot fail its batchmates.
  struct BatchOutput {
    std::vector<QueryOutput> outputs;
    std::vector<std::exception_ptr> errors;
    /// True when the members shared one fused pass (more than one member
    /// and no fallback).
    bool fused = false;
  };

  /// Shared-scan batched execution: evaluates every query's WHERE in one
  /// fused pass over the store — each (part, page) crossbar visit runs all
  /// members' gate programs back to back, zone-map classification is
  /// computed once per (page, predicate list) through the classification
  /// memo, and per-query survivors, group-by state and stats are demuxed on
  /// readback. Each member's result rows and semantic stats (selectivity,
  /// subgroup counts, planner inputs, prune counters) are byte-identical to
  /// a solo execute() of the same query; modeled time/energy are attributed
  /// per query from that query's own request traces (a member is never
  /// billed for a batchmate's work) and stay deterministic at any
  /// sim_threads. A single-member batch is exactly execute(): no
  /// fallback. Each member runs under its own options and checks only its
  /// own token. A member cancelled or expired during the pass aborts the
  /// fused pass, which falls back to solo re-execution of every member —
  /// batchmates get their exact solo rows and stats (with
  /// stats.batch_fallbacks = 1), the aborted member gets its typed
  /// QueryTimeout/QueryCancelled.
  BatchOutput execute_batch(const std::vector<BatchMember>& members);

  /// Filter-only scan: runs the WHERE conjunction as the usual bulk-bitwise
  /// filter phase (zone-map pruning and selectivity ordering included), then
  /// reads back the `attrs` columns of the survivors with the host-gb
  /// walk's unique-line accounting. Modeled cost = filter phase + residual
  /// bit-vector read + record-line streaming + per-record CPU time. This is
  /// the per-table operator a multi-table join plan composes on the host.
  ScanOutput execute_scan(const std::vector<sql::BoundPredicate>& filters,
                          const std::vector<std::size_t>& attrs,
                          const ExecOptions& opts = {});

  EngineKind kind() const { return kind_; }
  const LatencyModels& models() const { return models_; }
  void set_models(LatencyModels m) { models_ = std::move(m); }
  PimStore& store() { return *store_; }
  const host::HostConfig& host_config() const { return hcfg_; }

 private:
  EngineKind kind_;
  PimStore* store_;
  host::HostConfig hcfg_;
  LatencyModels models_;
};

}  // namespace bbpim::engine
