#include "engine/query_exec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "common/parallel.hpp"
#include "engine/fault_injector.hpp"
#include "engine/filter_compiler.hpp"
#include "engine/hash_join.hpp"
#include "host/pipeline.hpp"
#include "host/read_set.hpp"
#include "pim/agg_circuit.hpp"
#include "pim/controller.hpp"
#include "pimdb/bitserial.hpp"

namespace bbpim::engine {
namespace {

/// (part, chunk) pairs the host touches per record for the given attrs.
using ChunkSet = std::set<std::pair<int, std::uint32_t>>;

ChunkSet read_chunks(const PimStore& store, const pim::PimConfig& cfg,
                     const std::vector<std::size_t>& attrs) {
  ChunkSet chunks;
  for (const std::size_t a : attrs) {
    const int part = store.part_of_attr(a);
    const pim::Field f = store.field(a);
    const std::uint32_t first = f.offset / cfg.read_bits;
    const std::uint32_t last = (f.offset + f.width - 1) / cfg.read_bits;
    for (std::uint32_t c = first; c <= last; ++c) chunks.insert({part, c});
  }
  return chunks;
}

/// The attributes host-gb reads per record: the group attributes, then the
/// aggregate's operands (none for COUNT).
std::vector<std::size_t> host_read_attrs(const sql::BoundQuery& q) {
  std::vector<std::size_t> attrs(q.group_by);
  if (q.agg_func != sql::AggFunc::kCount) {
    attrs.push_back(q.agg_expr.a);
    if (q.agg_expr.kind != sql::Expr::Kind::kColumn) {
      attrs.push_back(q.agg_expr.b);
    }
  }
  return attrs;
}

/// Word k of a page's survivor bits, masked to the page's first `valid`
/// records (k must satisfy 64 * k < valid).
std::uint64_t live_word(const std::vector<std::uint64_t>& words, std::size_t k,
                        std::uint32_t valid) {
  const std::uint64_t w = words[k];
  return valid - 64 * k < 64 ? w & ((1ULL << (valid - 64 * k)) - 1) : w;
}

/// The number of records walk_survivor_blocks visits on page `p`.
std::size_t count_survivors(const PimStore& store, std::size_t p,
                            const BitVec& survivors) {
  const std::uint32_t valid = store.page_records(p);
  const std::vector<std::uint64_t>& words = survivors.words();
  std::size_t n = 0;
  for (std::size_t k = 0; k < words.size() && 64 * k < valid; ++k) {
    n += std::popcount(live_word(words, k, valid));
  }
  return n;
}

/// The host's survivor walk over page `p`, 64 crossbar rows at a time, shared
/// by the join-feeder readback (finish_scan) and the vectorized sample and
/// host-gb walks. For every word of `survivors` holding a record below
/// page_records(p), reads `attrs` with one PimStore::read_block and calls
/// visit(first, live, blocks): `first` is the word's first store record, `live`
/// its survivor bits, blocks[k][j] the code of attrs[k] for record first + j.
/// Returns the page's unique host lines: a line is one chunk of one row across
/// the page's crossbars and every survivor reads all `chunks`, so the lines are
/// chunks x the distinct rows holding a survivor (the live words OR-ed across
/// crossbars).
template <class Visit>
std::uint32_t walk_survivor_blocks(const PimStore& store, std::size_t p,
                                   const BitVec& survivors,
                                   std::span<const std::size_t> attrs,
                                   std::size_t chunks, Visit&& visit) {
  const std::uint32_t valid = store.page_records(p);
  const std::vector<std::uint64_t>& words = survivors.words();
  std::vector<std::uint64_t> rows_live(store.module_config().crossbar_rows / 64,
                                       0);
  std::vector<pim::RowBlock> blocks(attrs.size());
  const std::size_t page_first = p * store.records_per_page();
  for (std::size_t k = 0; k < words.size() && 64 * k < valid; ++k) {
    const std::uint64_t live = live_word(words, k, valid);
    if (live == 0) continue;
    rows_live[k % rows_live.size()] |= live;
    const std::size_t first = page_first + 64 * k;
    store.read_block(first / 64, attrs, blocks);
    visit(first, live, std::span<const pim::RowBlock>(blocks));
  }
  std::size_t rows = 0;
  for (const std::uint64_t w : rows_live) rows += std::popcount(w);
  return static_cast<std::uint32_t>(chunks * rows);
}

/// Read energy of `lines` host line reads: the engine's read meter and the
/// semijoin planner's survivor cost.
EnergyJ line_read_energy(double lines, const pim::PimConfig& cfg) {
  return lines * cfg.line_bytes() * 8 * cfg.read_energy_pj_per_bit *
         units::kJoulePerPj;
}

constexpr std::size_t kCandidateCap = 65536;
constexpr std::uint16_t kMulDecompositionMaxBits = 12;

/// Group-fold field maxima of `attrs` on `store`: every code fits its
/// field's width.
std::vector<std::uint64_t> group_maxima(const PimStore& store,
                                        const std::vector<std::size_t>& attrs) {
  std::vector<std::uint64_t> max_codes;
  for (const std::size_t a : attrs) {
    max_codes.push_back(width_max(store.field(a).width));
  }
  return max_codes;
}

/// The subgroup `key` of `group_by` as a conjunction of equalities: pim-gb
/// selects a subgroup with the same filter as a WHERE (Section IV).
std::vector<sql::BoundPredicate> key_predicates(
    const std::vector<std::size_t>& group_by, const GroupKey& key) {
  std::vector<sql::BoundPredicate> preds(group_by.size());
  for (std::size_t i = 0; i < group_by.size(); ++i) {
    preds[i].kind = sql::BoundPredicate::Kind::kEq;
    preds[i].attr = group_by[i];
    preds[i].v1 = key[i];
  }
  return preds;
}

/// Where a phase's modeled time lands.
using Slot = TimeNs QueryPhaseBreakdown::*;

/// The modeled host clock of Section V-A: phases run one after another,
/// and each ends in a thread barrier that costs phase_overhead_ns. Request
/// and walk phases split their pages contiguously across the host threads.
/// With a log attached, every request and walk phase is also appended to it
/// (a scan's ScanOutput::phases).
class PhaseClock {
 public:
  explicit PhaseClock(const host::HostConfig& hcfg) : hcfg_(hcfg) {}

  void log_to(std::vector<ScanPhase>* log) { log_ = log; }
  TimeNs now() const { return now_; }
  const QueryPhaseBreakdown& phases() const { return phases_; }
  PowerW peak_module_w() const { return tracker_.peak_module_w(); }

  /// Ends the current phase at `end`, plus the barrier.
  void advance(TimeNs end, Slot slot) {
    const TimeNs dur = end - now_ + hcfg_.phase_overhead_ns;
    phases_.*slot += dur;
    now_ += dur;
  }

  /// One phase of per-page requests (traces[i] on the phase's page i).
  void requests(std::span<const pim::RequestTrace> traces,
                std::uint32_t window, TimeNs issue_gap, Slot slot) {
    host::ScheduleParams params;
    params.threads = hcfg_.threads;
    params.window = window;
    params.issue_gap_ns = issue_gap;
    const TimeNs end =
        host::schedule_requests(traces, params, now_, &tracker_);
    if (log_ != nullptr) {
      log_->push_back({slot, {traces.begin(), traces.end()}, window,
                       issue_gap, false, {}, 0});
    }
    advance(end, slot);
  }

  /// A host walk: the unique lines `page_lines` counts per page, plus CPU
  /// for `processed` records shared by the threads.
  void walk(std::span<const std::uint32_t> page_lines, std::size_t processed,
            Slot slot) {
    const TimeNs cpu = static_cast<double>(processed) *
                       hcfg_.cpu_ns_per_record / hcfg_.threads;
    if (log_ != nullptr) {
      log_->push_back({slot, {}, 0, 0, true,
                       {page_lines.begin(), page_lines.end()}, processed});
    }
    advance(now_ + host::lines_phase_time_ns(page_lines, hcfg_) + cpu, slot);
  }

 private:
  const host::HostConfig& hcfg_;
  std::vector<ScanPhase>* log_ = nullptr;
  TimeNs now_ = 0;
  QueryPhaseBreakdown phases_;
  pim::PowerTracker tracker_;
};

}  // namespace

TimeNs finalize_rows(std::vector<ResultRow>& rows,
                     const std::vector<sql::BoundOrderItem>& order_by) {
  std::sort(rows.begin(), rows.end(), [&](const ResultRow& a,
                                          const ResultRow& b) {
    for (const sql::BoundOrderItem& o : order_by) {
      if (o.is_agg) {
        if (a.agg != b.agg) return o.desc ? a.agg > b.agg : a.agg < b.agg;
      } else {
        const std::uint64_t va = a.group[o.group_pos];
        const std::uint64_t vb = b.group[o.group_pos];
        if (va != vb) return o.desc ? va > vb : va < vb;
      }
    }
    return a.group < b.group;  // deterministic tiebreak
  });
  return static_cast<double>(rows.size()) * 50.0;
}

AggPlan plan_agg_passes(const sql::BoundQuery& q, const PimStore& store) {
  using sql::AggFunc;
  using sql::Expr;

  auto part0_field = [&](std::size_t attr) {
    if (store.part_of_attr(attr) != 0) {
      throw std::runtime_error(
          "aggregated attribute '" +
          store.table().schema().attribute(attr).name +
          "' must reside in the fact partition");
    }
    return store.field(attr);
  };

  AggPlan plan;
  std::vector<AggPass>& passes = plan.passes;
  if (q.agg_func == AggFunc::kCount) {
    AggPass p;
    p.use_select_as_value = true;
    p.carries_count = false;  // the pass value IS the count
    passes.push_back(p);
  } else if (q.agg_expr.kind == Expr::Kind::kColumn) {
    AggPass p;
    p.value = part0_field(q.agg_expr.a);
    p.op = q.agg_func == AggFunc::kMin   ? pim::AggOp::kMin
           : q.agg_func == AggFunc::kMax ? pim::AggOp::kMax
                                         : pim::AggOp::kSum;
    p.carries_count = true;
    passes.push_back(p);
    plan.value_bits = p.value.width;
  } else if (q.agg_expr.kind == Expr::Kind::kSub ||
             q.agg_expr.kind == Expr::Kind::kAdd) {
    if (q.agg_func != AggFunc::kSum) {
      throw std::runtime_error("MIN/MAX over expressions is not supported");
    }
    // SUM(a +- b) = SUM(a) +- SUM(b).
    AggPass pa;
    pa.value = part0_field(q.agg_expr.a);
    pa.carries_count = true;
    passes.push_back(pa);
    AggPass pb;
    pb.value = part0_field(q.agg_expr.b);
    pb.scale = q.agg_expr.kind == Expr::Kind::kSub ? -1 : 1;
    passes.push_back(pb);
    plan.value_bits = std::max(pa.value.width, pb.value.width);
  } else {  // kMul
    if (q.agg_func != AggFunc::kSum) {
      throw std::runtime_error("MIN/MAX over expressions is not supported");
    }
    pim::Field fa = part0_field(q.agg_expr.a);
    pim::Field fb = part0_field(q.agg_expr.b);
    if (fb.width > fa.width) std::swap(fa, fb);  // fb is the narrow one
    if (fb.width > kMulDecompositionMaxBits) {
      throw std::runtime_error(
          "SUM of a product needs one operand of <= 12 bits");
    }
    // SUM(a*b) = sum_i 2^i * SUM(a | b_i AND select).
    for (std::uint16_t i = 0; i < fb.width; ++i) {
      AggPass p;
      p.value = fa;
      p.scale = static_cast<std::int64_t>(1) << i;
      p.mask_attr_col = static_cast<std::uint16_t>(fb.offset + i);
      passes.push_back(p);
    }
    // All passes are masked; a dedicated pass recovers the subgroup count.
    AggPass pc;
    pc.use_select_as_value = true;
    pc.scale = 0;
    passes.push_back(pc);
    plan.value_bits = fa.width;
  }

  const pim::PimConfig& cfg = store.module_config();
  for (const AggPass& p : passes) {
    const std::uint32_t n =
        p.use_select_as_value ? 1 : pim::chunk_span(p.value, cfg);
    plan.n_chunks = std::max(plan.n_chunks, n);
  }
  plan.s_chunks = static_cast<std::uint32_t>(
      read_chunks(store, cfg, host_read_attrs(q)).size());
  return plan;
}

// ===========================================================================
// Execution context: one query run.
// ===========================================================================

namespace {

class Execution {
 public:
  /// One member of a pass. `allocs` (one ColumnAlloc per part) are the
  /// pass's scratch allocators: every member draws from the same set, so no
  /// two members are ever handed the same physical column. `opts` are the
  /// member's own, its abort token included — each member checks only its
  /// own.
  Execution(EngineKind kind, PimStore& store, const host::HostConfig& hcfg,
            const LatencyModels& models, const sql::BoundQuery& q,
            const ExecOptions& opts, std::vector<pim::ColumnAlloc>& allocs)
      : kind_(kind),
        store_(store),
        cfg_(store.module().config()),
        hcfg_(hcfg),
        models_(models),
        q_(q),
        opts_(opts),
        allocs_(allocs),
        sim_threads_(resolve_threads(hcfg.sim_threads)),
        vectorized_(!opts.sim_scalar),
        prune_(hcfg.prune),
        clock_(hcfg),
        results_(q.agg_func, group_maxima(store, q.group_by)) {
    // Selectivity-ordered execution: predicates compile most-selective
    // first (sketch-estimated; deterministic). AND is commutative and each
    // predicate costs the same cycles at any position, so rows and modeled
    // stats are unchanged — the order is what EXPLAIN shows and what the
    // zone-map classifier meets first.
    filters_ = order_by_selectivity(q.filters, store);
    if (prune_) {
      // Memoized classification: batch members sharing a WHERE — and
      // repeated executions against the same store version — reuse one
      // analysis instead of re-classifying every (page, predicate) pair.
      analysis_ = analyze_filters_cached(filters_, store,
                                         &stats_.classification_memo_hits);
    }
    for (std::size_t p = 0; p < pages(); ++p) {
      if (!prune_ || !analysis_->page_skip[p]) active_pages_.push_back(p);
    }
    mask_ready_.assign(pages(), 0);
  }

  // --- the pass -------------------------------------------------------------
  // Every execution — a solo SELECT, a join's per-table scan, a shared-scan
  // batch — is a pass of one or more members over one store, in three
  // stages. Stage 1, per member in order: the WHERE is analyzed and compiled
  // (no gate program runs). Stage 2, once: run_fused_filter() walks the
  // store page by page and runs every member's gate program back to back
  // per crossbar visit, journaling energy and traces per (visit, member).
  // Stage 3, per member in order: the member's tail (finish_query or
  // finish_scan) schedules its own traces into its own clock and runs the
  // rest of the query. Per-member meters, trackers, and clocks mean a
  // member's modeled cost comes entirely from its own work — a batchmate is
  // never billed.

  /// Runs one pass over `batch` (one Execution per member) and calls
  /// `finish(i, member)` for every member in order; the members (and the
  /// pass's allocators) live until the last tail returns.
  template <typename Finish>
  static void run_pass(PimQueryEngine& engine,
                       const std::vector<BatchMember>& batch,
                       Finish&& finish) {
    PimStore& store = engine.store();
    std::vector<pim::ColumnAlloc> allocs;
    for (int part = 0; part < store.parts(); ++part) {
      allocs.push_back(store.layout(part).make_alloc());
    }
    std::vector<Execution> members;
    members.reserve(batch.size());
    for (const BatchMember& b : batch) {
      members.emplace_back(engine.kind(), store, engine.host_config(),
                           engine.models(), *b.query, b.opts, allocs);
    }
    for (const Execution& m : members) m.opts_.cancel.check();
    // One wear epoch per pass: the tails must not reset it again or they
    // would erase the fused pass's writes.
    store.module().reset_wear();
    for (Execution& m : members) {
      // A lone SELECT allocates its result/count fields before compiling
      // its WHERE (a scan, AggFunc::kNone, has none); members of a larger
      // pass defer that to their tails, because allocating every member's
      // fields up front would exhaust the shared scratch space. The order
      // is not cosmetic: it decides where the fields sit, and with that the
      // modeled pim-gb result readback.
      if (members.size() == 1 && m.q_.agg_func != sql::AggFunc::kNone) {
        m.build_agg_passes();
      }
      m.filter_compile();
    }
    run_fused_filter(members);
    for (std::size_t i = 0; i < members.size(); ++i) finish(i, members[i]);
  }

  /// Stage 3 of a SELECT: the filter tail, the aggregation plan, and the
  /// rest of the query. Releases every scratch column still held so the
  /// shared allocator is clean for the next member's tail.
  QueryOutput finish_query();

  /// Stage 3 of a filter-only scan: the filter tail, the residual bit-vector
  /// read, and the survivor walk reading back `attrs` (see
  /// PimQueryEngine::execute_scan).
  ScanOutput finish_scan(const std::vector<std::size_t>& attrs);

 private:
  // --- small helpers --------------------------------------------------------
  std::size_t pages() const { return store_.pages_per_part(); }
  std::uint32_t rows() const { return cfg_.crossbar_rows; }
  pim::ColumnAlloc& alloc(int part) { return allocs_[part]; }

  /// Ends a host-only phase `duration` after the clock's current time.
  void host_phase(TimeNs duration, Slot slot) {
    clock_.advance(clock_.now() + duration, slot);
  }

  /// Schedules one phase of per-page requests and advances the clock.
  void schedule_phase(const std::vector<pim::RequestTrace>& traces,
                      std::uint32_t window, TimeNs issue_gap, Slot slot) {
    stats_.pim_requests += traces.size();
    clock_.requests(traces, window, issue_gap, slot);
  }

  /// Runs fn(job_index, meter) for every index in [0, n), split across the
  /// simulation thread budget. Jobs must be independent (each touches its
  /// own page and writes its own output slots). Parallel workers accumulate
  /// energy into per-chunk journaling meters that are replayed into meter_
  /// in chunk (== job) order afterwards, so every run — serial or parallel,
  /// any thread count — performs the identical sequence of meter adds and
  /// stays bit-identical.
  template <typename Fn>
  void run_jobs(std::size_t n, Fn&& fn) {
    if (sim_threads_ <= 1 || n <= 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i, meter_);
      return;
    }
    const std::size_t chunks = parallel_chunks(n, sim_threads_);
    std::vector<pim::EnergyMeter> meters(chunks,
                                         pim::EnergyMeter(/*journal=*/true));
    parallel_for(n, sim_threads_,
                 [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     fn(i, meters[chunk]);
                   }
                 });
    for (const pim::EnergyMeter& m : meters) m.replay_into(meter_);
  }

  /// Runs a micro-program (costed) with its word-level semantic twin (fast
  /// functional evaluation) on the listed pages of one part as one phase.
  /// Unlisted pages get no request, no modeled cost, and no functional
  /// effect — zone-map pruning in action.
  void logic_phase(int part, const pim::Program& prog,
                   const std::vector<std::size_t>& on_pages, Slot slot) {
    if (prog.gates.empty() || on_pages.empty()) return;
    // Cooperative checkpoint + fault seam at page-loop entry: unwinding here
    // is clean (no job has touched a crossbar yet), and the check stays off
    // the per-page kernels.
    opts_.cancel.check();
    fault_point(FaultSeam::kCrossbarVisit);
    std::vector<pim::RequestTrace> traces(on_pages.size());
    run_jobs(on_pages.size(), [&](std::size_t i, pim::EnergyMeter& meter) {
      traces[i] = pim::execute_program(store_.page(part, on_pages[i]), prog,
                                       cfg_, &meter, vectorized_);
    });
    schedule_phase(traces, hcfg_.request_window, hcfg_.issue_ns, slot);
  }

  /// Reads one bit column of the listed pages of a part (host streaming
  /// reads). The returned vector is indexed by page; unread pages hold
  /// empty BitVecs — their select is statically empty, so no readback is
  /// modeled (or performed) for them.
  std::vector<BitVec> read_column_phase(
      int part, std::uint16_t col, const std::vector<std::size_t>& on_pages,
      Slot slot) {
    opts_.cancel.check();
    fault_point(FaultSeam::kReadback);
    std::vector<BitVec> out(pages());
    std::vector<pim::RequestTrace> traces(on_pages.size());
    run_jobs(on_pages.size(), [&](std::size_t i, pim::EnergyMeter& meter) {
      const std::size_t p = on_pages[i];
      traces[i] =
          pim::read_bit_column(store_.page(part, p), col, hcfg_.line_stream_ns,
                               cfg_, &meter, &out[p], vectorized_);
    });
    // Plain loads: the issuing thread is occupied for the whole stream.
    schedule_phase(traces, /*window=*/1, /*issue_gap=*/0.0, slot);
    return out;
  }

  /// Writes per-page bit vectors into a column of a part (two-xb transfer);
  /// `bits` is indexed by page, only the listed pages are written.
  void write_column_phase(int part, std::uint16_t col,
                          const std::vector<BitVec>& bits,
                          const std::vector<std::size_t>& on_pages,
                          Slot slot) {
    std::vector<pim::RequestTrace> traces(on_pages.size());
    run_jobs(on_pages.size(), [&](std::size_t i, pim::EnergyMeter& meter) {
      const std::size_t p = on_pages[i];
      traces[i] = pim::write_bit_column(store_.page(part, p), col, bits[p],
                                        hcfg_.line_stream_ns, cfg_, &meter,
                                        vectorized_);
    });
    schedule_phase(traces, /*window=*/1, /*issue_gap=*/0.0, slot);
  }

  /// The two-xb inter-part transfer: reads part 1's `col` on the listed
  /// pages and writes it into part 0's transfer chunk (allocated on first
  /// use, reused after); returns the chunk's column.
  std::uint16_t transfer_to_part0(std::uint16_t col,
                                  const std::vector<std::size_t>& on_pages,
                                  Slot slot) {
    const std::vector<BitVec> bits = read_column_phase(1, col, on_pages, slot);
    if (!transfer_chunk_) {
      transfer_chunk_ = alloc(0).alloc_aligned_chunk(cfg_.read_bits);
    }
    write_column_phase(0, transfer_chunk_->offset, bits, on_pages, slot);
    return transfer_chunk_->offset;
  }

  /// Host-known-constant column synthesis: functionally fills `col` of the
  /// listed pages with a copy of the part's validity column. Used when the
  /// zone-map analyzer proved the page's predicate subset always-true (the
  /// select IS the validity column) and when zeroing the pim-gb mask on
  /// pages a pruned subgroup never touched. The host knows these values
  /// statically, so nothing is modeled: no request, no energy, no wear.
  void synthesize_column(int part, std::uint16_t col,
                         const std::vector<std::size_t>& pages_list,
                         bool valid_copy) {
    const std::uint16_t valid = store_.layout(part).valid_col();
    for (const std::size_t p : pages_list) {
      pim::Page& page = store_.page(part, p);
      for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
        pim::Crossbar& xb = page.crossbar(x);
        std::uint64_t* dst = xb.column_data_mut(col);
        const std::uint32_t words = xb.words_per_column();
        if (valid_copy) {
          const std::uint64_t* src = xb.column_data(valid);
          for (std::uint32_t w = 0; w < words; ++w) dst[w] = src[w];
        } else {
          for (std::uint32_t w = 0; w < words; ++w) dst[w] = 0;
        }
      }
    }
  }

  /// Zeroes the pim-gb mask column on any listed page whose mask was never
  /// initialized by a subgroup program (the subgroup's select is provably
  /// empty there, so zero IS its value).
  void ensure_mask_zero(const std::vector<std::size_t>& pages_list) {
    std::vector<std::size_t> missing;
    for (const std::size_t p : pages_list) {
      if (!mask_ready_[p]) missing.push_back(p);
    }
    if (!missing.empty()) {
      synthesize_column(0, mask_col_, missing, /*valid_copy=*/false);
      for (const std::size_t p : missing) mask_ready_[p] = 1;
    }
  }

  /// Read energy of `lines` host line reads.
  void meter_line_reads(std::size_t lines) {
    meter_.add(pim::EnergyCat::kRead,
               line_read_energy(static_cast<double>(lines), cfg_));
  }

  /// Charges a host read of `total_lines` result lines (streaming).
  void line_read_phase(std::size_t total_lines, Slot slot) {
    const double per_thread =
        std::ceil(static_cast<double>(total_lines) / hcfg_.threads);
    meter_line_reads(total_lines);
    host_phase(per_thread * hcfg_.line_stream_ns, slot);
  }

  /// Charges a host survivor walk: the unique lines `page_lines` counts per
  /// page (read energy, line time) plus per-record CPU for `processed`
  /// records.
  void host_walk_phase(const std::vector<std::uint32_t>& page_lines,
                       std::size_t processed, Slot slot) {
    std::size_t unique_lines = 0;
    for (const std::uint32_t n : page_lines) unique_lines += n;
    stats_.host_lines = unique_lines;
    meter_line_reads(unique_lines);
    clock_.walk(page_lines, processed, slot);
  }

  // --- phases ---------------------------------------------------------------
  /// Stage 1: prune stats, program compilation (filter cache), per-part
  /// run-page and pending-synthesis lists. No gate program runs.
  void filter_compile();
  /// Stage 2: the fused pass. Visits every (part, page) some member runs
  /// on, in part-major page-ascending order, so each member's subsequence
  /// of visits is its own page order whatever its batchmates run. Members'
  /// programs within one visit run sequentially in member order (programs
  /// may share released temp columns; sequencing makes the reuse safe),
  /// visits run in parallel under the pass's sim-thread budget with
  /// per-(visit, member) journal meters replayed deterministically after.
  static void run_fused_filter(std::vector<Execution>& members);
  /// The filter's tail, first in stage 3: schedules this member's fused
  /// traces, synthesizes its always-true pages, combines part results
  /// (two-xb transfer + AND), and counts the selected records.
  void filter_finish();
  void build_agg_passes();
  /// Samples page 0 into candidates_ (id order); returns the sample's
  /// per-group survivor counts.
  GroupFold sample_phase();
  /// Appends the unsampled candidates (those `sampled` lacks) and sorts.
  void build_candidates(const TupleIndex& sampled);
  void plan_phase();
  void pim_gb_phase();
  void host_gb_phase();
  void finalize_phase();
  /// Stats epilogue shared by both tails: modeled total, energy breakdown,
  /// peak chip power, wear.
  void finish_stats();

  /// Aggregates one pass over `select_col` on the listed pages; returns the
  /// combined value across crossbars and pages (SUM adds, MIN/MAX fold);
  /// `out_count` receives the circuit count when the pass carries it.
  /// Unlisted pages provably contribute the fold identity (their select is
  /// statically empty), so skipping them is exact.
  std::uint64_t run_agg_pass(const AggPass& pass, std::uint16_t select_col,
                             std::uint64_t* out_count, Slot slot,
                             const std::vector<std::size_t>& on_pages);

  /// Aggregates one subgroup (all passes), the filter result AND the
  /// conjunction `match`; returns {agg value, count}. The empty conjunction
  /// is the whole filter result (no GROUP BY): its select is r_col_ itself
  /// and it reports selected_records as its count.
  std::pair<std::int64_t, std::uint64_t> aggregate_group(
      const std::vector<sql::BoundPredicate>& match, bool update_mask);

  /// Record-at-a-time walk over page `p`'s survivors `bits`, the sim_scalar
  /// reference for walk_survivor_blocks in the sample and host-gb: touches
  /// each survivor's `chunks` lines in `rs` and folds its group into
  /// `fold`, adding its aggregate input when `values` and one otherwise.
  /// Returns the survivors walked.
  std::size_t walk_records(std::size_t p, const BitVec& bits,
                           const ChunkSet& chunks, host::ReadSet& rs,
                           GroupFold& fold, bool values) const;

  // --- members ---------------------------------------------------------------
  EngineKind kind_;
  PimStore& store_;
  const pim::PimConfig& cfg_;
  const host::HostConfig& hcfg_;
  const LatencyModels& models_;
  const sql::BoundQuery& q_;
  const ExecOptions& opts_;

  std::vector<pim::ColumnAlloc>& allocs_;  ///< the pass's, one per part
  unsigned sim_threads_ = 1;  ///< resolved simulation thread budget
  bool vectorized_ = true;    ///< fast kernels (off for the scalar baseline)
  bool prune_ = false;        ///< zone-map data skipping for this execution
  /// q_.filters reordered most-selective-first (what actually compiles).
  std::vector<sql::BoundPredicate> filters_;
  /// Shared (memoized) when prune_; nullptr otherwise.
  std::shared_ptr<const FilterPruneAnalysis> analysis_;
  std::vector<std::size_t> active_pages_;  ///< pages the filter executes on
  std::vector<std::uint8_t> mask_ready_;   ///< mask_col_ initialized per page
  /// Compiled per-part WHERE programs (filter_compile -> fused pass).
  std::vector<std::shared_ptr<const CompiledFilter>> compiled_;
  /// Per-part pages whose gate program actually runs (active minus synth).
  std::vector<std::vector<std::size_t>> run_pages_;
  /// Per-part pages whose predicate subset is provably always-true, awaiting
  /// validity-copy synthesis. Deferred until after the fused pass: a
  /// batchmate's program may reuse this member's result column as a
  /// released temp on pages this member never visits — synthesizing before
  /// the pass would let that trample the copied bits.
  std::vector<std::vector<std::size_t>> synth_pages_;
  bool skip_transfer_ = false;  ///< two-xb: part 1 provably all-true
  /// Fused-pass traces of THIS member, in its page order; scheduled by
  /// filter_finish into the member's own clock.
  std::vector<pim::RequestTrace> pending_traces_;
  pim::EnergyMeter meter_;
  PhaseClock clock_;
  QueryStats stats_;

  std::uint16_t r_col_ = 0;          ///< filter result on part 0
  std::uint16_t mask_col_ = 0;       ///< OR of pim-gb subgroup selects
  bool mask_valid_ = false;
  std::optional<pim::Field> transfer_chunk_;  ///< part-0 chunk for transfers

  AggPlan plan_;  ///< empty passes until build_agg_passes
  pim::Field result_field_{};
  pim::Field count_field_{};

  std::vector<GroupCandidate> candidates_;
  bool candidates_complete_ = true;
  double selectivity_est_ = 0;
  std::size_t chosen_k_ = 0;

  /// pim-gb subgroups, then host-gb's folded survivors.
  GroupFold results_;
  std::vector<ResultRow> rows_;
};

// ---------------------------------------------------------------------------
// Phase 1: filter
// ---------------------------------------------------------------------------

void Execution::filter_compile() {
  if (prune_) {
    stats_.pages_skipped = analysis_->pages_skipped;
    stats_.pages_synthesized = analysis_->pages_synthesized;
    stats_.crossbars_skipped = analysis_->crossbars_skipped;
    stats_.predicates_short_circuited = analysis_->predicates_short_circuited;
  }

  // Memoized compilation: the key covers (predicates, part, allocator
  // state), so repeated prepared-statement executions reuse the program and
  // only replay its result-column allocation. The scalar baseline compiles
  // from scratch, matching the pre-cache behavior it measures. The counts
  // are this execution's own lookups: the cache is shared by every view of
  // the builder, so its totals also move with other workers' lookups.
  for (int part = 0; part < store_.parts(); ++part) {
    if (vectorized_) {
      bool hit = false;
      compiled_.push_back(store_.filter_cache().get_or_compile(
          filters_, part, store_.layout(part), alloc(part), &hit));
      ++(hit ? stats_.filter_cache_hits : stats_.filter_cache_misses);
    } else {
      compiled_.push_back(std::make_shared<const CompiledFilter>(
          compile_filter(filters_, store_.layout(part), alloc(part))));
    }
  }

  // Per-part gate-program page lists: active pages minus the pages whose
  // part subset is provably always-true — those get the validity column
  // synthesized into the result column instead (no gate program).
  run_pages_.assign(store_.parts(), {});
  // two-xb: when every active page of part 1 is synthesizable, its result
  // column would be exactly the validity column, which part 0's program
  // already folds in — the whole inter-part transfer is skipped.
  skip_transfer_ =
      prune_ && store_.parts() == 2 &&
      [&] {
        for (const std::size_t p : active_pages_) {
          if (!analysis_->page_synth[p][1]) return false;
        }
        return true;
      }();
  synth_pages_.assign(store_.parts(), {});
  for (int part = 0; part < store_.parts(); ++part) {
    if (part == 1 && skip_transfer_) continue;  // program never needed
    for (const std::size_t p : active_pages_) {
      if (prune_ && analysis_->page_synth[p][part]) {
        synth_pages_[part].push_back(p);
      } else {
        run_pages_[part].push_back(p);
      }
    }
  }
}

void Execution::filter_finish() {
  // The member's fused traces schedule as one phase on its own clock. An
  // empty list (everything synthesized or pruned) means no phase at all.
  if (!pending_traces_.empty()) {
    schedule_phase(pending_traces_, hcfg_.request_window, hcfg_.issue_ns,
                   &QueryPhaseBreakdown::filter);
    pending_traces_.clear();
  }
  // Synthesis waits until the member's own tail: every batchmate program
  // that could reuse this member's result column as a temp has already run.
  for (int part = 0; part < store_.parts(); ++part) {
    if (!synth_pages_[part].empty()) {
      synthesize_column(part, compiled_[part]->result_col, synth_pages_[part],
                        /*valid_copy=*/true);
    }
  }

  if (store_.parts() == 1) {
    r_col_ = compiled_[0]->result_col;
  } else if (skip_transfer_) {
    alloc(1).release(compiled_[1]->result_col);
    r_col_ = compiled_[0]->result_col;
  } else {
    // two-xb: ship part 1's bits through the host and AND them into part 0.
    const std::uint16_t shipped =
        transfer_to_part0(compiled_[1]->result_col, active_pages_,
                          &QueryPhaseBreakdown::transfer);
    pim::ProgramBuilder pb(alloc(0));
    const std::uint16_t combined =
        pb.emit_and(compiled_[0]->result_col, shipped);
    logic_phase(0, pb.take(), active_pages_, &QueryPhaseBreakdown::transfer);
    alloc(0).release(compiled_[0]->result_col);
    alloc(1).release(compiled_[1]->result_col);
    r_col_ = combined;
  }

  // Free introspection: exact selected-record count for the stats tables.
  // Copy-free column popcounts, active pages in parallel, reduced in page
  // order; skipped pages provably select nothing and contribute zero.
  std::vector<std::size_t> page_selected(pages(), 0);
  run_jobs(active_pages_.size(), [&](std::size_t i, pim::EnergyMeter&) {
    const std::size_t p = active_pages_[i];
    pim::Page& page = store_.page(0, p);
    std::size_t n = 0;
    for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
      n += vectorized_ ? page.crossbar(x).column_popcount(r_col_)
                       : page.crossbar(x).column(r_col_).popcount();
    }
    page_selected[p] = n;
  });
  std::size_t selected = 0;
  for (const std::size_t n : page_selected) selected += n;
  stats_.set_selected(selected, store_.record_count());
}

// ---------------------------------------------------------------------------
// Aggregation pass construction
// ---------------------------------------------------------------------------

void Execution::build_agg_passes() {
  plan_ = plan_agg_passes(q_, store_);
  // Result slots: sums over 1024 rows add log2(rows) bits.
  const std::uint32_t result_bits = std::min<std::uint32_t>(
      64, plan_.value_bits + rel::bits_for_max(rows() - 1));
  result_field_ = alloc(0).alloc_field(static_cast<std::uint16_t>(result_bits));
  count_field_ =
      alloc(0).alloc_field(static_cast<std::uint16_t>(rel::bits_for_max(rows())));
}

// ---------------------------------------------------------------------------
// One aggregation pass over a select column
// ---------------------------------------------------------------------------

std::uint64_t Execution::run_agg_pass(const AggPass& pass,
                                      std::uint16_t select_col,
                                      std::uint64_t* out_count, Slot slot,
                                      const std::vector<std::size_t>& on_pages) {
  const bool want_count = pass.carries_count && out_count != nullptr;
  pim::AggRequest req;
  req.select_col = select_col;
  req.value = pass.use_select_as_value ? pim::Field{select_col, 1} : pass.value;
  req.op = pass.op;
  req.result = result_field_;
  req.result_row = 0;
  req.with_count = want_count;
  req.count = count_field_;

  // Per-page partial folds, combined in page order at the end: SUM is exact
  // modular u64 addition and MIN/MAX are associative, so the split cannot
  // change the result. In vectorized mode the partials are captured while
  // the circuits run (the written result fields read back to exactly the
  // captured masked values, so re-reading them is pure overhead); the
  // scalar baseline reads them back from the crossbars like the host would.
  struct Partial {
    std::uint64_t acc;
    std::uint64_t count;
  };
  const std::uint64_t value_max = width_max(req.value.width);
  std::vector<Partial> partials(
      on_pages.size(), Partial{req.op == pim::AggOp::kMin ? value_max : 0, 0});
  bool folded = false;

  if (kind_ == EngineKind::kPimdb) {
    // Pure bulk-bitwise reduction: identical result, very different price.
    // Each tree level is a separate macro request per page (the host must
    // fence between levels), so the reduction costs one scheduled phase per
    // level — the issue-cost multiplier behind PIMDB's Table II column.
    std::vector<std::uint64_t> phases =
        pimdb::bitserial_agg_phases(req.value.width, rows(), req.op);
    if (want_count) {
      const std::vector<std::uint64_t> count_phases =
          pimdb::bitserial_agg_phases(1, rows(), pim::AggOp::kSum);
      phases.insert(phases.end(), count_phases.begin(), count_phases.end());
    }
    std::uint64_t total_cycles = 0;
    for (const std::uint64_t c : phases) total_cycles += c;

    run_jobs(on_pages.size(), [&](std::size_t i, pim::EnergyMeter&) {
      pim::Page& page = store_.page(0, on_pages[i]);
      Partial& part = partials[i];
      for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
        pim::Crossbar& xb = page.crossbar(x);
        std::uint64_t count = 0;
        const std::uint64_t v = pim::compute_aggregate(
            xb, req.value, select_col, req.op, &count, vectorized_);
        const std::uint64_t rmask = width_max(req.result.width);
        xb.write_row_bits(0, req.result.offset, req.result.width, v & rmask);
        if (want_count) {
          xb.write_row_bits(0, req.count.offset, req.count.width, count);
        }
        xb.add_uniform_wear(total_cycles);
        if (vectorized_) {
          part.acc = pim::agg_fold(req.op, part.acc, v & rmask);
          const std::uint64_t cmask = width_max(req.count.width);
          if (want_count) part.count += count & cmask;
        }
      }
    });
    folded = vectorized_;
    for (const std::uint64_t cycles : phases) {
      std::vector<pim::RequestTrace> traces;
      traces.reserve(on_pages.size());
      for (const std::size_t p : on_pages) {
        pim::RequestTrace t = pim::logic_trace_cost(
            cfg_, cycles, store_.page(0, p).crossbar_count());
        meter_.add(pim::EnergyCat::kLogic, t.energy_j);
        traces.push_back(t);
      }
      schedule_phase(traces, hcfg_.request_window, hcfg_.issue_ns, slot);
    }
  } else {
    std::vector<pim::RequestTrace> traces(on_pages.size());
    std::vector<pim::PageAggResult> page_results(on_pages.size());
    run_jobs(on_pages.size(), [&](std::size_t i, pim::EnergyMeter& meter) {
      traces[i] =
          pim::execute_aggregate(store_.page(0, on_pages[i]), req, cfg_,
                                 &meter, vectorized_,
                                 vectorized_ ? &page_results[i] : nullptr);
    });
    if (vectorized_) {
      for (std::size_t i = 0; i < on_pages.size(); ++i) {
        partials[i] = Partial{page_results[i].value, page_results[i].count};
      }
      folded = true;
    }
    schedule_phase(traces, hcfg_.request_window, hcfg_.issue_ns, slot);
  }

  // Host fetches each crossbar's result (and count) line(s) — only from
  // pages that ran the pass.
  std::uint32_t lines_per_page = pim::chunk_span(result_field_, cfg_);
  if (want_count) lines_per_page += pim::chunk_span(count_field_, cfg_);
  line_read_phase(on_pages.size() * lines_per_page, slot);

  if (!folded) {
    run_jobs(on_pages.size(), [&](std::size_t i, pim::EnergyMeter&) {
      pim::Page& page = store_.page(0, on_pages[i]);
      Partial& part = partials[i];
      for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
        const std::uint64_t v = page.crossbar(x).read_row_bits(
            0, result_field_.offset, result_field_.width);
        part.acc = pim::agg_fold(req.op, part.acc, v);
        if (want_count) {
          part.count += page.crossbar(x).read_row_bits(0, count_field_.offset,
                                                       count_field_.width);
        }
      }
    });
  }
  std::uint64_t acc = req.op == pim::AggOp::kMin ? value_max : 0;
  std::uint64_t count = 0;
  for (const Partial& part : partials) {
    acc = pim::agg_fold(req.op, acc, part.acc);
    count += part.count;
  }
  if (want_count) *out_count = count;
  return acc;
}

// ---------------------------------------------------------------------------
// Subgroup aggregation (pim-gb)
// ---------------------------------------------------------------------------

std::pair<std::int64_t, std::uint64_t> Execution::aggregate_group(
    const std::vector<sql::BoundPredicate>& match, bool update_mask) {
  const Slot slot = &QueryPhaseBreakdown::pim_gb;
  const bool whole = match.empty();

  // Zone-map pruning, per subgroup: pages where the sketches refute the
  // match on every crossbar cannot hold a member, so the match, the
  // aggregation passes, and the result readback are all skipped there.
  // The subgroup select is provably all-zero on those pages, which is
  // exactly what the mask bookkeeping below synthesizes when needed.
  std::vector<std::size_t> group_pages;
  const std::vector<std::size_t>* on = &active_pages_;
  if (prune_ && !whole) {
    group_pages = pages_may_match(match, store_, active_pages_);
    stats_.group_pages_skipped += active_pages_.size() - group_pages.size();
    on = &group_pages;
    if (on->empty()) return {0, 0};  // no page can hold this subgroup
  }

  // Part-1 match (two-xb): compute, then transfer to part 0.
  std::optional<std::uint16_t> shipped;
  if (store_.parts() == 2 && !whole) {
    pim::ProgramBuilder pb1(alloc(1));
    if (const auto match1 = emit_conjunction(pb1, match, store_.layout(1))) {
      logic_phase(1, pb1.take(), *on, slot);
      shipped = transfer_to_part0(*match1, *on, slot);
      alloc(1).release(*match1);
    }
  }

  // Part-0 program: match AND filter result (AND transferred bits), plus
  // mask bookkeeping and per-pass masked selects, in one request.
  pim::ProgramBuilder pb(alloc(0));
  std::uint16_t sg = r_col_;
  if (!whole) {
    if (const auto match0 = emit_conjunction(pb, match, store_.layout(0))) {
      sg = pb.emit_and(*match0, r_col_);
      pb.release(*match0);
    } else {
      sg = pb.emit_copy(r_col_);
    }
  }
  if (shipped) {
    const std::uint16_t next = pb.emit_and(sg, *shipped);
    pb.release(sg);
    sg = next;
  }
  if (update_mask) {
    if (!mask_valid_) {
      mask_col_ = alloc(0).alloc();
      pb.emit_copy_into(sg, mask_col_);
      mask_valid_ = true;
    } else {
      // Pages this subgroup runs on may have been pruned out of every
      // earlier subgroup — their mask was never written. Zero it there
      // (host-known: the pruned subgroups' selects are provably empty)
      // before the OR below reads it.
      ensure_mask_zero(*on);
      const std::uint16_t m = pb.emit_or(mask_col_, sg);
      pb.emit_copy_into(m, mask_col_);
      pb.release(m);
    }
  }
  // Per-pass masked selects (mul decomposition).
  const std::vector<AggPass>& passes = plan_.passes;
  std::vector<std::uint16_t> pass_select(passes.size(), sg);
  std::vector<std::uint16_t> owned_selects;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (passes[i].mask_attr_col) {
      pass_select[i] = pb.emit_and(sg, *passes[i].mask_attr_col);
      owned_selects.push_back(pass_select[i]);
    }
  }
  logic_phase(0, pb.take(), *on, slot);
  if (update_mask) {
    for (const std::size_t p : *on) mask_ready_[p] = 1;
  }

  // Aggregation passes. The whole filter result's count is known already,
  // so its circuits report none.
  std::int64_t total = 0;
  std::uint64_t count = whole ? stats_.selected_records : 0;
  bool have_minmax = false;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const AggPass& pass = passes[i];
    const bool want_count = pass.carries_count && !whole;
    std::uint64_t pass_count = 0;
    const std::uint64_t v = run_agg_pass(
        pass, pass_select[i], want_count ? &pass_count : nullptr, slot, *on);
    if (want_count) count = pass_count;
    if (q_.agg_func == sql::AggFunc::kCount) {
      total = static_cast<std::int64_t>(v);
      count = v;
    } else if (pass.op == pim::AggOp::kSum) {
      if (pass.use_select_as_value && pass.scale == 0) {
        count = v;  // dedicated count pass
      } else {
        total += pass.scale * static_cast<std::int64_t>(v);
      }
    } else {
      total = static_cast<std::int64_t>(v);  // single MIN/MAX pass
      have_minmax = true;
    }
  }
  if (have_minmax && count == 0) total = 0;

  for (const std::uint16_t c : owned_selects) alloc(0).release(c);
  if (!whole) alloc(0).release(sg);
  return {total, count};
}

// ---------------------------------------------------------------------------
// Phase 2: sampling (Section IV)
// ---------------------------------------------------------------------------

GroupFold Execution::sample_phase() {
  const Slot slot = &QueryPhaseBreakdown::sample;

  // Read the filter bits of one page (32 K records), single thread. When
  // the zone maps skipped page 0, its select is statically empty — the
  // sampled survivor set is known to be empty at zero modeled cost, and
  // (because the unpruned run would have read an all-zero column) the
  // resulting estimates, candidates, and plan are identical either way.
  BitVec bits;
  const bool page0_skipped = prune_ && analysis_->page_skip[0] != 0;
  if (!page0_skipped) {
    pim::RequestTrace t =
        pim::read_bit_column(store_.page(0, 0), r_col_, hcfg_.line_stream_ns,
                             cfg_, &meter_, &bits, vectorized_);
    host_phase(t.duration_ns, slot);
    ++stats_.pim_requests;
  }

  // Read the group attributes of every sampled survivor: the host-gb walk
  // over page 0 (walk_survivor_blocks, or walk_records for sim_scalar).
  const ChunkSet chunks = read_chunks(store_, cfg_, q_.group_by);
  GroupFold counts(sql::AggFunc::kCount, results_.index().max_codes());
  std::size_t hits = 0;
  std::size_t lines = 0;
  if (vectorized_) {
    lines = walk_survivor_blocks(
        store_, 0, bits, q_.group_by, chunks.size(),
        [&](std::size_t, std::uint64_t live,
            std::span<const pim::RowBlock> blocks) {
          for (; live != 0; live &= live - 1) {
            const int j = std::countr_zero(live);
            ++hits;
            counts.add([&](std::size_t g) { return blocks[g][j]; }, 1);
          }
        });
  } else {
    host::ReadSet rs(1);
    hits = walk_records(0, bits, chunks, rs, counts, /*values=*/false);
    lines = rs.unique_lines();
  }
  const std::uint32_t valid = store_.page_records(0);
  // Single-threaded sample walk (shared across threads, Section V-A).
  const TimeNs read_ns = static_cast<double>(lines) * hcfg_.line_random_ns +
                         static_cast<double>(hits) * hcfg_.cpu_ns_per_sample;
  meter_line_reads(lines);
  host_phase(read_ns, slot);

  stats_.sampled_subgroups = counts.size();
  selectivity_est_ = valid > 0 ? static_cast<double>(hits) / valid : 0.0;

  for (ResultRow& row : counts.rows()) {
    const double mass = hits > 0 ? static_cast<double>(row.agg) / hits : 0.0;
    candidates_.push_back({std::move(row.group), mass, true});
  }
  return counts;
}

// ---------------------------------------------------------------------------
// Candidate enumeration ("total subgroups", Table II)
// ---------------------------------------------------------------------------

void Execution::build_candidates(const TupleIndex& sampled) {
  // Candidate values per group attribute: distinct values consistent with
  // the query's own predicates on that attribute.
  std::vector<std::vector<std::uint64_t>> domains;
  candidates_complete_ = true;
  double product = 1.0;
  for (const std::size_t attr : q_.group_by) {
    const auto& dv = store_.distinct_values(attr);
    if (!dv) {
      candidates_complete_ = false;
      break;
    }
    // Per-predicate state hoisted out of the value loop: the co-occurrence
    // lookup is a cache-map access and used to run once per (value,
    // predicate) — the dominant cost of candidate enumeration for
    // high-cardinality group attributes.
    struct PredDomain {
      const sql::BoundPredicate* p;
      /// Co-occurring values per candidate value; null when the predicate
      /// is on `attr` itself or no co-occurrence stats exist.
      const std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>* co;
    };
    std::vector<PredDomain> preds;
    for (const sql::BoundPredicate& p : q_.filters) {
      if (p.kind == sql::BoundPredicate::Kind::kAlways) continue;
      // Predicates on co-occurring attributes constrain the candidate
      // domain too (e.g. p_category = 'MFGR#12' leaves only that
      // category's brands; d_yearmonth = 'Dec1997' leaves d_year = 1997 —
      // Table II's "subgroups according to query and database details").
      preds.push_back(
          {&p, p.attr == attr ? nullptr : store_.co_occurrence(attr, p.attr)});
    }
    std::vector<std::uint64_t> vals;
    for (const std::uint64_t v : *dv) {
      bool ok = true;
      for (const PredDomain& pd : preds) {
        const sql::BoundPredicate& p = *pd.p;
        if (p.attr == attr) {
          if (!p.matches(v)) {
            ok = false;
            break;
          }
          continue;
        }
        if (pd.co != nullptr) {
          const auto dep = pd.co->find(v);
          if (dep != pd.co->end()) {
            bool any = false;
            for (const std::uint64_t w : dep->second) {
              if (p.matches(w)) {
                any = true;
                break;
              }
            }
            if (!any) {
              ok = false;
              break;
            }
          }
        }
      }
      if (ok) vals.push_back(v);
    }
    product *= static_cast<double>(vals.size());
    domains.push_back(std::move(vals));
  }

  if (candidates_complete_ && product <= static_cast<double>(kCandidateCap)) {
    stats_.total_subgroups = static_cast<std::size_t>(product);
    // Enumerate the cartesian product; merge with sampled candidates.
    GroupKey key(domains.size(), 0);
    std::vector<std::size_t> idx(domains.size(), 0);
    const std::size_t total = stats_.total_subgroups;
    for (std::size_t count = 0; count < total; ++count) {
      for (std::size_t d = 0; d < domains.size(); ++d) key[d] = domains[d][idx[d]];
      if (sampled.find(key) == TupleIndex::kAbsent) {
        candidates_.push_back({key});
      }
      // Odometer increment.
      for (std::size_t d = domains.size(); d-- > 0;) {
        if (++idx[d] < domains[d].size()) break;
        idx[d] = 0;
      }
    }
    // Sampled keys outside the enumerated domain (shouldn't happen: sampled
    // records satisfied the filters) are kept — harmless.
  } else {
    candidates_complete_ = false;
    stats_.total_subgroups = static_cast<std::size_t>(std::min(product, 1e18));
  }
  sort_candidates(candidates_);
}

// ---------------------------------------------------------------------------
// Phase 3: planning (Equation 3)
// ---------------------------------------------------------------------------

void Execution::plan_phase() {
  if (opts_.force_k) {
    chosen_k_ = std::min(*opts_.force_k, candidates_.size());
    return;
  }
  GroupByPlanInput in;
  in.pages = static_cast<double>(pages());
  in.n = plan_.n_chunks;
  in.s = plan_.s_chunks;
  in.selectivity_est = selectivity_est_;
  in.candidates = candidates_;
  in.candidates_complete = candidates_complete_;
  const GroupByPlan plan = choose_k(models_, in);
  chosen_k_ = plan.k;
  host_phase(hcfg_.plan_overhead_ns, &QueryPhaseBreakdown::plan);
}

// ---------------------------------------------------------------------------
// Phase 4: pim-gb
// ---------------------------------------------------------------------------

void Execution::pim_gb_phase() {
  const bool host_side_needed =
      !opts_.skip_host_gb &&
      !(candidates_complete_ && chosen_k_ == candidates_.size());
  for (std::size_t g = 0; g < chosen_k_; ++g) {
    // Per-subgroup boundary: each group is a full PIM pass.
    opts_.cancel.check();
    const auto [value, count] =
        aggregate_group(key_predicates(q_.group_by, candidates_[g].key),
                        /*update_mask=*/host_side_needed);
    if (count > 0) results_.add(candidates_[g].key, value);
  }
  stats_.pim_subgroups = chosen_k_;
}

// ---------------------------------------------------------------------------
// Phase 5: host-gb
// ---------------------------------------------------------------------------

void Execution::host_gb_phase() {
  const Slot slot = &QueryPhaseBreakdown::host_gb;

  // Residual selection R' = R AND NOT mask (mask = union of pim-gb groups).
  std::uint16_t residual = r_col_;
  bool residual_owned = false;
  if (mask_valid_) {
    // Pages every pim-gb subgroup was pruned off never wrote their mask;
    // zero it there (those subgroups provably selected nothing) so the
    // AND-NOT below reads a defined value on every active page.
    ensure_mask_zero(active_pages_);
    pim::ProgramBuilder pb(alloc(0));
    residual = pb.emit_andnot(r_col_, mask_col_);
    residual_owned = true;
    logic_phase(0, pb.take(), active_pages_, slot);
  }

  const std::vector<BitVec> bits =
      read_column_phase(0, residual, active_pages_, slot);

  const std::vector<std::size_t> walk_attrs = host_read_attrs(q_);
  const auto chunks = read_chunks(store_, cfg_, walk_attrs);
  std::size_t processed = 0;
  std::vector<std::uint32_t> page_lines(pages(), 0);

  if (!vectorized_) {
    // Scalar baseline: the seed's record-at-a-time walk (hash-set line
    // dedupe, per-record attribute reads).
    host::ReadSet rs(pages());
    for (std::size_t p = 0; p < pages(); ++p) {
      processed += walk_records(p, bits[p], chunks, rs, results_,
                                q_.agg_func != sql::AggFunc::kCount);
    }
    page_lines.assign(rs.per_page_lines().begin(), rs.per_page_lines().end());
  } else {
    // Page-parallel block walk (walk_survivor_blocks): every page folds
    // its survivors into a private GroupFold and counts its unique lines
    // word by word; the partials merge into results_ in page order (packed
    // keys are reinserted as words, never unpacked). Per-key combines are
    // exact integer ops, so the split is invisible: the merged fold — and
    // after the total-order sort, the rows — match the record-at-a-time
    // walk bit for bit.
    struct PagePartial {
      GroupFold fold;
      std::size_t processed = 0;
      std::uint32_t lines = 0;
    };
    std::vector<PagePartial> partials(
        pages(), {GroupFold(q_.agg_func, results_.index().max_codes())});
    // One block read per live word covers the group attributes, then the
    // aggregate's operands: blocks[g] for g < |group_by|, then a, then b.
    const std::size_t ngroup = q_.group_by.size();
    const bool want_values = q_.agg_func != sql::AggFunc::kCount;
    const bool have_b = q_.agg_expr.kind != sql::Expr::Kind::kColumn;
    run_jobs(active_pages_.size(), [&](std::size_t job, pim::EnergyMeter&) {
      const std::size_t p = active_pages_[job];
      PagePartial& part = partials[p];
      part.lines = walk_survivor_blocks(
          store_, p, bits[p], walk_attrs, chunks.size(),
          [&](std::size_t, std::uint64_t live,
              std::span<const pim::RowBlock> blocks) {
            for (; live != 0; live &= live - 1) {
              const int j = std::countr_zero(live);
              ++part.processed;
              std::int64_t v = 1;
              if (want_values) {
                const std::uint64_t vb = have_b ? blocks[ngroup + 1][j] : 0;
                v = static_cast<std::int64_t>(
                    q_.agg_expr.eval(blocks[ngroup][j], vb));
              }
              part.fold.add([&](std::size_t g) { return blocks[g][j]; }, v);
            }
          });
    });
    for (std::size_t p = 0; p < pages(); ++p) {
      processed += partials[p].processed;
      page_lines[p] = partials[p].lines;
      results_.merge(partials[p].fold);
    }
  }

  host_walk_phase(page_lines, processed, slot);

  if (residual_owned) alloc(0).release(residual);
}

std::size_t Execution::walk_records(std::size_t p, const BitVec& bits,
                                    const ChunkSet& chunks, host::ReadSet& rs,
                                    GroupFold& fold, bool values) const {
  std::size_t walked = 0;
  const std::uint32_t valid = store_.page_records(p);
  for (std::size_t i = bits.find_next(0); i < bits.size();
       i = bits.find_next(i + 1)) {
    if (i >= valid) break;
    ++walked;
    const std::size_t record = p * store_.records_per_page() + i;
    const pim::Page::RecordCoord c =
        store_.page(0, p).locate(static_cast<std::uint32_t>(i));
    for (const auto& [part, chunk] : chunks) {
      rs.touch(static_cast<std::uint32_t>(p), c.row,
               static_cast<std::uint32_t>(part) * cfg_.chunks_per_row() +
                   chunk);
    }
    std::int64_t v = 1;
    if (values) {
      const std::uint64_t va = store_.read_attr(record, q_.agg_expr.a);
      const std::uint64_t vb = q_.agg_expr.kind == sql::Expr::Kind::kColumn
                                   ? 0
                                   : store_.read_attr(record, q_.agg_expr.b);
      v = static_cast<std::int64_t>(q_.agg_expr.eval(va, vb));
    }
    fold.add(
        [&](std::size_t g) { return store_.read_attr(record, q_.group_by[g]); },
        v);
  }
  return walked;
}

// ---------------------------------------------------------------------------
// Phase 6: finalize
// ---------------------------------------------------------------------------

void Execution::finalize_phase() {
  rows_ = results_.rows();
  host_phase(finalize_rows(rows_, q_.order_by),
             &QueryPhaseBreakdown::finalize);
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

QueryOutput Execution::finish_query() {
  filter_finish();
  // A lone member built its aggregation passes before the filter (see
  // run_pass); in a larger pass the tail allocates them here, reusing the
  // columns released by the previous member's tail.
  if (plan_.passes.empty()) build_agg_passes();
  opts_.cancel.check();
  // Early-exit aggregation on statically empty selects: every page was
  // skipped by the zone maps, so the host knows — without one PIM request —
  // that zero records survive. The plan-semantic stats (candidates, chosen
  // k, estimates) are still produced, identically to the unpruned run; only
  // the per-subgroup and host aggregation work is dropped, and the rows
  // (none for GROUP BY, the zero aggregate otherwise) match exactly.
  const bool statically_empty = prune_ && active_pages_.empty();

  if (!q_.has_group_by()) {
    rows_.push_back(ResultRow{
        {}, statically_empty ? 0 : aggregate_group({}, false).first});
    stats_.total_subgroups = 1;  // Table II: Q1.x aggregate once, in PIM
    stats_.pim_subgroups = 1;
  } else {
    build_candidates(sample_phase().index());
    plan_phase();
    if (statically_empty) {
      stats_.pim_subgroups = chosen_k_;
    } else {
      pim_gb_phase();
      const bool pure_pim =
          candidates_complete_ && chosen_k_ == candidates_.size();
      if (!pure_pim && !opts_.skip_host_gb) {
        host_gb_phase();
      }
    }
    finalize_phase();
  }

  // Export the planner inputs for offline Equation-3 re-evaluation.
  stats_.n_chunks = plan_.n_chunks;
  stats_.s_chunks = plan_.s_chunks;
  stats_.selectivity_estimate = selectivity_est_;
  stats_.candidates_complete = candidates_complete_;
  stats_.candidate_masses.reserve(candidates_.size());
  for (const GroupCandidate& c : candidates_) {
    stats_.candidate_masses.push_back(c.est_mass);
  }

  finish_stats();

  QueryOutput out;
  out.rows = std::move(rows_);
  out.stats = stats_;
  out.data_version = store_.data_version();

  // Return held scratch to the shared allocator for the next member's tail.
  alloc(0).release(r_col_);
  if (transfer_chunk_) alloc(0).release_field(*transfer_chunk_);
  alloc(0).release_field(result_field_);
  alloc(0).release_field(count_field_);
  if (mask_valid_) alloc(0).release(mask_col_);
  return out;
}

void Execution::finish_stats() {
  stats_.total_ns = clock_.now();
  stats_.phases = clock_.phases();
  const pim::EnergyBreakdown energy = pim::energy_breakdown(meter_);
  stats_.energy_j = energy.total;
  stats_.energy_logic_j = energy.logic;
  stats_.energy_read_j = energy.read;
  stats_.energy_write_j = energy.write;
  stats_.energy_controller_j = energy.controller;
  stats_.energy_agg_circuit_j = energy.agg_circuit;
  stats_.peak_chip_w = clock_.peak_module_w() / cfg_.chips;
  stats_.wear_row_writes = store_.module().max_row_writes();
}

// ---------------------------------------------------------------------------
// The fused filter pass (stage 2; see the public section above)
// ---------------------------------------------------------------------------

void Execution::run_fused_filter(std::vector<Execution>& members) {
  struct MemberProg {
    Execution* exec;
    const pim::Program* prog;
  };
  struct Visit {
    int part;
    std::size_t page;
    std::vector<MemberProg> progs;  ///< member order
  };

  Execution& lead = members.front();
  const int parts = lead.store_.parts();
  const std::size_t pages = lead.pages();

  // Visit assembly, part-major page-ascending: a member's subsequence of
  // visits is then exactly its own page order (run_pages_ lists ascend), so
  // its meter replay and trace schedule below do not depend on batchmates.
  std::vector<Visit> visits;
  for (int part = 0; part < parts; ++part) {
    std::vector<std::vector<std::uint8_t>> member_runs(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      const Execution& e = members[m];
      if (part == 1 && e.skip_transfer_) continue;
      if (e.compiled_[part]->program.gates.empty()) continue;
      if (e.run_pages_[part].empty()) continue;
      member_runs[m].assign(pages, 0);
      for (const std::size_t p : e.run_pages_[part]) member_runs[m][p] = 1;
    }
    for (std::size_t pg = 0; pg < pages; ++pg) {
      Visit v{part, pg, {}};
      for (std::size_t m = 0; m < members.size(); ++m) {
        if (member_runs[m].empty() || !member_runs[m][pg]) continue;
        v.progs.push_back({&members[m], &members[m].compiled_[part]->program});
      }
      if (!v.progs.empty()) visits.push_back(std::move(v));
    }
  }
  if (visits.empty()) return;

  // A member cancelled before the fused pass aborts the whole pass here;
  // PimQueryEngine::execute_batch's fallback then re-runs every member as a
  // pass of its own, so batchmates still get their exact rows and stats.
  // The fused pass is a crossbar-visit seam of its own: an injected fault
  // here exercises the same fallback.
  for (const Execution& e : members) e.opts_.cancel.check();
  fault_point(FaultSeam::kCrossbarVisit);

  // Flat (visit, member) slots. Journal meters always — even single-thread —
  // so every run performs the identical per-member sequence of meter adds
  // regardless of how visits were scheduled across simulation threads.
  std::vector<std::size_t> off(visits.size() + 1, 0);
  for (std::size_t v = 0; v < visits.size(); ++v) {
    off[v + 1] = off[v] + visits[v].progs.size();
  }
  std::vector<pim::EnergyMeter> meters(off.back(),
                                       pim::EnergyMeter(/*journal=*/true));
  std::vector<pim::RequestTrace> traces(off.back());

  auto run_visit = [&](std::size_t vi) {
    const Visit& v = visits[vi];
    pim::Page& page = lead.store_.page(v.part, v.page);
    // Members run back to back within the visit — the shared-scan locality
    // win, and what makes released-temp-column reuse across members safe
    // (every program writes its temps before reading them).
    for (std::size_t i = 0; i < v.progs.size(); ++i) {
      const MemberProg& mp = v.progs[i];
      traces[off[vi] + i] =
          pim::execute_program(page, *mp.prog, lead.cfg_, &meters[off[vi] + i],
                               mp.exec->vectorized_);
    }
  };
  // Visits touch disjoint (part, page) state, so they parallelize like any
  // page loop. The pass shares one thread budget (admission only groups
  // executions with identical options).
  const unsigned threads = lead.sim_threads_;
  if (threads <= 1 || visits.size() <= 1) {
    for (std::size_t vi = 0; vi < visits.size(); ++vi) run_visit(vi);
  } else {
    parallel_for(visits.size(), threads,
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   for (std::size_t vi = begin; vi < end; ++vi) run_visit(vi);
                 });
  }

  // Demux: each slot's energy replays into its member's own meter and its
  // trace joins the member's own pending list, in visit order — a member is
  // billed for exactly its own work. A visit that served two or more
  // members counts as a fused page pass for each.
  for (std::size_t vi = 0; vi < visits.size(); ++vi) {
    const bool shared = visits[vi].progs.size() > 1;
    for (std::size_t i = 0; i < visits[vi].progs.size(); ++i) {
      Execution* e = visits[vi].progs[i].exec;
      meters[off[vi] + i].replay_into(e->meter_);
      e->pending_traces_.push_back(traces[off[vi] + i]);
      if (shared) ++e->stats_.fused_page_passes;
    }
  }
}

// ---------------------------------------------------------------------------
// Filter-only scan (join feeder)
// ---------------------------------------------------------------------------

ScanOutput Execution::finish_scan(const std::vector<std::size_t>& attrs) {
  ScanOutput out;
  out.data_version = store_.data_version();
  clock_.log_to(&out.phases);
  filter_finish();
  out.columns.resize(attrs.size());

  // Statically empty: every page refuted by the zone maps — the host knows
  // there are no survivors without a single readback.
  if (!(prune_ && active_pages_.empty())) {
    const Slot slot = &QueryPhaseBreakdown::host_gb;
    const std::vector<BitVec> bits =
        read_column_phase(0, r_col_, active_pages_, slot);

    // Count, then fill: each active page's survivor count (page order)
    // gives its offset into the output, sized once; the page-parallel
    // walk then writes every page's rows in place.
    const std::size_t chunks = read_chunks(store_, cfg_, attrs).size();
    std::vector<std::size_t> offsets(active_pages_.size() + 1, 0);
    for (std::size_t job = 0; job < active_pages_.size(); ++job) {
      const std::size_t p = active_pages_[job];
      offsets[job + 1] = offsets[job] + count_survivors(store_, p, bits[p]);
    }
    const std::size_t processed = offsets.back();
    out.row_ids.resize(processed);
    for (std::vector<std::uint64_t>& col : out.columns) col.resize(processed);
    std::vector<std::uint32_t> page_lines(pages(), 0);
    run_jobs(active_pages_.size(), [&](std::size_t job, pim::EnergyMeter&) {
      const std::size_t p = active_pages_[job];
      std::size_t at = offsets[job];
      page_lines[p] = walk_survivor_blocks(
          store_, p, bits[p], attrs, chunks,
          [&](std::size_t first, std::uint64_t live,
              std::span<const pim::RowBlock> blocks) {
            for (; live != 0; live &= live - 1, ++at) {
              const int j = std::countr_zero(live);
              out.row_ids[at] = first + j;
              for (std::size_t a = 0; a < blocks.size(); ++a) {
                out.columns[a][at] = blocks[a][j];
              }
            }
          });
    });
    host_walk_phase(page_lines, processed, slot);
  }

  finish_stats();
  out.stats = stats_;
  return out;
}

}  // namespace

// ===========================================================================
// PimQueryEngine
// ===========================================================================

PimQueryEngine::PimQueryEngine(EngineKind kind, PimStore& store,
                               host::HostConfig hcfg, LatencyModels models)
    : kind_(kind), store_(&store), hcfg_(hcfg), models_(std::move(models)) {
  if (kind == EngineKind::kTwoXb && store.parts() != 2) {
    throw std::invalid_argument("two-xb engine needs a two-part store");
  }
  if (kind != EngineKind::kTwoXb && store.parts() != 1) {
    throw std::invalid_argument("one-xb/pimdb engines need a one-part store");
  }
}

QueryOutput PimQueryEngine::execute(const sql::BoundQuery& q,
                                    const ExecOptions& opts) {
  BatchOutput out = execute_batch({{&q, opts}});
  if (out.errors[0] != nullptr) std::rethrow_exception(out.errors[0]);
  return std::move(out.outputs[0]);
}

PimQueryEngine::BatchOutput PimQueryEngine::execute_batch(
    const std::vector<BatchMember>& members) {
  BatchOutput out;
  out.outputs.resize(members.size());
  out.errors.resize(members.size());
  if (members.empty()) return out;
  try {
    // Tails run sequentially in member order: they mutate shared crossbar
    // scratch (aggregation passes) and the pass's shared allocators.
    Execution::run_pass(*this, members,
                        [&](std::size_t i, Execution& member) {
                          out.outputs[i] = member.finish_query();
                        });
    out.fused = members.size() > 1;
  } catch (...) {
    // A lone member has no batchmates: its error is its answer (there is
    // nobody to shield by falling back).
    if (members.size() == 1) {
      out.errors[0] = std::current_exception();
      return out;
    }
    // Any failure in a shared pass — a member whose aggregate the engine
    // does not support, scratch exhaustion on an oversized batch — falls
    // back to one pass per member, which reproduces each member's own
    // result or error without a batchmate in the blast radius. Leftover
    // shared-scratch garbage is harmless: programs initialize their own
    // columns, and every pass resets wear.
    for (std::size_t i = 0; i < members.size(); ++i) {
      BatchOutput one = execute_batch({members[i]});
      out.outputs[i] = std::move(one.outputs[0]);
      out.errors[i] = one.errors[0];
      if (out.errors[i] == nullptr) out.outputs[i].stats.batch_fallbacks = 1;
    }
  }
  return out;
}

ScanOutput PimQueryEngine::execute_scan(
    const std::vector<sql::BoundPredicate>& filters,
    const std::vector<std::size_t>& attrs, const ExecOptions& opts) {
  // A filters-only query shell (no aggregate): the Execution ctor orders
  // and analyzes the predicates; no aggregation plan is ever built.
  sql::BoundQuery q;
  q.filters = filters;
  q.agg_func = sql::AggFunc::kNone;
  ScanOutput out;
  Execution::run_pass(*this, {{&q, opts}},
                      [&](std::size_t, Execution& member) {
                        out = member.finish_scan(attrs);
                      });
  return out;
}

std::vector<sql::BoundPredicate> semijoin_prefix(
    const std::vector<sql::BoundPredicate>& filters,
    const std::vector<SemijoinCandidate>& candidates,
    const std::vector<std::size_t>& attrs, std::size_t probe_builds,
    const PimStore& store, const host::HostConfig& hcfg) {
  if (candidates.empty()) return filters;
  const pim::PimConfig& cfg = store.module_config();

  // Modeled readback + probe of a scan whose records survive independently
  // with probability `sel`: a page-row line (one chunk of the row's record
  // in every crossbar of the page) is read unless all those records miss,
  // and every survivor costs the walk's CPU plus one probe per build side.
  struct Cost {
    TimeNs ns = 0;
    EnergyJ j = 0;
  };
  const double chunks =
      static_cast<double>(read_chunks(store, cfg, attrs).size());
  const auto survivor_cost = [&](double sel) {
    std::vector<std::uint32_t> lines(store.pages_per_part());
    double total = 0;
    for (std::size_t p = 0; p < lines.size(); ++p) {
      const std::uint32_t n = store.page_records(p);
      const std::uint32_t full = n / cfg.crossbar_rows;  // records per row
      const std::uint32_t tail = n % cfg.crossbar_rows;  // rows with one more
      const double per_chunk =
          tail * (1 - std::pow(1 - sel, full + 1)) +
          (cfg.crossbar_rows - tail) * (1 - std::pow(1 - sel, full));
      lines[p] = static_cast<std::uint32_t>(std::lround(per_chunk * chunks));
      total += lines[p];
    }
    const double survivors = sel * static_cast<double>(store.record_count());
    return Cost{host::lines_phase_time_ns(lines, hcfg) +
                    survivors * static_cast<double>(1 + probe_builds) *
                        hcfg.cpu_ns_per_record / hcfg.threads,
                line_read_energy(total, cfg)};
  };

  // One more gate cycle of the scan's filter program on every crossbar.
  Cost per_cycle;
  for (int part = 0; part < store.parts(); ++part) {
    for (std::size_t p = 0; p < store.pages_per_part(); ++p) {
      per_cycle.j +=
          pim::logic_trace_cost(cfg, 1, store.page(part, p).crossbar_count())
              .energy_j;
    }
  }
  per_cycle.ns = cfg.logic_cycle_ns;
  // Compiled through the store's filter cache: a repeated text prices its
  // candidates and prefixes without compiling them again.
  const auto cycles = [&](const std::vector<sql::BoundPredicate>& f) {
    double n = 0;
    for (int part = 0; part < store.parts(); ++part) {
      pim::ColumnAlloc alloc = store.layout(part).make_alloc();
      n += static_cast<double>(store.filter_cache()
                                   .get_or_compile(f, part, store.layout(part),
                                                   alloc)
                                   ->program.gates.size());
    }
    return n;
  };

  // The plain scan's survivor fraction: the sketch estimates the Execution
  // orders its predicates by, taken as independent.
  std::vector<double> est;
  order_by_selectivity(filters, store, &est);
  double sel = 1;
  for (const double e : est) sel *= e;

  // Prefix search: one survivor line is skipped only when all its records
  // miss, so two candidates can pay together where neither pays alone. Each
  // prefix is priced as extra gate cycles plus the readback and probes its
  // survivors still cost; the cheapest prefix in time wins among those not
  // above the plain scan's energy. Candidates rank by survivor reduction per
  // gate cycle (-ln of the key fraction over the candidate's own extra
  // cycles): at equal gate cost the most selective comes first, and a long
  // IN list ranks behind the cheap ranges it would otherwise block. An IN
  // list emits at least one gate cycle per key, so one longer than the
  // cycles removing every survivor could buy pays in no prefix and is
  // dropped without compiling it.
  const double base_cycles = cycles(filters);
  const Cost plain = survivor_cost(sel);
  const Cost none = survivor_cost(0);
  const double max_keys =
      base_cycles + std::min((plain.ns - none.ns) / per_cycle.ns,
                             (plain.j - none.j) / per_cycle.j);
  struct Ranked {
    const SemijoinCandidate* c;
    double gain;  ///< -ln(key fraction) per extra gate cycle
  };
  std::vector<Ranked> ranked;
  for (const SemijoinCandidate& c : candidates) {
    if (static_cast<double>(c.predicate.in_values.size()) > max_keys) continue;
    std::vector<sql::BoundPredicate> one = filters;
    one.push_back(c.predicate);
    ranked.push_back({&c, -std::log(c.key_fraction) /
                              std::max(1.0, cycles(one) - base_cycles)});
  }
  std::ranges::stable_sort(ranked, std::ranges::greater{}, &Ranked::gain);
  double best_ns = plain.ns;
  std::size_t best_len = 0;
  std::vector<sql::BoundPredicate> prefix = filters;
  for (const Ranked& r : ranked) {
    prefix.push_back(r.c->predicate);
    sel *= r.c->key_fraction;
    const Cost after = survivor_cost(sel);
    const double extra = cycles(prefix) - base_cycles;
    const double ns = after.ns + extra * per_cycle.ns;
    if (ns < best_ns && after.j + extra * per_cycle.j <= plain.j) {
      best_ns = ns;
      best_len = prefix.size() - filters.size();
    }
  }
  prefix.resize(filters.size() + best_len);
  return prefix;
}

QueryStats price_concurrent_scans(std::span<const ScanOutput> scans,
                                  const host::HostConfig& hcfg,
                                  const pim::PimConfig& pim) {
  QueryStats stage;
  for (const ScanOutput& scan : scans) stage.merge(scan.stats, false);
  // A scan logs its phases in slot order and drops a phase only with the
  // rest of its slot (the two-xb AND, the read and walk of an empty scan),
  // so the i-th phase of one slot is the same phase in every scan.
  PhaseClock clock(hcfg);
  for (const Slot slot :
       {&QueryPhaseBreakdown::filter, &QueryPhaseBreakdown::transfer,
        &QueryPhaseBreakdown::host_gb}) {
    for (std::size_t nth = 0;; ++nth) {
      const ScanPhase* some = nullptr;  // one scan's instance of the phase
      std::vector<pim::RequestTrace> traces;
      std::vector<std::uint32_t> page_lines;
      std::size_t processed = 0;
      for (const ScanOutput& scan : scans) {
        std::size_t seen = 0;
        for (const ScanPhase& ph : scan.phases) {
          if (ph.slot != slot || seen++ != nth) continue;
          some = &ph;
          traces.insert(traces.end(), ph.traces.begin(), ph.traces.end());
          page_lines.insert(page_lines.end(), ph.page_lines.begin(),
                            ph.page_lines.end());
          processed += ph.processed;
        }
      }
      if (some == nullptr) break;
      if (some->walk) {
        clock.walk(page_lines, processed, slot);
      } else {
        clock.requests(traces, some->window, some->issue_gap_ns, slot);
      }
    }
  }
  stage.total_ns = clock.now();
  stage.phases = clock.phases();
  stage.peak_chip_w = clock.peak_module_w() / pim.chips;
  return stage;
}

// ---------------------------------------------------------------------------
// QueryStats spine: every rule comes from BBPIM_QUERY_STATS_FIELDS
// ---------------------------------------------------------------------------

namespace {

template <StatMerge Rule, class T>
void merge_field(T& into, const T& part, bool fact) {
  if constexpr (Rule == StatMerge::kSum) {
    into += part;
  } else if constexpr (Rule == StatMerge::kMax) {
    into = std::max(into, part);
  } else if constexpr (Rule == StatMerge::kFact) {
    if (fact) into = part;
  }
}

}  // namespace

void QueryStats::set_selected(std::size_t selected, std::size_t rows) {
  selected_records = selected;
  selectivity = rows > 0 ? static_cast<double>(selected) / rows : 0.0;
}

void QueryStats::merge(const QueryStats& part, bool fact) {
#define BBPIM_MERGE_FIELD(member, rule, cls) \
  merge_field<StatMerge::rule>(member, part.member, fact);
  BBPIM_QUERY_STATS_FIELDS(BBPIM_MERGE_FIELD)
#undef BBPIM_MERGE_FIELD
}

bool stats_equal(const QueryStats& a, const QueryStats& b,
                 std::initializer_list<StatClass> classes) {
  const auto covers = [&](StatClass c) {
    return std::ranges::find(classes, c) != classes.end();
  };
  bool equal = true;
#define BBPIM_EQUAL_FIELD(member, rule, cls) \
  equal = equal && (!covers(StatClass::cls) || a.member == b.member);
  BBPIM_QUERY_STATS_FIELDS(BBPIM_EQUAL_FIELD)
#undef BBPIM_EQUAL_FIELD
  return equal;
}

}  // namespace bbpim::engine
