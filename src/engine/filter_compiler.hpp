// Compiling WHERE conjunctions into bulk-bitwise micro-programs.
//
// Each predicate lowers to the NOR-only comparison builders of
// pim/microcode.hpp; the conjunction is an AND chain ending with the
// validity bit, producing one result bit per record. For vertically
// partitioned relations the conjunction is compiled per part; the engine
// combines part results via a host transfer (Section V-A).
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/memo.hpp"
#include "engine/layout.hpp"
#include "pim/microcode.hpp"
#include "sql/logical_plan.hpp"

namespace bbpim::engine {

class PimStore;

struct CompiledFilter {
  /// The gate program (what the cost model charges) and its word-level twin.
  pim::Program program;
  /// Result bit column (stays allocated in the caller's ColumnAlloc until
  /// released).
  std::uint16_t result_col = 0;
  /// Number of this part's predicates actually compiled (kAlways excluded).
  std::size_t predicate_count = 0;
};

/// Emits into `pb` the AND of the predicates that touch attributes of
/// `layout` (others are another part's business; kAlways is skipped, kNever
/// compiles on every part). No validity is folded in. Returns the owned
/// result column, or nullopt when this part holds none of the predicates.
/// The WHERE compiler and pim-gb's subgroup match (a conjunction of kEq
/// predicates on the group key, Section IV) both lower through it.
std::optional<std::uint16_t> emit_conjunction(
    pim::ProgramBuilder& pb, const std::vector<sql::BoundPredicate>& preds,
    const RecordLayout& layout);

/// emit_conjunction as a program of its own, with validity folded in: the
/// result column evaluates to AND(predicates) AND valid. A part with no
/// predicates yields a copy of the validity column so that downstream code
/// can treat all parts uniformly.
CompiledFilter compile_filter(const std::vector<sql::BoundPredicate>& filters,
                              const RecordLayout& layout,
                              pim::ColumnAlloc& alloc);

// --- zone-map static analysis (data skipping) ------------------------------
// Evaluates a compiled predicate tree against the store's per-crossbar
// zone-map sketches (engine/zone_map.hpp) BEFORE any gate program runs, and
// classifies what each page can skip. All decisions are host-static: no PIM
// request, readback, or modeled cost is needed to make them, which is what
// keeps the pruned cost model honest.

/// Page-level classification of one WHERE conjunction against a store.
struct FilterPruneAnalysis {
  /// page_skip[p] = 1: no crossbar of page p can satisfy the conjunction —
  /// the page is skipped outright (no gate program, no modeled cost, no
  /// readback; its select column is statically empty).
  std::vector<std::uint8_t> page_skip;
  /// page_synth[p][part] = 1: every valid record of page p satisfies the
  /// part's predicate subset — the part's gate program is skipped on that
  /// page and the select column is synthesized as a copy of the validity
  /// column (all-ones over real records).
  std::vector<std::array<std::uint8_t, 2>> page_synth;

  // Effectiveness counters (surfaced through QueryStats / EXPLAIN).
  std::size_t pages_skipped = 0;
  std::size_t pages_synthesized = 0;  ///< (part, page) programs skipped
  std::size_t crossbars_skipped = 0;  ///< valid crossbars inside skipped pages
  /// (predicate, page) evaluations resolved statically by the sketches.
  std::size_t predicates_short_circuited = 0;
};

/// Runs the static analyzer over every page of the store, through the store
/// version's classification memo. Sound under the sketch over-approximation:
/// a skipped page provably selects zero records, a synthesized (part, page)
/// provably selects exactly its valid records. In the memo
/// (StoreDerived::class_memo), queries whose WHERE normalizes to the same
/// ordered predicate list — batch members sharing a filter, repeated
/// prepared-statement executions — classify each (page, predicate) pair
/// once per store version instead of once per query. On a memo hit
/// (including a wait on another caller's classification),
/// `*memo_pages_reused` (when non-null) is incremented by the
/// number of pages whose classification was reused (the per-query
/// `classification_memo_hits` stat). The returned analysis is immutable and
/// shared; it stays valid for the lifetime of the pinned snapshot (views) or
/// until the next mutation (builder stores).
std::shared_ptr<const FilterPruneAnalysis> analyze_filters_cached(
    const std::vector<sql::BoundPredicate>& filters, const PimStore& store,
    std::size_t* memo_pages_reused = nullptr);

/// The pages of `candidate_pages` (in order) where the conjunction `preds`
/// could select at least one record: some valid crossbar of the page is not
/// refuted by the sketches. Used by pim-gb to skip pages that cannot contain
/// a subgroup; analyze_filters_cached skips pages by the same rule.
std::vector<std::size_t> pages_may_match(
    const std::vector<sql::BoundPredicate>& preds, const PimStore& store,
    const std::vector<std::size_t>& candidate_pages);

/// Returns `filters` reordered most-selective-first by the sketch-estimated
/// selectivity (ties: cheaper compiled predicate first, then original
/// position — fully deterministic). AND is commutative and every predicate
/// costs the same cycles at any position, so ordering changes neither rows
/// nor modeled stats; it exists so EXPLAIN can show a meaningful evaluation
/// order and page-level classification meets the most-selective predicates
/// first. `estimates`, when given, receives the per-predicate selectivity
/// estimates aligned with the returned order.
std::vector<sql::BoundPredicate> order_by_selectivity(
    std::vector<sql::BoundPredicate> filters, const PimStore& store,
    std::vector<double>* estimates = nullptr);

/// Memo of compiled WHERE programs, keyed by the exact predicate list, the
/// part, and the scratch allocator's state key. Compiling is a pure
/// function of (predicates, layout, allocator state), so a hit returns the
/// cached program and merely replays its allocator effect (acquiring the
/// result column) — repeated prepared-statement executions skip
/// recompilation entirely. One cache lives in each PimStore; the layouts
/// the key refers to are the store's own. Single-flight and bounded at
/// kCapacity entries (overflow clears it), like every Memo; the base is
/// private so that every hit goes through the allocator replay.
class FilterCache : private Memo<std::string, CompiledFilter> {
 public:
  static constexpr std::size_t kCapacity = 512;
  using Memo::hit_count;
  using Memo::miss_count;

  FilterCache() : Memo(kCapacity) {}

  /// On miss, compiles via compile_filter (mutating `alloc` exactly as a
  /// direct call would) and caches the result; on hit, re-acquires the
  /// cached program's result column from `alloc`. Either way the returned
  /// program's result column is owned by the caller until released.
  /// `*hit` (when non-null) says which of the two this call was.
  std::shared_ptr<const CompiledFilter> get_or_compile(
      const std::vector<sql::BoundPredicate>& filters, int part,
      const RecordLayout& layout, pim::ColumnAlloc& alloc,
      bool* hit = nullptr);
};

}  // namespace bbpim::engine
