// Micro-program builders: predicates and the UPDATE MUX as NOR-only
// sequences.
//
// Bulk-bitwise PIM computes with MAGIC-style gates: NOR is native, NOT is a
// one-input NOR, and every gate output column must be initialized (a write
// cycle) before the gate executes. The builders below compose comparison
// predicates (=, <, <=, >, >=, BETWEEN, IN), bit-column logic and the
// paper's Algorithm 1 (PIM MUX used for UPDATE on pre-joined relations) out
// of those primitives. Emitted cycle counts are exactly what the cost model
// charges — nothing is hand-waved.
//
// Alongside the gates, the builder records each program's word-level twin:
// one WordOp per outermost emit_* call, with that call's result column and
// boolean function (pim/wordeval.hpp evaluates it 64 rows per word op).
// Nested emissions record nothing, and the scratch temporaries they use are
// never materialized by the twin — MAGIC programs initialize every gate
// output before driving it, so no later op (or program) can observe them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pim/microop.hpp"

namespace bbpim::pim {

/// A contiguous bit field within a crossbar row (attribute or scratch).
struct Field {
  std::uint16_t offset = 0;
  std::uint16_t width = 0;
};

/// The word-level meaning of one outermost ProgramBuilder emission, run
/// 64 rows per word op by pim/wordeval; out/a/b are crossbar column ids.
struct WordOp {
  enum class Kind : std::uint8_t {
    kConst0,
    kConst1,
    kCopy,     ///< out = a
    kNot,      ///< out = NOT a
    kAnd,      ///< out = a AND b
    kOr,       ///< out = a OR b
    kNor,      ///< out = NOT (a OR b)
    kAndNot,   ///< out = a AND NOT b
    kEq,       ///< out = (field == v1)
    kLt,       ///< out = (field < v1)
    kLe,       ///< out = (field <= v1)
    kGt,       ///< out = (field > v1)
    kGe,       ///< out = (field >= v1)
    kBetween,  ///< out = (v1 <= field AND field <= v2)
    kIn,       ///< out = OR_i (field == values[i])
    kMux,      ///< field = v1 on rows where column a is set (no out)
  };

  Kind kind = Kind::kConst0;
  std::uint16_t out = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  Field f{};
  std::uint64_t v1 = 0;
  std::uint64_t v2 = 0;
  std::vector<std::uint64_t> values;  ///< kIn only
};

using WordProgram = std::vector<WordOp>;

/// A gate program and its word-level twin, built together by ProgramBuilder.
/// The gates are what the cost model charges and what the scalar simulator
/// runs; the twin is what the vectorized simulator runs.
struct Program {
  MicroProgram gates;
  WordProgram words;
};

/// Free-list allocator over the scratch column region of a row layout.
class ColumnAlloc {
 public:
  /// Scratch region is [begin, end).
  ColumnAlloc(std::uint16_t begin, std::uint16_t end);

  /// Allocates one scratch column; throws std::runtime_error when exhausted.
  std::uint16_t alloc();
  /// Returns a column to the pool.
  void release(std::uint16_t col);

  /// Marks a specific column in use — replaying a cached compilation's
  /// allocator effect (the result column a memoized filter program left
  /// allocated). Throws std::logic_error when the column is already taken.
  void acquire(std::uint16_t col);

  /// Verbatim (collision-free) encoding of the current state — region
  /// bounds plus the in-use bitmap in hex. Allocation is a pure function of
  /// this state, so two allocators with equal keys hand out identical
  /// columns for identical request sequences. What the compiled-filter
  /// cache keys on: a hash collision there would replay a program compiled
  /// for a different allocator state.
  std::string state_key() const;

  /// Allocates `width` columns (not necessarily contiguous is NOT acceptable
  /// for fields read by the aggregation circuit, so this returns a contiguous
  /// run; throws when fragmentation prevents it).
  Field alloc_field(std::uint16_t width);
  void release_field(const Field& f);

  /// Allocates one full read-chunk-aligned field of `chunk_bits` columns.
  /// Host chunk-granular writes (e.g. the two-xb transfer column) clobber
  /// every cell of the chunk, so the whole chunk must be reserved.
  Field alloc_aligned_chunk(std::uint16_t chunk_bits);

  std::size_t available() const;
  std::uint16_t begin() const { return begin_; }
  std::uint16_t end() const { return end_; }

 private:
  std::uint16_t begin_;
  std::uint16_t end_;
  std::vector<bool> in_use_;  // indexed by col - begin_
};

/// Emits micro-ops into a program, managing scratch columns, and records the
/// program's word-level twin.
///
/// Methods returning a column id transfer ownership of that scratch column to
/// the caller, who must `release()` it (or hand it to another emit call that
/// documents consumption). Internal temporaries are released automatically.
class ProgramBuilder {
 public:
  /// Appends to `prefix` (gates and twin), e.g. the UPDATE's MUX after its
  /// compiled WHERE filter.
  explicit ProgramBuilder(ColumnAlloc& alloc, Program prefix = {})
      : alloc_(alloc), prog_(std::move(prefix)) {}

  // --- Gate-level helpers (each INIT1 + gate = 2 cycles) -------------------
  std::uint16_t emit_not(std::uint16_t a);
  std::uint16_t emit_nor(std::uint16_t a, std::uint16_t b);
  std::uint16_t emit_or(std::uint16_t a, std::uint16_t b);
  std::uint16_t emit_and(std::uint16_t a, std::uint16_t b);
  /// a AND (NOT b)
  std::uint16_t emit_andnot(std::uint16_t a, std::uint16_t b);
  /// Sets a column to a constant across all rows (1 cycle).
  std::uint16_t emit_const(bool value);
  /// Copies a bit column into a fresh scratch column (2 NOTs = 4 cycles).
  std::uint16_t emit_copy(std::uint16_t a);
  /// Overwrites existing column `dst` with `src` (2 NOTs through a temp).
  void emit_copy_into(std::uint16_t src, std::uint16_t dst);

  // --- Predicates over fields (unsigned immediates) -------------------------
  /// result = (field == value)
  std::uint16_t emit_eq_const(const Field& f, std::uint64_t value);
  /// result = (field < value); value may exceed field range.
  std::uint16_t emit_lt_const(const Field& f, std::uint64_t value);
  /// result = (field <= value)
  std::uint16_t emit_le_const(const Field& f, std::uint64_t value);
  /// result = (field > value)
  std::uint16_t emit_gt_const(const Field& f, std::uint64_t value);
  /// result = (field >= value)
  std::uint16_t emit_ge_const(const Field& f, std::uint64_t value);
  /// result = (lo <= field AND field <= hi)
  std::uint16_t emit_between_const(const Field& f, std::uint64_t lo,
                                   std::uint64_t hi);
  /// result = OR_i (field == values[i])
  std::uint16_t emit_in_set(const Field& f, std::span<const std::uint64_t> values);

  // --- Algorithm 1 of the paper ---------------------------------------------
  /// For all rows: field <- value where select=1, unchanged where select=0.
  /// Pure PIM (no host reads): per bit, v = v OR s (c_i=1) / v AND NOT s.
  void emit_mux_const(const Field& f, std::uint64_t value,
                      std::uint16_t select_col);

  void release(std::uint16_t col) { alloc_.release(col); }

  const Program& program() const { return prog_; }
  Program take() { return std::move(prog_); }

 private:
  /// Scopes one emit_* call: depth_ counts the nesting, so only the
  /// outermost call of a composite emission records a twin op.
  class Nest {
   public:
    explicit Nest(ProgramBuilder& pb) : pb_(pb) { ++pb_.depth_; }
    ~Nest() { --pb_.depth_; }

   private:
    ProgramBuilder& pb_;
  };

  /// Appends the twin op of an outermost emission and returns `out`; a
  /// nested emission records (and builds) nothing.
  std::uint16_t twin(WordOp::Kind kind, std::uint16_t out, std::uint16_t a = 0,
                     std::uint16_t b = 0, const Field& f = {},
                     std::uint64_t v1 = 0, std::uint64_t v2 = 0,
                     std::span<const std::uint64_t> values = {});

  /// (field < value), or its complement when `negate`: the LSB-first NOR
  /// chain under every range comparison, in the polarity its caller needs.
  std::uint16_t lt_chain(const Field& f, std::uint64_t value, bool negate);

  /// Fresh initialized-to-1 output column for a MAGIC gate.
  std::uint16_t fresh();

  ColumnAlloc& alloc_;
  Program prog_;
  int depth_ = 0;
};

}  // namespace bbpim::pim
