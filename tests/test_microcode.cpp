// Property tests for the NOR-only micro-program builders.
//
// Every predicate builder and the Algorithm-1 MUX are checked bit-exactly
// against scalar semantics on randomized crossbar contents, across a sweep
// of field widths; the range comparators also against every constant of
// widths up to 8, with their gate cycles pinned. Scratch-column hygiene (no
// leaks, no double releases) is asserted after every program. Every
// emitter's recorded word-level twin is checked against its gates, and the
// twin MUX against the copy-on-write rule of a shared data segment.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "pim/crossbar.hpp"
#include "pim/microcode.hpp"
#include "pim/wordeval.hpp"

namespace bbpim::pim {
namespace {

constexpr std::uint32_t kRows = 128;
constexpr std::uint32_t kCols = 256;
constexpr std::uint16_t kScratchBegin = 128;

std::uint64_t field_mask(std::uint16_t width) {
  return width >= 64 ? ~0ULL : (1ULL << width) - 1;
}

/// One outermost emit_* call; returns its result column (the target column
/// for the emitters that write a data column in place).
using Emission = std::function<std::uint16_t(ProgramBuilder&)>;

class MicrocodeFixture {
 public:
  MicrocodeFixture() : xb_(kRows, kCols), alloc_(kScratchBegin, kCols) {}

  /// Fills a field with random values; returns the per-row values.
  std::vector<std::uint64_t> fill(const Field& f, Rng& rng) {
    std::vector<std::uint64_t> vals(kRows);
    for (std::uint32_t r = 0; r < kRows; ++r) {
      vals[r] = rng.next_u64() & field_mask(f.width);
      xb_.write_row_bits(r, f.offset, f.width, vals[r]);
    }
    return vals;
  }

  /// Runs a built program and checks the result column against a predicate.
  void check_column(ProgramBuilder& pb, std::uint16_t result_col,
                    const std::vector<bool>& expected) {
    xb_.execute(pb.program().gates);
    for (std::uint32_t r = 0; r < kRows; ++r) {
      ASSERT_EQ(xb_.bit(r, result_col), expected[r]) << "row " << r;
    }
  }

  Crossbar xb_;
  ColumnAlloc alloc_;
};

// ---------------------------------------------------------------------------
// ColumnAlloc
// ---------------------------------------------------------------------------

TEST(ColumnAlloc, AllocReleaseCycle) {
  ColumnAlloc alloc(10, 20);
  EXPECT_EQ(alloc.available(), 10u);
  const std::uint16_t a = alloc.alloc();
  const std::uint16_t b = alloc.alloc();
  EXPECT_NE(a, b);
  EXPECT_EQ(alloc.available(), 8u);
  alloc.release(a);
  EXPECT_EQ(alloc.available(), 9u);
  EXPECT_THROW(alloc.release(a), std::logic_error);   // double release
  EXPECT_THROW(alloc.release(5), std::out_of_range);  // not scratch
}

TEST(ColumnAlloc, ExhaustionThrows) {
  ColumnAlloc alloc(0, 2);
  alloc.alloc();
  alloc.alloc();
  EXPECT_THROW(alloc.alloc(), std::runtime_error);
}

TEST(ColumnAlloc, ContiguousFieldAllocation) {
  ColumnAlloc alloc(0, 16);
  const Field f = alloc.alloc_field(8);
  EXPECT_EQ(f.width, 8u);
  EXPECT_EQ(alloc.available(), 8u);
  alloc.release_field(f);
  EXPECT_EQ(alloc.available(), 16u);
  EXPECT_THROW(alloc.alloc_field(17), std::runtime_error);
}

TEST(ColumnAlloc, AlignedChunk) {
  ColumnAlloc alloc(5, 64);
  const Field c = alloc.alloc_aligned_chunk(16);
  EXPECT_EQ(c.offset % 16, 0u);
  EXPECT_EQ(c.width, 16u);
  EXPECT_GE(c.offset, 5u);
  alloc.release_field(c);
}

// ---------------------------------------------------------------------------
// Gate-level truth tables
// ---------------------------------------------------------------------------

TEST(Gates, TruthTables) {
  MicrocodeFixture fx;
  // Columns 0 and 1 carry all four input combinations across rows.
  for (std::uint32_t r = 0; r < kRows; ++r) {
    fx.xb_.set_bit(r, 0, (r & 1) != 0);
    fx.xb_.set_bit(r, 1, (r & 2) != 0);
  }
  ProgramBuilder pb(fx.alloc_);
  const std::uint16_t c_and = pb.emit_and(0, 1);
  const std::uint16_t c_or = pb.emit_or(0, 1);
  const std::uint16_t c_andnot = pb.emit_andnot(0, 1);
  const std::uint16_t c_not = pb.emit_not(0);
  const std::uint16_t c_copy = pb.emit_copy(1);
  fx.xb_.execute(pb.program().gates);
  for (std::uint32_t r = 0; r < kRows; ++r) {
    const bool a = (r & 1) != 0;
    const bool b = (r & 2) != 0;
    EXPECT_EQ(fx.xb_.bit(r, c_and), a && b);
    EXPECT_EQ(fx.xb_.bit(r, c_or), a || b);
    EXPECT_EQ(fx.xb_.bit(r, c_andnot), a && !b);
    EXPECT_EQ(fx.xb_.bit(r, c_not), !a);
    EXPECT_EQ(fx.xb_.bit(r, c_copy), b);
  }
  for (std::uint16_t c : {c_and, c_or, c_andnot, c_not, c_copy}) {
    pb.release(c);
  }
  EXPECT_EQ(fx.alloc_.available(), kCols - kScratchBegin);  // no leaks
}

TEST(Gates, CopyIntoOverwrites) {
  MicrocodeFixture fx;
  for (std::uint32_t r = 0; r < kRows; ++r) {
    fx.xb_.set_bit(r, 0, r % 3 == 0);
    fx.xb_.set_bit(r, 2, true);
  }
  ProgramBuilder pb(fx.alloc_);
  pb.emit_copy_into(0, 2);
  fx.xb_.execute(pb.program().gates);
  for (std::uint32_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(fx.xb_.bit(r, 2), r % 3 == 0);
  }
}

// ---------------------------------------------------------------------------
// Predicates: parameterized over field width
// ---------------------------------------------------------------------------

class PredicateWidth : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(PredicateWidth, AllComparisonsMatchScalar) {
  const std::uint16_t width = GetParam();
  Rng rng(1000 + width);
  MicrocodeFixture fx;
  const Field f{10, width};
  const std::vector<std::uint64_t> vals = fx.fill(f, rng);
  const std::size_t scratch_total = fx.alloc_.available();

  // Probe constants: edge values and random draws.
  std::vector<std::uint64_t> consts = {0, 1, field_mask(width),
                                       field_mask(width) / 2};
  for (int i = 0; i < 4; ++i) consts.push_back(rng.next_u64() & field_mask(width));

  for (const std::uint64_t c : consts) {
    struct Case {
      const char* name;
      std::uint16_t col;
      std::function<bool(std::uint64_t)> pred;
    };
    ProgramBuilder pb(fx.alloc_);
    std::vector<Case> cases;
    cases.push_back({"eq", pb.emit_eq_const(f, c),
                     [c](std::uint64_t v) { return v == c; }});
    cases.push_back({"lt", pb.emit_lt_const(f, c),
                     [c](std::uint64_t v) { return v < c; }});
    cases.push_back({"le", pb.emit_le_const(f, c),
                     [c](std::uint64_t v) { return v <= c; }});
    cases.push_back({"gt", pb.emit_gt_const(f, c),
                     [c](std::uint64_t v) { return v > c; }});
    cases.push_back({"ge", pb.emit_ge_const(f, c),
                     [c](std::uint64_t v) { return v >= c; }});
    fx.xb_.execute(pb.program().gates);
    for (const Case& tc : cases) {
      for (std::uint32_t r = 0; r < kRows; ++r) {
        ASSERT_EQ(fx.xb_.bit(r, tc.col), tc.pred(vals[r]))
            << tc.name << " width=" << width << " const=" << c << " row=" << r
            << " value=" << vals[r];
      }
      pb.release(tc.col);
    }
    EXPECT_EQ(fx.alloc_.available(), scratch_total) << "scratch leak";
  }
}

TEST_P(PredicateWidth, BetweenMatchesScalar) {
  const std::uint16_t width = GetParam();
  Rng rng(2000 + width);
  MicrocodeFixture fx;
  const Field f{0, width};
  const std::vector<std::uint64_t> vals = fx.fill(f, rng);
  const std::size_t scratch_total = fx.alloc_.available();

  for (int i = 0; i < 6; ++i) {
    std::uint64_t lo = rng.next_u64() & field_mask(width);
    std::uint64_t hi = rng.next_u64() & field_mask(width);
    if (i == 0) lo = 0;
    if (i == 1) hi = field_mask(width);
    if (i == 2) std::swap(lo, hi);  // possibly-empty range
    ProgramBuilder pb(fx.alloc_);
    const std::uint16_t col = pb.emit_between_const(f, lo, hi);
    fx.xb_.execute(pb.program().gates);
    for (std::uint32_t r = 0; r < kRows; ++r) {
      ASSERT_EQ(fx.xb_.bit(r, col), lo <= vals[r] && vals[r] <= hi)
          << "width=" << width << " lo=" << lo << " hi=" << hi;
    }
    pb.release(col);
    EXPECT_EQ(fx.alloc_.available(), scratch_total);
  }
}

TEST_P(PredicateWidth, InSetMatchesScalar) {
  const std::uint16_t width = GetParam();
  Rng rng(3000 + width);
  MicrocodeFixture fx;
  const Field f{32, width};
  const std::vector<std::uint64_t> vals = fx.fill(f, rng);

  std::vector<std::uint64_t> set;
  for (int i = 0; i < 5; ++i) set.push_back(rng.next_u64() & field_mask(width));
  set.push_back(vals[0]);  // guarantee at least one hit

  ProgramBuilder pb(fx.alloc_);
  const std::uint16_t col = pb.emit_in_set(f, set);
  fx.xb_.execute(pb.program().gates);
  for (std::uint32_t r = 0; r < kRows; ++r) {
    const bool expected =
        std::find(set.begin(), set.end(), vals[r]) != set.end();
    ASSERT_EQ(fx.xb_.bit(r, col), expected);
  }
  pb.release(col);

  ProgramBuilder pb2(fx.alloc_);
  const std::uint16_t empty = pb2.emit_in_set(f, {});
  fx.xb_.execute(pb2.program().gates);
  for (std::uint32_t r = 0; r < kRows; ++r) EXPECT_FALSE(fx.xb_.bit(r, empty));
  pb2.release(empty);
}

INSTANTIATE_TEST_SUITE_P(Widths, PredicateWidth,
                         ::testing::Values<std::uint16_t>(1, 2, 3, 5, 8, 11,
                                                          16, 20, 24, 33));

TEST(Predicates, OutOfDomainConstants) {
  MicrocodeFixture fx;
  Rng rng(4);
  const Field f{0, 8};
  fx.fill(f, rng);
  ProgramBuilder pb(fx.alloc_);
  const std::uint16_t eq = pb.emit_eq_const(f, 300);   // > 255: never
  const std::uint16_t lt = pb.emit_lt_const(f, 300);   // always
  const std::uint16_t ge = pb.emit_ge_const(f, 300);   // never
  fx.xb_.execute(pb.program().gates);
  for (std::uint32_t r = 0; r < kRows; ++r) {
    EXPECT_FALSE(fx.xb_.bit(r, eq));
    EXPECT_TRUE(fx.xb_.bit(r, lt));
    EXPECT_FALSE(fx.xb_.bit(r, ge));
  }
  pb.release(eq);
  pb.release(lt);
  pb.release(ge);
}

// ---------------------------------------------------------------------------
// Range comparators: every constant of small widths, and their cycle counts
// ---------------------------------------------------------------------------

/// A field whose rows hold every value of its width (row r holds r mod 2^w),
/// so a predicate's result column is its whole truth table.
class AllValues {
 public:
  static constexpr std::uint32_t kAllRows = 256;  // 2^8

  explicit AllValues(std::uint16_t width)
      : f_{0, width}, xb_(kAllRows, kCols) {
    for (std::uint32_t r = 0; r < kAllRows; ++r) {
      xb_.write_row_bits(r, 0, width, r & field_mask(width));
    }
  }

  /// Runs one emission through the gates and through its twin and checks
  /// both against `pred` on every value, and that no scratch column leaks.
  void check(const Emission& emit,
             const std::function<bool(std::uint64_t)>& pred,
             const std::string& what) {
    ColumnAlloc alloc(kScratchBegin, kCols);
    ProgramBuilder pb(alloc);
    const std::uint16_t col = emit(pb);
    Crossbar gates = xb_;
    Crossbar words = xb_;
    gates.execute(pb.program().gates);
    execute_words(words, pb.program().words);
    for (std::uint32_t v = 0; v <= field_mask(f_.width); ++v) {
      ASSERT_EQ(gates.bit(v, col), pred(v)) << what << " gates value " << v;
      ASSERT_EQ(words.bit(v, col), pred(v)) << what << " twin value " << v;
    }
    pb.release(col);
    ASSERT_EQ(alloc.available(), kCols - kScratchBegin) << what << " leak";
  }

  const Field& field() const { return f_; }

 private:
  Field f_;
  Crossbar xb_;
};

TEST(Comparators, EveryConstantMatchesBoolean) {
  for (std::uint16_t width = 1; width <= 8; ++width) {
    AllValues all(width);
    const Field f = all.field();
    // Every constant, plus the first one outside the domain.
    for (std::uint64_t c = 0; c <= field_mask(width) + 1; ++c) {
      const std::string at =
          " width " + std::to_string(width) + " const " + std::to_string(c);
      all.check([&](ProgramBuilder& pb) { return pb.emit_lt_const(f, c); },
                [c](std::uint64_t v) { return v < c; }, "lt" + at);
      all.check([&](ProgramBuilder& pb) { return pb.emit_le_const(f, c); },
                [c](std::uint64_t v) { return v <= c; }, "le" + at);
      all.check([&](ProgramBuilder& pb) { return pb.emit_gt_const(f, c); },
                [c](std::uint64_t v) { return v > c; }, "gt" + at);
      all.check([&](ProgramBuilder& pb) { return pb.emit_ge_const(f, c); },
                [c](std::uint64_t v) { return v >= c; }, "ge" + at);
    }
  }
}

TEST(Comparators, EveryBetweenMatchesBoolean) {
  for (std::uint16_t width = 1; width <= 6; ++width) {
    AllValues all(width);
    const Field f = all.field();
    for (std::uint64_t lo = 0; lo <= field_mask(width); ++lo) {
      for (std::uint64_t hi = 0; hi <= field_mask(width); ++hi) {
        all.check(
            [&](ProgramBuilder& pb) { return pb.emit_between_const(f, lo, hi); },
            [lo, hi](std::uint64_t v) { return lo <= v && v <= hi; },
            "between width " + std::to_string(width) + " [" +
                std::to_string(lo) + "," + std::to_string(hi) + "]");
      }
    }
  }
}

/// Gate cycles of one emission on a fresh builder (one micro-op per cycle).
std::size_t cycles_of(const Emission& emit) {
  ColumnAlloc alloc(kScratchBegin, kCols);
  ProgramBuilder pb(alloc);
  emit(pb);
  return pb.program().gates.size();
}

TEST(ComparatorCycles, SixPerBitAboveLowestSetBitPlusFour) {
  for (std::uint16_t width = 1; width <= 12; ++width) {
    const Field f{0, width};
    // lt/ge chain over c, le/gt over c + 1; an in-domain chain constant k
    // costs at most 6 cycles per bit above its lowest set bit, plus 4.
    const auto bound = [&](std::uint64_t k) -> std::size_t {
      if (k == 0 || k > field_mask(width)) return 1;  // a constant column
      return 6 * (width - 1 - std::countr_zero(k)) + 4;
    };
    for (std::uint64_t c = 0; c <= field_mask(width); ++c) {
      const std::tuple<const char*, Emission, std::uint64_t> cases[] = {
          {"lt", [&](ProgramBuilder& pb) { return pb.emit_lt_const(f, c); }, c},
          {"ge", [&](ProgramBuilder& pb) { return pb.emit_ge_const(f, c); }, c},
          {"le", [&](ProgramBuilder& pb) { return pb.emit_le_const(f, c); },
           c + 1},
          {"gt", [&](ProgramBuilder& pb) { return pb.emit_gt_const(f, c); },
           c + 1},
      };
      for (const auto& [name, emit, k] : cases) {
        EXPECT_LE(cycles_of(emit), bound(k))
            << name << " width " << width << " const " << c;
      }
    }
  }
}

TEST(ComparatorCycles, BetweenCostsAtMostItsHalvesPlusTwo) {
  for (std::uint16_t width = 1; width <= 8; ++width) {
    const Field f{0, width};
    for (std::uint64_t lo = 1; lo <= field_mask(width); ++lo) {
      const std::size_t ge =
          cycles_of([&](ProgramBuilder& pb) { return pb.emit_ge_const(f, lo); });
      for (std::uint64_t hi = lo; hi < field_mask(width); ++hi) {
        const std::size_t le = cycles_of(
            [&](ProgramBuilder& pb) { return pb.emit_le_const(f, hi); });
        EXPECT_LE(cycles_of([&](ProgramBuilder& pb) {
                    return pb.emit_between_const(f, lo, hi);
                  }),
                  ge + le + 2)
            << "width " << width << " [" << lo << "," << hi << "]";
      }
    }
  }
}

TEST(ComparatorCycles, SsbKeyRanges) {
  const auto between = [](std::uint16_t width, std::uint64_t lo,
                          std::uint64_t hi) {
    return cycles_of([&](ProgramBuilder& pb) {
      return pb.emit_between_const(Field{0, width}, lo, hi);
    });
  };
  EXPECT_EQ(between(12, 1283, 1357), 80u);
  EXPECT_EQ(between(12, 365, 729), 80u);
  EXPECT_EQ(between(15, 7108, 7119), 96u);
  EXPECT_EQ(between(8, 49, 87), 44u);
}

// ---------------------------------------------------------------------------
// Algorithm 1: the PIM MUX for UPDATE
// ---------------------------------------------------------------------------

TEST(MuxConst, UpdatesOnlySelectedRows) {
  MicrocodeFixture fx;
  Rng rng(99);
  const Field f{7, 13};
  const auto vals = fx.fill(f, rng);
  // Select bit: rows divisible by 3.
  for (std::uint32_t r = 0; r < kRows; ++r) fx.xb_.set_bit(r, 40, r % 3 == 0);

  const std::uint64_t new_value = 0x1234 & field_mask(13);
  ProgramBuilder pb(fx.alloc_);
  pb.emit_mux_const(f, new_value, 40);
  fx.xb_.execute(pb.program().gates);
  for (std::uint32_t r = 0; r < kRows; ++r) {
    const std::uint64_t expected = (r % 3 == 0) ? new_value : vals[r];
    ASSERT_EQ(fx.xb_.read_row_bits(r, f.offset, f.width), expected)
        << "row " << r;
  }
  EXPECT_EQ(fx.alloc_.available(), kCols - kScratchBegin);
}

TEST(MuxConst, NoSelectionIsIdentity) {
  MicrocodeFixture fx;
  Rng rng(100);
  const Field f{0, 10};
  const auto vals = fx.fill(f, rng);
  ProgramBuilder pb(fx.alloc_);
  const std::uint16_t never = pb.emit_const(false);
  pb.emit_mux_const(f, 777, never);
  fx.xb_.execute(pb.program().gates);
  for (std::uint32_t r = 0; r < kRows; ++r) {
    EXPECT_EQ(fx.xb_.read_row_bits(r, f.offset, f.width), vals[r]);
  }
  pb.release(never);
}

// ---------------------------------------------------------------------------
// Recorded twins: each emitter's WordOp has the effect of its gates
// ---------------------------------------------------------------------------

/// Random bits in every column.
void fill_all(Crossbar& xb, Rng& rng) {
  for (std::uint32_t c = 0; c < xb.cols(); ++c) {
    BitVec bits(xb.rows());
    for (auto& w : bits.words()) w = rng.next_u64();
    xb.write_column(c, bits);
  }
}

/// Runs `emit` on a fresh builder and checks that it recorded exactly one
/// WordOp, and that the gates and the twin leave the same bits in every
/// column except the call's scratch temporaries: every data column and the
/// result column.
void expect_twin_matches_gates(const Crossbar& start, const Emission& emit,
                               const std::string& what) {
  ColumnAlloc alloc(kScratchBegin, kCols);
  ProgramBuilder pb(alloc);
  const std::uint16_t result = emit(pb);
  const Program& prog = pb.program();
  ASSERT_EQ(prog.words.size(), 1u) << what;
  Crossbar gates = start;
  Crossbar words = start;
  gates.execute(prog.gates);
  execute_words(words, prog.words);
  for (std::uint32_t c = 0; c < kCols; ++c) {
    if (c >= kScratchBegin && c != result) continue;
    ASSERT_EQ(words.column(c), gates.column(c)) << what << " column " << c;
  }
}

TEST(Twin, GateEmittersMatchGates) {
  Rng rng(500);
  Crossbar start(kRows, kCols);
  fill_all(start, rng);
  const std::pair<const char*, Emission> cases[] = {
      {"not", [](ProgramBuilder& pb) { return pb.emit_not(3); }},
      {"nor", [](ProgramBuilder& pb) { return pb.emit_nor(3, 4); }},
      {"or", [](ProgramBuilder& pb) { return pb.emit_or(3, 4); }},
      {"and", [](ProgramBuilder& pb) { return pb.emit_and(3, 4); }},
      {"andnot", [](ProgramBuilder& pb) { return pb.emit_andnot(3, 4); }},
      {"same-input and", [](ProgramBuilder& pb) { return pb.emit_and(5, 5); }},
      {"const0", [](ProgramBuilder& pb) { return pb.emit_const(false); }},
      {"const1", [](ProgramBuilder& pb) { return pb.emit_const(true); }},
      {"copy", [](ProgramBuilder& pb) { return pb.emit_copy(6); }},
      {"copy_into", [](ProgramBuilder& pb) {
         pb.emit_copy_into(6, 7);
         return std::uint16_t{7};
       }},
  };
  for (const auto& [name, emit] : cases) {
    expect_twin_matches_gates(start, emit, name);
  }
}

TEST(Twin, FieldEmittersMatchGates) {
  Rng rng(501);
  Crossbar start(kRows, kCols);
  fill_all(start, rng);
  for (const std::uint16_t width : {1, 13, 64}) {
    const Field f{10, width};
    const std::uint64_t max = field_mask(width);
    // Edge values, random in-domain draws, and out-of-domain constants
    // (max + 1 wraps to 0 at width 64).
    const std::vector<std::uint64_t> consts = {
        0, 1, max / 2, max - 1, max, max + 1, ~0ULL,
        rng.next_u64() & max, rng.next_u64() & max};
    // Rows holding the extremes, so eq/in can hit.
    for (std::uint32_t r = 0; r < 8; ++r) {
      start.write_row_bits(r, f.offset, f.width, consts[r % consts.size()]);
    }
    for (const std::uint64_t c : consts) {
      const std::string at =
          " width " + std::to_string(width) + " const " + std::to_string(c);
      const std::pair<const char*, Emission> cases[] = {
          {"eq", [&](ProgramBuilder& pb) { return pb.emit_eq_const(f, c); }},
          {"lt", [&](ProgramBuilder& pb) { return pb.emit_lt_const(f, c); }},
          {"le", [&](ProgramBuilder& pb) { return pb.emit_le_const(f, c); }},
          {"gt", [&](ProgramBuilder& pb) { return pb.emit_gt_const(f, c); }},
          {"ge", [&](ProgramBuilder& pb) { return pb.emit_ge_const(f, c); }},
          {"mux", [&](ProgramBuilder& pb) {
             pb.emit_mux_const(f, c, 100);
             return f.offset;
           }},
          // The select column aliases the field's lowest bit.
          {"aliased mux", [&](ProgramBuilder& pb) {
             pb.emit_mux_const(f, c, f.offset);
             return f.offset;
           }},
      };
      for (const auto& [name, emit] : cases) {
        expect_twin_matches_gates(start, emit, name + at);
      }
      for (const std::uint64_t hi : consts) {
        expect_twin_matches_gates(
            start,
            [&](ProgramBuilder& pb) { return pb.emit_between_const(f, c, hi); },
            "between" + at + " hi " + std::to_string(hi));
      }
      const std::vector<std::uint64_t> set = {c, max / 3, ~0ULL};
      expect_twin_matches_gates(
          start, [&](ProgramBuilder& pb) { return pb.emit_in_set(f, set); },
          "in" + at);
    }
    expect_twin_matches_gates(
        start, [&](ProgramBuilder& pb) { return pb.emit_in_set(f, {}); },
        "empty in width " + std::to_string(width));
  }
}

TEST(Twin, OneWordOpPerOutermostCall) {
  ColumnAlloc alloc(kScratchBegin, kCols);
  ProgramBuilder pb(alloc);
  const Field f{0, 13};
  const std::vector<std::uint64_t> set = {3, 70, 9000};
  const std::uint16_t eq = pb.emit_eq_const(f, 77);
  const std::uint16_t in = pb.emit_in_set(f, set);
  const std::uint16_t both = pb.emit_and(eq, in);
  pb.emit_mux_const(f, 5, both);
  const Program& prog = pb.program();
  ASSERT_EQ(prog.words.size(), 4u);
  EXPECT_EQ(prog.words[0].kind, WordOp::Kind::kEq);
  EXPECT_EQ(prog.words[0].out, eq);
  EXPECT_EQ(prog.words[1].kind, WordOp::Kind::kIn);
  EXPECT_EQ(prog.words[1].values, set);
  EXPECT_EQ(prog.words[2].kind, WordOp::Kind::kAnd);
  EXPECT_EQ(prog.words[2].out, both);
  EXPECT_EQ(prog.words[3].kind, WordOp::Kind::kMux);
  EXPECT_EQ(prog.words[3].a, both);
  EXPECT_GT(prog.gates.size(), prog.words.size());
}

TEST(Twin, MuxOnSharedGroupClonesOnlyOnChange) {
  // Data [0, kScratchBegin) is shareable, in kScratchBegin / kGroupCols
  // groups; the field lies in group 0.
  Crossbar xb(kRows, kCols, kScratchBegin);
  Rng rng(502);
  fill_all(xb, rng);
  const Field f{7, 13};
  for (std::uint32_t r = 0; r < kRows; r += 4) {
    xb.write_row_bits(r, f.offset, f.width, 1234);
  }
  Crossbar other(kRows, kCols, kScratchBegin);
  other.adopt_data_groups(xb.data_groups());
  const std::uint32_t g = xb.group_of(f.offset);
  ASSERT_EQ(g, xb.group_of(f.offset + f.width - 1));
  ASSERT_TRUE(xb.group_shared(g));
  std::vector<BitVec> before;
  for (std::uint32_t c = 0; c < kScratchBegin; ++c) {
    before.push_back(xb.column(c));
  }

  // Selects exactly the rows that already hold the value: no bit changes.
  ColumnAlloc alloc(kScratchBegin, kCols);
  {
    ProgramBuilder pb(alloc);
    const std::uint16_t sel = pb.emit_eq_const(f, 1234);
    pb.emit_mux_const(f, 1234, sel);
    execute_words(xb, pb.program().words);
    pb.release(sel);
  }
  EXPECT_TRUE(xb.group_shared(g));

  // A new value for the same rows changes bits: the field's group alone is
  // cloned.
  {
    ProgramBuilder pb(alloc);
    const std::uint16_t sel = pb.emit_eq_const(f, 1234);
    pb.emit_mux_const(f, 4321, sel);
    execute_words(xb, pb.program().words);
    pb.release(sel);
  }
  EXPECT_FALSE(xb.group_shared(g));
  for (std::uint32_t h = 0; h < xb.data_group_count(); ++h) {
    if (h != g) {
      EXPECT_TRUE(xb.group_shared(h)) << "group " << h;
    }
  }
  for (std::uint32_t r = 0; r < kRows; ++r) {
    const std::uint64_t was = other.read_row_bits(r, f.offset, f.width);
    EXPECT_EQ(xb.read_row_bits(r, f.offset, f.width),
              was == 1234 ? 4321u : was)
        << "row " << r;
  }
  // The other holder keeps its old bits.
  for (std::uint32_t c = 0; c < kScratchBegin; ++c) {
    EXPECT_EQ(other.column(c), before[c]) << "column " << c;
  }
}

}  // namespace
}  // namespace bbpim::pim
