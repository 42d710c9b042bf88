// Unit tests for the common utilities: BitVec, Zipf, fitting, stats, RNG,
// and the table printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/bitvec.hpp"
#include "common/parallel.hpp"
#include "common/fit.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table_printer.hpp"
#include "common/zipf.hpp"

namespace bbpim {
namespace {

TEST(BitVec, SetGetAndPopcount) {
  BitVec bv(200);
  EXPECT_EQ(bv.size(), 200u);
  EXPECT_EQ(bv.popcount(), 0u);
  bv.set(0, true);
  bv.set(63, true);
  bv.set(64, true);
  bv.set(199, true);
  EXPECT_TRUE(bv.get(0));
  EXPECT_TRUE(bv.get(63));
  EXPECT_TRUE(bv.get(64));
  EXPECT_TRUE(bv.get(199));
  EXPECT_FALSE(bv.get(100));
  EXPECT_EQ(bv.popcount(), 4u);
  bv.set(63, false);
  EXPECT_EQ(bv.popcount(), 3u);
}

TEST(BitVec, ConstructAllOnesClearsTail) {
  BitVec bv(70, true);
  EXPECT_EQ(bv.popcount(), 70u);
  // The tail bits of the last word must not leak into popcount.
  bv.flip();
  EXPECT_EQ(bv.popcount(), 0u);
}

TEST(BitVec, LogicalOps) {
  BitVec a(130), b(130);
  a.set(1, true);
  a.set(100, true);
  b.set(100, true);
  b.set(129, true);
  BitVec and_v = a;
  and_v &= b;
  EXPECT_EQ(and_v.popcount(), 1u);
  EXPECT_TRUE(and_v.get(100));
  BitVec or_v = a;
  or_v |= b;
  EXPECT_EQ(or_v.popcount(), 3u);
  BitVec xor_v = a;
  xor_v ^= b;
  EXPECT_EQ(xor_v.popcount(), 2u);
  EXPECT_TRUE(xor_v.get(1));
  EXPECT_TRUE(xor_v.get(129));
}

TEST(BitVec, SizeMismatchThrows) {
  BitVec a(10), b(11);
  EXPECT_THROW(a &= b, std::invalid_argument);
}

TEST(BitVec, FindNext) {
  BitVec bv(300);
  bv.set(5, true);
  bv.set(64, true);
  bv.set(299, true);
  EXPECT_EQ(bv.find_next(0), 5u);
  EXPECT_EQ(bv.find_next(5), 5u);
  EXPECT_EQ(bv.find_next(6), 64u);
  EXPECT_EQ(bv.find_next(65), 299u);
  EXPECT_EQ(bv.find_next(300), 300u);
  BitVec empty(100);
  EXPECT_EQ(empty.find_next(0), 100u);
}

// The intrinsic (std::popcount / std::countr_zero) implementations work on
// whole 64-bit words; these tests pin the tail-word masking contract: bits
// of the last backing word beyond size() must never be visible.

TEST(BitVec, PopcountMasksTailWord) {
  BitVec bv(65);  // one full word + a 1-bit tail word
  bv.set(64, true);
  EXPECT_EQ(bv.popcount(), 1u);
  bv.flip();  // every tail bit of the last word would now be set if unmasked
  EXPECT_EQ(bv.popcount(), 64u);
  EXPECT_EQ(bv.words().back() & ~1ULL, 0u);
  bv.flip();
  EXPECT_EQ(bv.popcount(), 1u);

  for (const std::size_t n : {1u, 63u, 64u, 65u, 127u, 191u}) {
    BitVec all(n, true);
    EXPECT_EQ(all.popcount(), n) << "n=" << n;
    all.flip();
    EXPECT_EQ(all.popcount(), 0u) << "n=" << n;
  }
}

TEST(BitVec, FindNextHonorsTailBoundary) {
  // An all-ones vector whose tail word is partially valid: find_next must
  // step bit by bit up to size() and saturate there, never beyond.
  BitVec bv(100, true);
  EXPECT_EQ(bv.find_next(99), 99u);
  EXPECT_EQ(bv.find_next(100), 100u);
  EXPECT_EQ(bv.find_next(5000), 100u);

  // A lone bit as the last valid position of the tail word.
  BitVec lone(70);
  lone.set(69, true);
  EXPECT_EQ(lone.find_next(0), 69u);
  EXPECT_EQ(lone.find_next(69), 69u);
  EXPECT_EQ(lone.find_next(70), 70u);

  // XOR-ing all-ones into a sized vector must not create phantom tail hits.
  BitVec a(70), b(70, true);
  a ^= b;
  EXPECT_EQ(a.find_next(69), 69u);
  EXPECT_EQ(a.popcount(), 70u);
}

TEST(Parallel, ChunkBoundsPartitionExactly) {
  for (const std::size_t n : {1u, 2u, 5u, 64u, 97u, 1000u}) {
    for (const unsigned threads : {1u, 2u, 3u, 8u, 64u}) {
      const std::size_t chunks = parallel_chunks(n, threads);
      ASSERT_GE(chunks, 1u);
      ASSERT_LE(chunks, std::min<std::size_t>(n, threads));
      std::size_t expect_begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = chunk_bounds(n, chunks, c);
        EXPECT_EQ(begin, expect_begin);
        EXPECT_GT(end, begin);  // no empty chunks
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, n);
    }
  }
}

TEST(Parallel, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<int> hits(kN, 0);  // disjoint per-index slots: no atomics needed
  parallel_for(kN, 8, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(Parallel, ChunkOrderedReductionIsDeterministic) {
  // Per-chunk partials reduced in chunk order must equal the serial result,
  // at any thread count — the contract the engine's accounting relies on.
  constexpr std::size_t kN = 500;
  auto weigh = [](std::size_t i) { return 1.0 / (1.0 + static_cast<double>(i)); };
  double serial = 0;
  for (std::size_t i = 0; i < kN; ++i) serial += weigh(i);

  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::size_t chunks = parallel_chunks(kN, threads);
    std::vector<double> partial(chunks, 0.0);
    parallel_for(kN, threads,
                 [&](std::size_t c, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     partial[c] += weigh(i);
                   }
                 });
    double total = 0;
    for (const double p : partial) total += p;
    // Identical grouping would need journal replay; sums agree closely and,
    // for the per-index case the engine uses, exactly.
    EXPECT_NEAR(total, serial, 1e-12);
  }
}

TEST(Parallel, FirstExceptionPropagates) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       if (i == 37) throw std::runtime_error("boom");
                     }
                   }),
      std::runtime_error);
}

TEST(Parallel, ThreadResolution) {
  EXPECT_GE(hardware_threads(), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_EQ(resolve_threads(0), hardware_threads());
  EXPECT_EQ(parallel_chunks(10, 4), 4u);
  EXPECT_EQ(parallel_chunks(2, 8), 2u);
  EXPECT_EQ(parallel_chunks(0, 8), 0u);
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng root(9);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Zipf, MassesSumToOneAndDecrease) {
  ZipfSampler z(100, 0.8);
  double sum = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    sum += z.mass(i);
    if (i > 0) {
      EXPECT_LE(z.mass(i), z.mass(i - 1) + 1e-12);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, ThetaZeroIsUniform) {
  ZipfSampler z(10, 0.0);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(z.mass(i), 0.1, 1e-12);
}

TEST(Zipf, SamplingMatchesMasses) {
  ZipfSampler z(50, 1.0);
  Rng rng(42);
  std::vector<std::size_t> counts(50, 0);
  const std::size_t n = 200000;
  for (std::size_t i = 0; i < n; ++i) ++counts[z.sample(rng)];
  // Head rank should be close to its theoretical mass.
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, z.mass(0), 0.01);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[49]);
}

TEST(Zipf, InvalidArgsThrow) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(5, -0.1), std::invalid_argument);
}

TEST(Fit, LinearRecoversLine) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.5 * x + 2.0);
  const LinearFit f = fit_linear(xs, ys);
  EXPECT_NEAR(f.slope, 3.5, 1e-9);
  EXPECT_NEAR(f.intercept, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Fit, SqrtRecoversCurve) {
  std::vector<double> xs{0.01, 0.04, 0.16, 0.36, 0.64, 1.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(7.0 * std::sqrt(x) + 0.5);
  const SqrtFit f = fit_sqrt(xs, ys);
  EXPECT_NEAR(f.a, 7.0, 1e-9);
  EXPECT_NEAR(f.b, 0.5, 1e-9);
  EXPECT_NEAR(f.eval(0.25), 7.0 * 0.5 + 0.5, 1e-9);
}

TEST(Fit, DegenerateInputs) {
  std::vector<double> xs{1};
  std::vector<double> ys{2};
  EXPECT_THROW(fit_linear(xs, ys), std::invalid_argument);
  std::vector<double> same_x{2, 2, 2};
  std::vector<double> some_y{1, 2, 3};
  const LinearFit f = fit_linear(same_x, some_y);
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
  EXPECT_NEAR(f.intercept, 2.0, 1e-12);
}

TEST(Stats, GeomeanRatio) {
  std::vector<double> a{2.0, 8.0};
  std::vector<double> b{1.0, 2.0};
  EXPECT_NEAR(geomean_ratio(a, b), std::sqrt(8.0), 1e-12);
  std::vector<double> bad{0.0};
  EXPECT_THROW(geomean_ratio(bad, bad), std::invalid_argument);
}

TEST(TablePrinter, AlignsAndCounts) {
  TablePrinter t({"a", "long_header", "c"});
  t.add_row({"1", "x", "yy"});
  t.add_row({"22", "y"});
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_THROW(t.add_row({"1", "2", "3", "4"}), std::invalid_argument);
}

TEST(TablePrinter, Formatting) {
  EXPECT_EQ(TablePrinter::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::fmt_sci(0.00123, 1), "1.2e-03");
}

}  // namespace
}  // namespace bbpim
