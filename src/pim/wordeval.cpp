#include "pim/wordeval.hpp"

#include <algorithm>
#include <span>
#include <vector>

namespace bbpim::pim {
namespace {

std::uint64_t field_max(const Field& f) {
  return f.width >= 64 ? ~0ULL : (1ULL << f.width) - 1;
}

void fill_words(std::uint64_t* dst, std::uint32_t words, std::uint64_t value) {
  std::fill(dst, dst + words, value);
}

/// Hoisted per-bit column pointers of a field (width <= 64 by Field).
struct FieldCols {
  const std::uint64_t* cols[64];
  FieldCols(const Crossbar& xb, const Field& f) {
    for (std::uint32_t i = 0; i < f.width; ++i) {
      cols[i] = xb.column_data(f.offset + i);
    }
  }
};

/// dst = (field == v), matching emit_eq_const (out-of-range -> all false).
void eval_eq(const Crossbar& xb, const Field& f, std::uint64_t v,
             std::uint64_t* dst, std::uint32_t words) {
  if (v > field_max(f)) {
    fill_words(dst, words, 0);
    return;
  }
  const FieldCols fc(xb, f);
  for (std::uint32_t w = 0; w < words; ++w) {
    std::uint64_t m = ~0ULL;
    for (std::uint32_t i = 0; i < f.width; ++i) {
      const std::uint64_t c = fc.cols[i][w];
      m &= ((v >> i) & 1ULL) ? c : ~c;
    }
    dst[w] = m;
  }
}

/// dst = (field < v), by the LSB-first recurrence emit_lt_const's NOR
/// chain computes: lt = NOT a_i OR lt where v_i = 1, NOT a_i AND lt where 0.
void eval_lt(const Crossbar& xb, const Field& f, std::uint64_t v,
             std::uint64_t* dst, std::uint32_t words) {
  if (v == 0) {
    fill_words(dst, words, 0);
    return;
  }
  if (v > field_max(f)) {
    fill_words(dst, words, ~0ULL);
    return;
  }
  const FieldCols fc(xb, f);
  for (std::uint32_t w = 0; w < words; ++w) {
    std::uint64_t lt = 0;
    for (std::uint32_t i = 0; i < f.width; ++i) {
      const std::uint64_t c = fc.cols[i][w];
      lt = ((v >> i) & 1ULL) ? ~c | lt : ~c & lt;
    }
    dst[w] = lt;
  }
}

/// dst = (field <= v), via lt(v + 1) exactly as emit_le_const.
void eval_le(const Crossbar& xb, const Field& f, std::uint64_t v,
             std::uint64_t* dst, std::uint32_t words) {
  if (v >= field_max(f)) {
    fill_words(dst, words, ~0ULL);
    return;
  }
  eval_lt(xb, f, v + 1, dst, words);
}

/// Algorithm 1 over words: field bit i <- bit i of v1 on the rows where
/// column a is set. Writes nothing unless some bit changes: the gates
/// rewrite every row of the field, but only their net effect is observable,
/// and writing clones a shared data group. The select column is re-read
/// per bit, as the gates read it, in case it aliases a field bit.
void eval_mux(Crossbar& xb, const WordOp& op, std::uint32_t words) {
  bool changed = false;
  const std::uint64_t* s = xb.column_data(op.a);
  for (std::uint32_t i = 0; i < op.f.width && !changed; ++i) {
    const std::uint64_t* v = xb.column_data(op.f.offset + i);
    const bool one = (op.v1 >> i) & 1ULL;
    for (std::uint32_t w = 0; w < words && !changed; ++w) {
      changed = (one ? s[w] & ~v[w] : s[w] & v[w]) != 0;
    }
  }
  if (!changed) return;
  for (std::uint32_t i = 0; i < op.f.width; ++i) {
    std::uint64_t* v = xb.column_data_mut(op.f.offset + i);
    s = xb.column_data(op.a);
    if ((op.v1 >> i) & 1ULL) {
      for (std::uint32_t w = 0; w < words; ++w) v[w] |= s[w];
    } else {
      for (std::uint32_t w = 0; w < words; ++w) v[w] &= ~s[w];
    }
  }
}

}  // namespace

void execute_words(Crossbar& xb, const WordProgram& prog) {
  const std::uint32_t words = xb.words_per_column();
  // Stack scratch for the common geometries (<= 4096 rows); heap fallback.
  std::uint64_t stack_scratch[64];
  std::vector<std::uint64_t> heap_scratch;
  std::uint64_t* scratch_ptr = stack_scratch;
  if (words > 64) {
    heap_scratch.resize(words);
    scratch_ptr = heap_scratch.data();
  }
  std::span<std::uint64_t> scratch(scratch_ptr, words);
  for (const WordOp& op : prog) {
    std::uint64_t* out =
        op.kind == WordOp::Kind::kMux ? nullptr : xb.column_data_mut(op.out);
    switch (op.kind) {
      case WordOp::Kind::kConst0:
        fill_words(out, words, 0);
        break;
      case WordOp::Kind::kConst1:
        fill_words(out, words, ~0ULL);
        break;
      case WordOp::Kind::kCopy: {
        const std::uint64_t* a = xb.column_data(op.a);
        std::copy(a, a + words, out);
        break;
      }
      case WordOp::Kind::kNot: {
        const std::uint64_t* a = xb.column_data(op.a);
        for (std::uint32_t w = 0; w < words; ++w) out[w] = ~a[w];
        break;
      }
      case WordOp::Kind::kAnd: {
        const std::uint64_t* a = xb.column_data(op.a);
        const std::uint64_t* b = xb.column_data(op.b);
        for (std::uint32_t w = 0; w < words; ++w) out[w] = a[w] & b[w];
        break;
      }
      case WordOp::Kind::kOr: {
        const std::uint64_t* a = xb.column_data(op.a);
        const std::uint64_t* b = xb.column_data(op.b);
        for (std::uint32_t w = 0; w < words; ++w) out[w] = a[w] | b[w];
        break;
      }
      case WordOp::Kind::kNor: {
        const std::uint64_t* a = xb.column_data(op.a);
        const std::uint64_t* b = xb.column_data(op.b);
        for (std::uint32_t w = 0; w < words; ++w) out[w] = ~(a[w] | b[w]);
        break;
      }
      case WordOp::Kind::kAndNot: {
        const std::uint64_t* a = xb.column_data(op.a);
        const std::uint64_t* b = xb.column_data(op.b);
        for (std::uint32_t w = 0; w < words; ++w) out[w] = a[w] & ~b[w];
        break;
      }
      case WordOp::Kind::kEq:
        eval_eq(xb, op.f, op.v1, out, words);
        break;
      case WordOp::Kind::kLt:
        eval_lt(xb, op.f, op.v1, out, words);
        break;
      case WordOp::Kind::kLe:
        eval_le(xb, op.f, op.v1, out, words);
        break;
      case WordOp::Kind::kGt:
        eval_le(xb, op.f, op.v1, out, words);
        for (std::uint32_t w = 0; w < words; ++w) out[w] = ~out[w];
        break;
      case WordOp::Kind::kGe:
        eval_lt(xb, op.f, op.v1, out, words);
        for (std::uint32_t w = 0; w < words; ++w) out[w] = ~out[w];
        break;
      case WordOp::Kind::kBetween:
        // lo <= field <= hi: empty when lo > hi, as emit_between_const.
        eval_lt(xb, op.f, op.v1, out, words);
        eval_le(xb, op.f, op.v2, scratch.data(), words);
        for (std::uint32_t w = 0; w < words; ++w) {
          out[w] = ~out[w] & scratch[w];
        }
        break;
      case WordOp::Kind::kIn:
        if (op.values.empty()) {
          fill_words(out, words, 0);
        } else {
          eval_eq(xb, op.f, op.values[0], out, words);
          for (std::size_t i = 1; i < op.values.size(); ++i) {
            eval_eq(xb, op.f, op.values[i], scratch.data(), words);
            for (std::uint32_t w = 0; w < words; ++w) out[w] |= scratch[w];
          }
        }
        break;
      case WordOp::Kind::kMux:
        eval_mux(xb, op, words);
        break;
    }
  }
}

}  // namespace bbpim::pim
