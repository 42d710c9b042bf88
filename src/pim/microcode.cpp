#include "pim/microcode.hpp"

#include <bit>
#include <stdexcept>

namespace bbpim::pim {

// ---------------------------------------------------------------------------
// ColumnAlloc
// ---------------------------------------------------------------------------

ColumnAlloc::ColumnAlloc(std::uint16_t begin, std::uint16_t end)
    : begin_(begin), end_(end), in_use_(end > begin ? end - begin : 0, false) {
  if (end <= begin) throw std::invalid_argument("ColumnAlloc: empty region");
}

std::uint16_t ColumnAlloc::alloc() {
  for (std::size_t i = 0; i < in_use_.size(); ++i) {
    if (!in_use_[i]) {
      in_use_[i] = true;
      return static_cast<std::uint16_t>(begin_ + i);
    }
  }
  throw std::runtime_error("ColumnAlloc: scratch columns exhausted");
}

void ColumnAlloc::release(std::uint16_t col) {
  if (col < begin_ || col >= end_) {
    throw std::out_of_range("ColumnAlloc::release: not a scratch column");
  }
  if (!in_use_[col - begin_]) {
    throw std::logic_error("ColumnAlloc::release: double release");
  }
  in_use_[col - begin_] = false;
}

void ColumnAlloc::acquire(std::uint16_t col) {
  if (col < begin_ || col >= end_) {
    throw std::out_of_range("ColumnAlloc::acquire: not a scratch column");
  }
  if (in_use_[col - begin_]) {
    throw std::logic_error("ColumnAlloc::acquire: column already in use");
  }
  in_use_[col - begin_] = true;
}

std::string ColumnAlloc::state_key() const {
  std::string key;
  key.reserve(16 + in_use_.size() / 4);
  key += std::to_string(begin_);
  key += ':';
  key += std::to_string(end_);
  key += ':';
  std::uint8_t nibble = 0;
  for (std::size_t i = 0; i < in_use_.size(); ++i) {
    nibble = static_cast<std::uint8_t>((nibble << 1) | (in_use_[i] ? 1 : 0));
    if ((i & 3) == 3 || i + 1 == in_use_.size()) {
      key += "0123456789abcdef"[nibble];
      nibble = 0;
    }
  }
  return key;
}

Field ColumnAlloc::alloc_field(std::uint16_t width) {
  if (width == 0) throw std::invalid_argument("ColumnAlloc: zero-width field");
  const std::size_t n = in_use_.size();
  std::size_t run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    run = in_use_[i] ? 0 : run + 1;
    if (run == width) {
      const std::size_t start = i + 1 - width;
      for (std::size_t j = start; j <= i; ++j) in_use_[j] = true;
      return Field{static_cast<std::uint16_t>(begin_ + start), width};
    }
  }
  throw std::runtime_error("ColumnAlloc: no contiguous scratch run");
}

Field ColumnAlloc::alloc_aligned_chunk(std::uint16_t chunk_bits) {
  if (chunk_bits == 0) throw std::invalid_argument("ColumnAlloc: zero chunk");
  // First chunk boundary at or after begin_.
  std::uint16_t start = static_cast<std::uint16_t>(
      (begin_ + chunk_bits - 1) / chunk_bits * chunk_bits);
  for (; start + chunk_bits <= end_; start += chunk_bits) {
    bool free_run = true;
    for (std::uint16_t i = 0; i < chunk_bits; ++i) {
      if (in_use_[start + i - begin_]) {
        free_run = false;
        break;
      }
    }
    if (free_run) {
      for (std::uint16_t i = 0; i < chunk_bits; ++i) {
        in_use_[start + i - begin_] = true;
      }
      return Field{start, chunk_bits};
    }
  }
  throw std::runtime_error("ColumnAlloc: no aligned chunk available");
}

void ColumnAlloc::release_field(const Field& f) {
  for (std::uint16_t i = 0; i < f.width; ++i) {
    release(static_cast<std::uint16_t>(f.offset + i));
  }
}

std::size_t ColumnAlloc::available() const {
  std::size_t n = 0;
  for (bool b : in_use_) n += !b;
  return n;
}

// ---------------------------------------------------------------------------
// ProgramBuilder: gate-level helpers
// ---------------------------------------------------------------------------

std::uint16_t ProgramBuilder::twin(WordOp::Kind kind, std::uint16_t out,
                                   std::uint16_t a, std::uint16_t b,
                                   const Field& f, std::uint64_t v1,
                                   std::uint64_t v2,
                                   std::span<const std::uint64_t> values) {
  if (depth_ == 1) {
    prog_.words.push_back(
        WordOp{kind, out, a, b, f, v1, v2, {values.begin(), values.end()}});
  }
  return out;
}

std::uint16_t ProgramBuilder::fresh() {
  const std::uint16_t col = alloc_.alloc();
  prog_.gates.push_back(MicroOp::init1(col));
  return col;
}

std::uint16_t ProgramBuilder::emit_not(std::uint16_t a) {
  const Nest nest(*this);
  const std::uint16_t t = fresh();
  prog_.gates.push_back(MicroOp::not_op(a, t));
  return twin(WordOp::Kind::kNot, t, a);
}

std::uint16_t ProgramBuilder::emit_nor(std::uint16_t a, std::uint16_t b) {
  const Nest nest(*this);
  const std::uint16_t t = fresh();
  prog_.gates.push_back(MicroOp::nor_op(a, b, t));
  return twin(WordOp::Kind::kNor, t, a, b);
}

std::uint16_t ProgramBuilder::emit_or(std::uint16_t a, std::uint16_t b) {
  const Nest nest(*this);
  const std::uint16_t n = emit_nor(a, b);
  const std::uint16_t r = emit_not(n);
  release(n);
  return twin(WordOp::Kind::kOr, r, a, b);
}

std::uint16_t ProgramBuilder::emit_and(std::uint16_t a, std::uint16_t b) {
  const Nest nest(*this);
  const std::uint16_t na = emit_not(a);
  const std::uint16_t nb = emit_not(b);
  const std::uint16_t r = emit_nor(na, nb);
  release(na);
  release(nb);
  return twin(WordOp::Kind::kAnd, r, a, b);
}

std::uint16_t ProgramBuilder::emit_andnot(std::uint16_t a, std::uint16_t b) {
  const Nest nest(*this);
  // a AND NOT b == NOR(NOT a, b)
  const std::uint16_t na = emit_not(a);
  const std::uint16_t r = emit_nor(na, b);
  release(na);
  return twin(WordOp::Kind::kAndNot, r, a, b);
}

std::uint16_t ProgramBuilder::emit_const(bool value) {
  const Nest nest(*this);
  const std::uint16_t t = alloc_.alloc();
  prog_.gates.push_back(value ? MicroOp::init1(t) : MicroOp::init0(t));
  return twin(value ? WordOp::Kind::kConst1 : WordOp::Kind::kConst0, t);
}

std::uint16_t ProgramBuilder::emit_copy(std::uint16_t a) {
  const Nest nest(*this);
  const std::uint16_t n = emit_not(a);
  const std::uint16_t r = emit_not(n);
  release(n);
  return twin(WordOp::Kind::kCopy, r, a);
}

void ProgramBuilder::emit_copy_into(std::uint16_t src, std::uint16_t dst) {
  const Nest nest(*this);
  const std::uint16_t n = emit_not(src);
  prog_.gates.push_back(MicroOp::init1(dst));
  prog_.gates.push_back(MicroOp::not_op(n, dst));
  release(n);
  twin(WordOp::Kind::kCopy, dst, src);
}

// ---------------------------------------------------------------------------
// Predicates
// ---------------------------------------------------------------------------

namespace {
/// Largest value representable by a field (width <= 64).
std::uint64_t field_max(const Field& f) {
  return f.width >= 64 ? ~0ULL : (1ULL << f.width) - 1;
}
}  // namespace

std::uint16_t ProgramBuilder::emit_eq_const(const Field& f, std::uint64_t value) {
  const Nest nest(*this);
  if (f.width == 0 || f.width > 64) {
    throw std::invalid_argument("emit_eq_const: bad field width");
  }
  if (value > field_max(f)) {
    return twin(WordOp::Kind::kEq, emit_const(false), 0, 0, f, value);
  }

  // eq = NOT (OR_i mismatch_i); mismatch_i = a_i XOR c_i, which is a_i for
  // c_i = 0 and NOT a_i for c_i = 1.
  std::uint16_t acc = 0;
  bool have_acc = false;
  for (std::uint16_t i = 0; i < f.width; ++i) {
    const std::uint16_t col = static_cast<std::uint16_t>(f.offset + i);
    const bool ci = (value >> i) & 1ULL;
    std::uint16_t term = 0;
    bool term_owned = false;
    if (ci) {
      term = emit_not(col);
      term_owned = true;
    } else {
      term = col;
    }
    if (!have_acc) {
      acc = term_owned ? term : emit_copy(term);
      have_acc = true;
    } else {
      const std::uint16_t next = emit_or(acc, term);
      release(acc);
      if (term_owned) release(term);
      acc = next;
    }
  }
  const std::uint16_t r = emit_not(acc);
  release(acc);
  return twin(WordOp::Kind::kEq, r, 0, 0, f, value);
}

std::uint16_t ProgramBuilder::lt_chain(const Field& f, std::uint64_t value,
                                        bool negate) {
  if (f.width == 0 || f.width > 64) {
    throw std::invalid_argument("lt_chain: bad field width");
  }
  if (value == 0 || value > field_max(f)) {
    return emit_const((value != 0) != negate);
  }

  // LSB-first: lt_i ("the low i+1 bits are below the constant's") is
  // NOT a_i OR lt_{i-1} where c_i = 1 and NOT a_i AND lt_{i-1} where
  // c_i = 0. It is 0 below the lowest set bit k, so lt_k = NOT a_k. As NORs:
  //   c_i = 1: NOT lt_i = NOR(NOT a_i, lt_{i-1})
  //   c_i = 0:     lt_i = NOR(a_i, NOT lt_{i-1})
  // `acc` holds lt (neg false) or NOT lt (neg true) and is flipped only
  // when the next bit wants the polarity it does not hold.
  const int k = std::countr_zero(value);
  std::uint16_t acc = static_cast<std::uint16_t>(f.offset + k);
  bool neg = true;  // NOT lt_k = a_k, borrowed from the field
  bool owned = false;
  const auto set = [&](std::uint16_t next, bool next_neg) {
    if (owned) release(acc);
    acc = next;
    neg = next_neg;
    owned = true;
  };
  for (int i = k + 1; i < f.width; ++i) {
    const std::uint16_t col = static_cast<std::uint16_t>(f.offset + i);
    const bool ci = (value >> i) & 1ULL;
    if (neg == ci) set(emit_not(acc), !neg);  // c_i = 1 reads lt, 0 NOT lt
    if (ci) {
      const std::uint16_t na = emit_not(col);
      set(emit_nor(na, acc), true);
      release(na);
    } else {
      set(emit_nor(col, acc), false);
    }
  }
  if (neg != negate) {
    set(emit_not(acc), negate);
  } else if (!owned) {
    set(emit_copy(acc), neg);
  }
  return acc;
}

std::uint16_t ProgramBuilder::emit_lt_const(const Field& f, std::uint64_t value) {
  const Nest nest(*this);
  return twin(WordOp::Kind::kLt, lt_chain(f, value, false), 0, 0, f, value);
}

std::uint16_t ProgramBuilder::emit_le_const(const Field& f, std::uint64_t value) {
  const Nest nest(*this);
  const std::uint16_t r = value >= field_max(f) ? emit_const(true)
                                                 : lt_chain(f, value + 1, false);
  return twin(WordOp::Kind::kLe, r, 0, 0, f, value);
}

std::uint16_t ProgramBuilder::emit_gt_const(const Field& f, std::uint64_t value) {
  const Nest nest(*this);
  const std::uint16_t r = value >= field_max(f) ? emit_const(false)
                                                 : lt_chain(f, value + 1, true);
  return twin(WordOp::Kind::kGt, r, 0, 0, f, value);
}

std::uint16_t ProgramBuilder::emit_ge_const(const Field& f, std::uint64_t value) {
  const Nest nest(*this);
  return twin(WordOp::Kind::kGe, lt_chain(f, value, true), 0, 0, f, value);
}

std::uint16_t ProgramBuilder::emit_between_const(const Field& f,
                                                 std::uint64_t lo,
                                                 std::uint64_t hi) {
  const Nest nest(*this);
  std::uint16_t r;
  if (lo > hi) {
    r = emit_const(false);
  } else if (lo == 0) {
    r = emit_le_const(f, hi);
  } else if (hi >= field_max(f)) {
    r = emit_ge_const(f, lo);
  } else {
    // lo <= field <= hi == NOR(field < lo, field > hi)
    const std::uint16_t lt = lt_chain(f, lo, false);
    const std::uint16_t gt = lt_chain(f, hi + 1, true);
    r = emit_nor(lt, gt);
    release(lt);
    release(gt);
  }
  return twin(WordOp::Kind::kBetween, r, 0, 0, f, lo, hi);
}

std::uint16_t ProgramBuilder::emit_in_set(const Field& f,
                                          std::span<const std::uint64_t> values) {
  const Nest nest(*this);
  std::uint16_t acc;
  if (values.empty()) {
    acc = emit_const(false);
  } else {
    acc = emit_eq_const(f, values[0]);
    for (std::size_t i = 1; i < values.size(); ++i) {
      const std::uint16_t eq = emit_eq_const(f, values[i]);
      const std::uint16_t next = emit_or(acc, eq);
      release(acc);
      release(eq);
      acc = next;
    }
  }
  return twin(WordOp::Kind::kIn, acc, 0, 0, f, 0, 0, values);
}

// ---------------------------------------------------------------------------
// Algorithm 1
// ---------------------------------------------------------------------------

void ProgramBuilder::emit_mux_const(const Field& f, std::uint64_t value,
                                    std::uint16_t select_col) {
  const Nest nest(*this);
  // Algorithm 1: v_i <- v_i OR s when c_i = 1, v_i <- v_i AND NOT s otherwise.
  for (std::uint16_t i = 0; i < f.width; ++i) {
    const std::uint16_t vcol = static_cast<std::uint16_t>(f.offset + i);
    std::uint16_t t;
    if ((value >> i) & 1ULL) {
      t = emit_or(vcol, select_col);
    } else {
      t = emit_andnot(vcol, select_col);
    }
    emit_copy_into(t, vcol);
    release(t);
  }
  twin(WordOp::Kind::kMux, 0, select_col, 0, f, value);
}

}  // namespace bbpim::pim
