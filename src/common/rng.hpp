// Deterministic pseudo-random number generation.
//
// Every stochastic component of the repository (data generation, sampling)
// uses this generator so that benchmark tables are bit-for-bit reproducible
// across runs and machines. The engine itself is deterministic.
#pragma once

#include <cstdint>

namespace bbpim {

/// SplitMix64: tiny, fast, high-quality 64-bit generator. Used directly and
/// to seed derived streams. Reference: Steele, Lea, Flood (OOPSLA'14).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    // Multiply-shift rejection-free mapping (Lemire); bias is < 2^-64 * bound
    // which is negligible for simulation purposes.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Derives an independent stream for a labeled sub-component.
  Rng fork(std::uint64_t stream_id) {
    Rng child(state_ ^ (0xa0761d6478bd642fULL * (stream_id + 1)));
    child.next_u64();
    return child;
  }

 private:
  std::uint64_t state_;
};

}  // namespace bbpim
