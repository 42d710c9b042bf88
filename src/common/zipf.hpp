// Zipf-distributed sampling over a finite domain.
//
// Used by the SSB data generator to produce skewed GROUP-BY subgroup sizes
// (Rabl et al., "Variations of the Star Schema Benchmark to Test the Effects
// of Data Skew on Query Performance", ICPE'13). README, "Deviations from the
// paper", says how rank interleaving keeps coarse selectivities uniform
// while leaf subgroups skew.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace bbpim {

/// Samples ranks in [0, n) with probability proportional to 1/(rank+1)^theta.
///
/// theta = 0 degenerates to uniform; theta around 0.5-1.0 matches the skew
/// levels studied by Rabl et al. The CDF is precomputed, sampling is a binary
/// search (O(log n)).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double theta);

  /// Draws one rank in [0, n).
  std::size_t sample(Rng& rng) const;

  /// Probability mass of a given rank.
  double mass(std::size_t rank) const;

  double theta() const { return theta_; }

 private:
  double theta_ = 0.0;
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i)
};

}  // namespace bbpim
