// Small statistics helpers used by the benchmark harnesses
// (geometric-mean speedups are how the paper reports all headline numbers).
#pragma once

#include <span>

namespace bbpim {

/// Geometric-mean ratio of a/b element-wise (the paper's "geo-mean speedup").
/// Requires equal non-empty sizes and positive values.
double geomean_ratio(std::span<const double> numer,
                     std::span<const double> denom);

}  // namespace bbpim
