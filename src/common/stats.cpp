#include "common/stats.hpp"

#include <cmath>
#include <stdexcept>

namespace bbpim {

double geomean_ratio(std::span<const double> numer,
                     std::span<const double> denom) {
  if (numer.size() != denom.size() || numer.empty()) {
    throw std::invalid_argument("geomean_ratio: size mismatch");
  }
  double log_sum = 0.0;
  for (std::size_t i = 0; i < numer.size(); ++i) {
    if (numer[i] <= 0.0 || denom[i] <= 0.0) {
      throw std::invalid_argument("geomean_ratio: non-positive value");
    }
    log_sum += std::log(numer[i] / denom[i]);
  }
  return std::exp(log_sum / static_cast<double>(numer.size()));
}

}  // namespace bbpim
