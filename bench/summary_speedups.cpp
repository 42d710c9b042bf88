// Headline numbers: every geo-mean comparison the paper's abstract and
// conclusion quote, computed from this build's runs, side by side with the
// published values.
#include <iostream>

#include "harness.hpp"

int main() {
  using namespace bbpim;
  bench::BenchWorld world;
  const auto& runs = world.run_all();
  std::cout << "=== Headline geo-means (sf=" << world.config().scale_factor
            << ") ===\n";
  bench::print_headlines(runs, world.pim_config().crossbar_cols);
  std::cout << "\nAbsolute factors shift with the scale factor and the "
               "modeled-server constants; the directions and relative "
               "orderings are the reproduction target (see README.md, "
               "\"Deviations from the paper\").\n";
  return 0;
}
