// The hybrid GROUP-BY planner (Section IV).
//
// After the query filter runs, the engine samples one 2 MB page (32 K
// records) of filter survivors, estimates each subgroup's share of the
// selected records, and uses the fitted latency models to decide how many
// subgroups (k, by estimated size) to aggregate with the PIM aggregation
// circuit, leaving the rest to the host:
//
//   T_gb(k) = k * T_pim-gb(M, n)
//           + (1 - delta_{k,kmax}) * T_host-gb(M, s, r(k))     (Equation 3)
//
// where r(k) is the estimated ratio of records left for the host after the
// k largest subgroups are peeled off. Choosing k = kmax drops the host path
// entirely — including the filter-result read — which is why aggregating
// every *potential* subgroup can win even when the sample saw only a few
// (Table II: Q3.3, Q3.4).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/group_index.hpp"
#include "engine/latency_model.hpp"

namespace bbpim::engine {

/// One candidate subgroup, sampled or enumerated from attribute domains.
struct GroupCandidate {
  std::vector<std::uint64_t> key;  ///< group-attribute codes
  double est_mass = 0.0;  ///< estimated share of selected records (0 if unseen)
  bool sampled = false;
};

struct GroupByPlanInput {
  double pages = 0;          ///< M
  std::uint32_t n = 1;       ///< aggregated-value chunks per crossbar read
  std::uint32_t s = 2;       ///< chunks the host reads per record
  double selectivity_est = 0;
  /// Candidates sorted by descending estimated size (sampled first).
  std::vector<GroupCandidate> candidates;
  /// True when the candidate list covers every potential subgroup; required
  /// for the delta term (pure pim-gb) to be applicable.
  bool candidates_complete = true;
};

struct GroupByPlan {
  std::size_t k = 0;             ///< subgroups assigned to pim-gb
  TimeNs predicted_ns = 0;       ///< model prediction at the chosen k
  std::vector<TimeNs> t_of_k;    ///< full curve (diagnostics / ablation)
};

/// Sorts candidates in place (descending estimated mass, sampled before
/// unsampled, then lexicographic key for determinism).
void sort_candidates(std::vector<GroupCandidate>& candidates);

/// Evaluates Equation 3 for every k and returns the argmin.
GroupByPlan choose_k(const LatencyModels& models, const GroupByPlanInput& in);

}  // namespace bbpim::engine
