// Fitting the empirical latency models (Section IV, Fig. 4).
//
// Like the paper, the models are obtained by measurement, not derivation:
// we build synthetic relations of M pages, run the executor with a forced
// GROUP-BY split, record the host-gb and pim-gb phase latencies, and fit
//   dT_host-gb/dM (r; s)  =  a(s) * sqrt(r) + b(s)          (Fig. 4b)
//   T_pim-gb (M; n)       =  slope(n) * M + const(n)        (Fig. 4c)
// with a(s), b(s), slope(n), const(n) as lookup tables over the discrete
// chunk counts s and n. The raw observations are returned so the Fig. 4
// bench can print measurement-vs-fit series.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/latency_model.hpp"
#include "host/config.hpp"
#include "pim/config.hpp"

namespace bbpim::engine {

struct FitConfig {
  std::vector<std::size_t> page_counts = {4, 8, 12, 16};
  std::vector<double> ratios = {0.005, 0.02, 0.08, 0.2, 0.4, 0.8};
  std::vector<std::uint32_t> s_values = {2, 3, 4, 5};
  std::vector<std::uint32_t> n_values = {1, 2, 3, 4};
};

struct FitObservation {
  double pages = 0;
  std::uint32_t s_or_n = 0;
  double r = 0;            ///< selectivity (host observations only)
  TimeNs measured_ns = 0;
};

struct ModelFitResult {
  LatencyModels models;
  std::vector<FitObservation> host_obs;  ///< (M, s, r) -> T_host-gb
  std::vector<FitObservation> pim_obs;   ///< (M, n)    -> T_pim-gb
};

/// Runs the measurement campaign for one engine variant.
ModelFitResult fit_latency_models(EngineKind kind, const pim::PimConfig& cfg,
                                  const host::HostConfig& hcfg,
                                  const FitConfig& fit = {});

/// Stable hash over every (pim, host, fit) field the fitted models depend
/// on. Written into model cache files (LatencyModels::save) so a cache
/// entry fitted under one configuration is never served to another; always
/// non-zero (0 is reserved for "no fingerprint").
std::uint64_t config_fingerprint(const pim::PimConfig& cfg,
                                 const host::HostConfig& hcfg,
                                 const FitConfig& fit);

}  // namespace bbpim::engine
