// Fig. 4: empirical latency modeling (Section IV).
//
// Runs the measurement campaign on synthetic relations and prints the three
// panels: (a) T_host-gb vs page count M for (s, r) combinations,
// (b) dT_host-gb/dM vs r per s with the fitted a(s)*sqrt(r)+b(s) curve,
// (c) per-subgroup T_pim-gb vs M per n with the fitted line.
#include <iostream>
#include <map>

#include "common/fit.hpp"
#include "common/table_printer.hpp"
#include "common/units.hpp"
#include "harness.hpp"

int main() {
  using namespace bbpim;
  using engine::EngineKind;

  const host::HostConfig hcfg;
  const pim::PimConfig pim_cfg;

  std::cerr << "[fig4] running the fitting campaign (one_xb)...\n";
  const engine::ModelFitResult res = engine::fit_latency_models(
      EngineKind::kOneXb, pim_cfg, hcfg, bench::bench_fit_config());

  // --- Fig. 4a: T_host-gb vs M -------------------------------------------
  std::cout << "=== Fig. 4a: T_host-gb [ms] vs page count M (one_xb) ===\n";
  {
    std::map<std::pair<std::uint32_t, double>, std::map<double, double>> series;
    for (const auto& o : res.host_obs) {
      series[{o.s_or_n, o.r}][o.pages] = o.measured_ns;
    }
    TablePrinter t({"s", "r", "M=2", "M=4", "M=6", "M=8"});
    for (const auto& [key, points] : series) {
      std::vector<std::string> row{std::to_string(key.first),
                                   TablePrinter::fmt(key.second, 3)};
      for (const auto& [m, ns] : points) {
        row.push_back(TablePrinter::fmt(units::ns_to_ms(ns), 3));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }

  // --- Fig. 4b: slope vs r per s, with the sqrt fit -----------------------
  std::cout << "\n=== Fig. 4b: dT_host-gb/dM [ms/page] vs r, fit a(s)*sqrt(r)+b(s) ===\n";
  {
    TablePrinter t({"s", "r", "measured slope", "fitted", "a(s)", "b(s)", "R^2"});
    for (const auto& [s, fit] : res.models.host_slope) {
      // Recompute the measured slopes from the raw observations.
      std::map<double, std::pair<std::vector<double>, std::vector<double>>> by_r;
      for (const auto& o : res.host_obs) {
        if (o.s_or_n != s) continue;
        by_r[o.r].first.push_back(o.pages);
        by_r[o.r].second.push_back(o.measured_ns);
      }
      for (const auto& [r, mt] : by_r) {
        const LinearFit lf = fit_linear(mt.first, mt.second);
        t.add_row({std::to_string(s), TablePrinter::fmt(r, 3),
                   TablePrinter::fmt(units::ns_to_ms(lf.slope), 4),
                   TablePrinter::fmt(units::ns_to_ms(fit.eval(r)), 4),
                   TablePrinter::fmt(units::ns_to_ms(fit.a), 4),
                   TablePrinter::fmt(units::ns_to_ms(fit.b), 4),
                   TablePrinter::fmt(fit.r2, 3)});
      }
    }
    t.print(std::cout);
  }

  // --- Fig. 4c: T_pim-gb vs M per n ---------------------------------------
  std::cout << "\n=== Fig. 4c: per-subgroup T_pim-gb [ms] vs M, linear fit ===\n";
  {
    TablePrinter t({"n", "M", "measured", "fitted", "slope [ms/page]",
                    "intercept [ms]", "R^2"});
    for (const auto& [n, fit] : res.models.pim_gb) {
      for (const auto& o : res.pim_obs) {
        if (o.s_or_n != n) continue;
        t.add_row({std::to_string(n), TablePrinter::fmt(o.pages, 0),
                   TablePrinter::fmt(units::ns_to_ms(o.measured_ns), 4),
                   TablePrinter::fmt(units::ns_to_ms(fit.eval(o.pages)), 4),
                   TablePrinter::fmt(units::ns_to_ms(fit.slope), 5),
                   TablePrinter::fmt(units::ns_to_ms(fit.intercept), 4),
                   TablePrinter::fmt(fit.r2, 3)});
      }
    }
    t.print(std::cout);
  }

  // --- Engine-kind comparison (the paper refits for two-xb; Section V-A) --
  std::cout << "\n=== Fitted coefficients per engine kind ===\n";
  {
    TablePrinter t({"engine", "model", "key", "a / slope [ms]",
                    "b / const [ms]", "R^2"});
    for (const EngineKind kind : engine::kAllEngineKinds) {
      std::cerr << "[fig4] fitting " << engine_kind_name(kind) << "...\n";
      const engine::ModelFitResult r = engine::fit_latency_models(
          kind, pim_cfg, hcfg, bench::bench_fit_config());
      for (const auto& [s, f] : r.models.host_slope) {
        if (s != 2 && s != 4) continue;  // keep the table compact
        t.add_row({engine_kind_name(kind), "host slope(r)",
                   "s=" + std::to_string(s),
                   TablePrinter::fmt(units::ns_to_ms(f.a), 4),
                   TablePrinter::fmt(units::ns_to_ms(f.b), 4),
                   TablePrinter::fmt(f.r2, 3)});
      }
      for (const auto& [n, f] : r.models.pim_gb) {
        if (n != 1 && n != 2) continue;
        t.add_row({engine_kind_name(kind), "pim-gb T(M)",
                   "n=" + std::to_string(n),
                   TablePrinter::fmt(units::ns_to_ms(f.slope), 5),
                   TablePrinter::fmt(units::ns_to_ms(f.intercept), 4),
                   TablePrinter::fmt(f.r2, 3)});
      }
    }
    t.print(std::cout);
  }
  std::cout << "\nPaper shape checks: T_host-gb linear in M with concave "
               "slope(r); T_pim-gb linear in M, slope increasing with n; "
               "two_xb's pim-gb constant carries the inter-part transfer; "
               "pimdb's carries the bit-serial reduction.\n";
  return 0;
}
