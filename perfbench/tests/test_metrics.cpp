// Tests of the benchmark's own arithmetic (metrics.hpp) and of the seeded
// workload streams. Plain checks, no framework: prints each failure and
// exits non-zero if any.
#include <cmath>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "pim/endurance.hpp"
#include "relational/dictionary.hpp"
#include "ssb/queries.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so percentile must sort
}

void percentile_rule() {
  using perfbench::percentile;
  using perfbench::samples_beyond;
  using perfbench::samples_needed;
  // Nearest rank: p50 of 1..200 is the 100th value, p95 the 190th.
  check(percentile(one_to(200), 0.50) == 100, "p50 of 1..200 is 100");
  check(percentile(one_to(200), 0.95) == 190, "p95 of 1..200 is 190");
  check(percentile(one_to(100), 0.90) == 90, "p90 of 1..100 is 90");
  check(percentile({7.0}, 0.95) == 7, "percentile of one sample");
  check(percentile(one_to(10), 1.0) == 10, "p100 is the maximum");

  // The reported tail: exactly ten samples beyond p95 at n = 200, and the
  // minimum sizes the workloads use are the smallest that keep ten.
  check(samples_beyond(200, 0.95) == 10, "200 samples leave 10 beyond p95");
  check(samples_beyond(199, 0.95) == 9, "199 samples leave 9 beyond p95");
  check(samples_needed(0.95) == 200, "p95 needs 200 samples");
  check(samples_needed(0.90) == 100, "p90 needs 100 samples");
  check(samples_needed(0.50) == 20, "p50 needs 20 samples for a tail of 10");
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const std::size_t n = samples_needed(q);
    check(samples_beyond(n, q) >= 10 && samples_beyond(n - 1, q) < 10,
          "samples_needed is minimal for q=" + std::to_string(q));
  }

  check(perfbench::median({2.0, 1.0}) == 1.5, "median of two is their mean");
  check(perfbench::median({3.0, 1.0, 2.0}) == 2, "median of three");

  bool threw = false;
  try {
    percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "percentile of no samples throws");
}

void error_accounting() {
  perfbench::OpCount ops;
  check(ops.error_rate() == 0, "no operations: error rate 0");
  for (int i = 0; i < 7; ++i) ops.record(true);
  ops.record(false);
  check(ops.attempted == 8 && ops.failed == 1, "attempted and failed counted");
  check(near(ops.error_rate(), 1.0 / 8), "error rate = failed / attempted");
  perfbench::OpCount all_bad;
  all_bad.record(false);
  check(all_bad.error_rate() == 1, "every operation failed: error rate 1");
}

void lifetime() {
  bbpim::pim::PimConfig cfg;
  const std::uint64_t wear = 123456;
  const double ns = 7.5e8;
  check(near(perfbench::lifetime_years(wear, ns, cfg),
             bbpim::pim::endurance_report(wear, ns, cfg).lifetime_years),
        "lifetime_years matches pim::endurance_report");
  // Summing wear and time over statements: doubling both keeps the rate.
  check(near(perfbench::lifetime_years(2 * wear, 2 * ns, cfg),
             perfbench::lifetime_years(wear, ns, cfg)),
        "lifetime depends on the write rate only");
  check(perfbench::lifetime_years(0, ns, cfg) == 0,
        "no writes: lifetime reported as 0 (omitted)");
  check(perfbench::lifetime_years(wear, 0, cfg) == 0,
        "no modeled time: lifetime reported as 0");
}

void span_self_time() {
  using perfbench::Span;
  // root [0, 100] with children [10, 30], [20, 50] (overlapping) and
  // [90, 120] (clipped at 100); grandchild [12, 14] under the first child.
  std::vector<Span> spans = {
      {"root", 0, 100, -1},   {"a", 10, 30, 0},  {"b", 20, 50, 0},
      {"c", 90, 120, 0},      {"a.x", 12, 14, 1},
  };
  check(near(perfbench::child_coverage_us(spans, 0), 40 + 10),
        "coverage merges overlaps and clips to the parent");
  check(near(perfbench::self_time_us(spans, 0), 50), "root self time");
  check(near(perfbench::self_time_us(spans, 1), 18), "child self time");
  check(near(perfbench::self_time_us(spans, 4), 2), "leaf self = duration");

  const auto totals = perfbench::totals_by_name(spans);
  check(totals.at("root").count == 1 && near(totals.at("root").self_us, 50),
        "totals_by_name agrees with self_time_us");

  // The recorder nests spans by open/close order; a disabled one records
  // nothing.
  perfbench::Tracer tracer(true);
  {
    perfbench::Tracer::Scope outer(tracer, "outer");
    perfbench::Tracer::Scope inner(tracer, "inner");
  }
  check(tracer.spans().size() == 2 && tracer.spans()[1].parent == 0 &&
            tracer.spans()[0].parent == -1,
        "tracer records parent links");
  check(tracer.spans()[0].end_us >= tracer.spans()[1].end_us,
        "outer span closes last");
  perfbench::Tracer off(false);
  {
    perfbench::Tracer::Scope s(off, "x");
  }
  check(off.spans().empty(), "disabled tracer records nothing");
}

void streams() {
  const auto dict = bbpim::rel::Dictionary::from_values({"A", "B", "C", "D"});
  for (const perfbench::WorkloadSpec& spec : perfbench::workloads()) {
    const auto a = perfbench::make_streams(spec, 7, 1, dict);
    const auto b = perfbench::make_streams(spec, 7, 1, dict);
    const auto c = perfbench::make_streams(spec, 8, 1, dict);
    check(a.size() == spec.clients, spec.name + ": one stream per client");
    std::size_t reads = 0, updates = 0;
    std::map<std::size_t, std::size_t> per_query_a, per_query_c;
    bool same = true, differs = false;
    for (std::size_t s = 0; s < a.size(); ++s) {
      for (std::size_t i = 0; i < a[s].size(); ++i) {
        same &= a[s][i].sql == b[s][i].sql;
        differs |= a[s][i].sql != c[s][i].sql;
        (a[s][i].is_update ? updates : reads) += 1;
        if (!a[s][i].is_update) ++per_query_a[a[s][i].query];
        if (!c[s][i].is_update) ++per_query_c[c[s][i].query];
      }
    }
    check(same, spec.name + ": same seed, same statements");
    check(differs, spec.name + ": another seed, another order");
    bool same_mix = per_query_a.size() == per_query_c.size();
    for (const auto& [q, n] : per_query_a) {
      const std::size_t other = per_query_c[q];
      same_mix &= (n > other ? n - other : other - n) <= 1;
    }
    if (spec.mix != perfbench::Mix::kHotSkewed) {
      check(same_mix, spec.name + ": seeds draw the same mix of texts, give "
                                  "or take the last round's cut");
    }
    check(reads >= perfbench::samples_needed(0.95),
          spec.name + ": enough reads for p95");
    if (spec.update_share > 0) {
      check(updates >= perfbench::samples_needed(0.90),
            spec.name + ": enough updates for p90");
    }
  }
}

}  // namespace

int main() {
  percentile_rule();
  error_accounting();
  lifetime();
  span_self_time();
  streams();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "all perfbench checks passed\n";
  return 0;
}
