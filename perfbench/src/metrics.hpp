// The benchmark's own arithmetic: the percentile rule, failure accounting,
// the lifetime formula and span self-time. Kept apart from main.cpp so
// tests/test_metrics.cpp can check each rule on hand-made inputs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "pim/config.hpp"

namespace perfbench {

// --- percentiles -------------------------------------------------------------

/// Nearest-rank percentile: the sample at rank ceil(q * n) of the sorted
/// samples (1-based), i.e. the smallest sample that at least a share q of
/// all samples is less than or equal to. Throws std::invalid_argument on an
/// empty input or q outside (0, 1].
double percentile(std::vector<double> samples, double q);

/// How many of n samples rank after the q-percentile: the tail a reported
/// percentile rests on.
std::size_t samples_beyond(std::size_t n, double q);

/// Fewest samples for which the q-percentile has at least `tail` samples
/// beyond it (200 for p95, 100 for p90 with the default tail of 10).
std::size_t samples_needed(double q, std::size_t tail = 10);

double mean(const std::vector<double>& samples);  ///< 0 for no samples

/// The middle sample, or the mean of the two middle samples of an even
/// count (for a handful of samples, where a nearest rank would just pick
/// the lower one). Throws std::invalid_argument on an empty input.
double median(std::vector<double> samples);

// --- failures ----------------------------------------------------------------

/// Operations attempted and failed. A failure is a statement that raised an
/// error or returned an answer its oracle rejects.
struct OpCount {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// failed / attempted; 0 when nothing was attempted.
  double error_rate() const;
};

// --- lifetime ----------------------------------------------------------------

/// The run's modeled lifetime: pim::endurance_report(sum of worst-row writes,
/// sum of modeled ns, cfg).lifetime_years over every statement of the run.
/// 0 when the run wrote no rows (the report's "unbounded" sentinel) or took
/// no modeled time.
double lifetime_years(std::uint64_t wear_row_writes_sum, double modeled_ns_sum,
                      const bbpim::pim::PimConfig& cfg);

// --- spans -------------------------------------------------------------------

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span; -1 for a root

  double duration_us() const { return end_us - start_us; }
};

/// In-memory span recorder for one thread. Spans nest: a span opened while
/// another is open becomes its child. A disabled tracer records nothing, so
/// the same replay code runs traced and untraced.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span as a child of the innermost open span.
  void open(std::string name);
  /// Closes the innermost open span.
  void close();

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    explicit Scope(Tracer& tracer, std::string name) : tracer_(&tracer) {
      tracer_->open(std::move(name));
    }
    ~Scope() { tracer_->close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Part of span i's interval covered by its direct children, overlapping
/// children merged and each clipped to span i.
double child_coverage_us(const std::vector<Span>& spans, std::size_t i);

/// Self time: the span's duration minus its child coverage.
double self_time_us(const std::vector<Span>& spans, std::size_t i);

/// Per span name: how many spans, their summed duration and self time.
struct SpanTotals {
  std::size_t count = 0;
  double total_us = 0;
  double self_us = 0;
};
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

/// One JSON object per line: name, start_us, end_us, parent, self_us.
void write_spans_jsonl(const std::vector<Span>& spans, std::ostream& out);

}  // namespace perfbench
