#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <stdexcept>
#include <utility>

#include "pim/endurance.hpp"

namespace perfbench {
namespace {

/// 1-based nearest rank of the q-percentile among n samples. The epsilon
/// keeps q * n from rounding up past an exact integer (0.95 * 200 is
/// 190.00000000000003 in binary floating point).
std::size_t nearest_rank(std::size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

double covered_by(const std::vector<Span>& spans, std::size_t i,
                  const std::vector<std::size_t>& children) {
  std::vector<std::pair<double, double>> parts;
  parts.reserve(children.size());
  for (const std::size_t c : children) {
    const double lo = std::max(spans[c].start_us, spans[i].start_us);
    const double hi = std::min(spans[c].end_us, spans[i].end_us);
    if (hi > lo) parts.emplace_back(lo, hi);
  }
  std::sort(parts.begin(), parts.end());
  double covered = 0;
  double reach = spans[i].start_us;
  for (const auto& [lo, hi] : parts) {
    const double from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return covered;
}

std::vector<std::vector<std::size_t>> children_of(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  return children;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q > 0 && q <= 1)) {
    throw std::invalid_argument("percentile: empty sample or q outside (0, 1]");
  }
  const std::size_t rank = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::size_t samples_needed(double q, std::size_t tail) {
  std::size_t n = 1;
  while (samples_beyond(n, q) < tail) ++n;
  return n;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: empty sample");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double OpCount::error_rate() const {
  return attempted == 0
             ? 0
             : static_cast<double>(failed) / static_cast<double>(attempted);
}

double lifetime_years(std::uint64_t wear_row_writes_sum, double modeled_ns_sum,
                      const bbpim::pim::PimConfig& cfg) {
  if (wear_row_writes_sum == 0 || modeled_ns_sum <= 0) return 0;
  return bbpim::pim::endurance_report(wear_row_writes_sum, modeled_ns_sum, cfg)
      .lifetime_years;
}

void Tracer::open(std::string name) {
  if (!enabled_) return;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_us = now_us();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
}

void Tracer::close() {
  if (!enabled_) return;
  spans_[open_.back()].end_us = now_us();
  open_.pop_back();
}

double child_coverage_us(const std::vector<Span>& spans, std::size_t i) {
  std::vector<std::size_t> children;
  for (std::size_t c = 0; c < spans.size(); ++c) {
    if (spans[c].parent == static_cast<std::int64_t>(i)) children.push_back(c);
  }
  return covered_by(spans, i, children);
}

double self_time_us(const std::vector<Span>& spans, std::size_t i) {
  return spans[i].duration_us() - child_coverage_us(spans, i);
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const auto children = children_of(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_us += spans[i].duration_us();
    t.self_us += spans[i].duration_us() - covered_by(spans, i, children[i]);
  }
  return totals;
}

void write_spans_jsonl(const std::vector<Span>& spans, std::ostream& out) {
  const auto children = children_of(spans);
  out << std::setprecision(12);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
        << ", \"parent\": " << s.parent << ", \"self_us\": "
        << s.duration_us() - covered_by(spans, i, children[i]) << "}\n";
  }
}

}  // namespace perfbench
