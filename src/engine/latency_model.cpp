#include "engine/latency_model.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace bbpim::engine {

const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kOneXb: return "one_xb";
    case EngineKind::kTwoXb: return "two_xb";
    case EngineKind::kPimdb: return "pimdb";
  }
  return "?";
}

namespace {

/// Nearest key in a lookup table (s and n are small discrete sets).
template <typename V>
const V& nearest(const std::map<std::uint32_t, V>& table, std::uint32_t key,
                 const char* what) {
  if (table.empty()) throw std::logic_error(std::string(what) + ": empty model");
  auto it = table.lower_bound(key);
  if (it == table.end()) return std::prev(it)->second;
  if (it->first == key || it == table.begin()) return it->second;
  const auto below = std::prev(it);
  return (key - below->first) <= (it->first - key) ? below->second : it->second;
}

}  // namespace

TimeNs LatencyModels::host_gb_ns(double pages, std::uint32_t s, double r) const {
  const SqrtFit& slope = nearest(host_slope, s, "host_gb_ns");
  if (r < 0) r = 0;
  if (r > 1) r = 1;
  return pages * slope.eval(r);
}

TimeNs LatencyModels::pim_gb_ns(double pages, std::uint32_t n) const {
  const LinearFit& fit = nearest(pim_gb, n, "pim_gb_ns");
  return fit.eval(pages);
}

void LatencyModels::save(std::ostream& os, std::uint64_t fingerprint) const {
  os.precision(17);
  if (fingerprint != 0) os << "fingerprint " << fingerprint << '\n';
  for (const auto& [s, f] : host_slope) {
    os << "host " << s << ' ' << f.a << ' ' << f.b << ' ' << f.r2 << '\n';
  }
  for (const auto& [n, f] : pim_gb) {
    os << "pim " << n << ' ' << f.slope << ' ' << f.intercept << ' ' << f.r2
       << '\n';
  }
}

LatencyModels LatencyModels::load(std::istream& is,
                                  std::uint64_t* fingerprint) {
  if (fingerprint != nullptr) *fingerprint = 0;
  LatencyModels m;
  std::string kind;
  while (is >> kind) {
    std::uint32_t key = 0;
    if (kind == "fingerprint") {
      std::uint64_t value = 0;
      if (!(is >> value)) {
        throw std::runtime_error("LatencyModels::load: bad fingerprint line");
      }
      if (fingerprint != nullptr) *fingerprint = value;
    } else if (kind == "host") {
      SqrtFit f;
      if (!(is >> key >> f.a >> f.b >> f.r2)) {
        throw std::runtime_error("LatencyModels::load: bad host line");
      }
      m.host_slope.emplace(key, f);
    } else if (kind == "pim") {
      LinearFit f;
      if (!(is >> key >> f.slope >> f.intercept >> f.r2)) {
        throw std::runtime_error("LatencyModels::load: bad pim line");
      }
      m.pim_gb.emplace(key, f);
    } else {
      throw std::runtime_error("LatencyModels::load: unknown record '" +
                               kind + "'");
    }
  }
  return m;
}

}  // namespace bbpim::engine
