#include "engine/fault_injector.hpp"

#include <chrono>
#include <thread>

namespace bbpim::engine {

namespace detail {
std::atomic<FaultInjector*> g_fault_injector{nullptr};
}

const char* fault_seam_name(FaultSeam seam) {
  switch (seam) {
    case FaultSeam::kPlanBind:
      return "plan-bind";
    case FaultSeam::kSnapshotPin:
      return "snapshot-pin";
    case FaultSeam::kCrossbarVisit:
      return "crossbar-visit";
    case FaultSeam::kUpdateCommit:
      return "update-commit";
    case FaultSeam::kReadback:
      return "readback";
  }
  return "unknown";
}

FaultInjector::FaultInjector(std::uint64_t seed) {
  // Independent deterministic draw sequence per seam: arming one seam's
  // probabilistic rule never perturbs another's.
  Rng root(seed);
  for (std::size_t i = 0; i < kFaultSeamCount; ++i) {
    seams_[i].rng = root.fork(i);
  }
}

void FaultInjector::arm(FaultSeam seam, FaultRule rule) {
  SeamState& s = seams_[static_cast<std::size_t>(seam)];
  std::lock_guard lock(s.mutex);
  s.rule = rule;
}

std::uint64_t FaultInjector::traversals(FaultSeam seam) const {
  return seams_[static_cast<std::size_t>(seam)].traversals.load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::fired(FaultSeam seam) const {
  return seams_[static_cast<std::size_t>(seam)].fired.load(
      std::memory_order_relaxed);
}

void FaultInjector::traverse(FaultSeam seam) {
  SeamState& s = seams_[static_cast<std::size_t>(seam)];
  bool fire = false;
  bool transient = true;
  std::uint64_t stall_us = 0;
  std::uint64_t n = 0;
  {
    std::lock_guard lock(s.mutex);
    n = s.traversals.fetch_add(1, std::memory_order_relaxed) + 1;
    const FaultRule& rule = s.rule;
    if (rule.nth != 0) {
      fire = n == rule.nth || (rule.every != 0 && n > rule.nth &&
                               (n - rule.nth) % rule.every == 0);
    }
    if (!fire && rule.probability > 0.0) {
      fire = s.rng.next_double() < rule.probability;
    }
    transient = rule.transient;
    stall_us = rule.stall_us;
    if (fire) s.fired.fetch_add(1, std::memory_order_relaxed);
  }
  // Stall outside the lock so a slow seam never serializes other seams'
  // (or other threads') traversals through this injector.
  if (stall_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
  }
  if (fire) {
    const std::string what = std::string("injected fault at seam ") +
                             fault_seam_name(seam) + " (traversal " +
                             std::to_string(n) + ")";
    if (transient) throw InjectedFault(what);
    throw InjectedFatalFault(what);
  }
}

ScopedFaultInjection::ScopedFaultInjection(FaultInjector& injector)
    : previous_(detail::g_fault_injector.exchange(&injector,
                                                  std::memory_order_acq_rel)) {}

ScopedFaultInjection::~ScopedFaultInjection() {
  detail::g_fault_injector.store(previous_, std::memory_order_release);
}

}  // namespace bbpim::engine
