// Deterministic fault injection for the serving and execution paths.
//
// Production code is sprinkled with named seams — fault_point(FaultSeam::X)
// calls at the places real deployments fail: binding a plan, pinning a
// snapshot, visiting a crossbar, committing an update, reading results
// back. With no injector installed a seam is one relaxed atomic load, so
// the shipping binary pays nothing. Tests install a seeded FaultInjector
// and arm per-seam rules that fire on the N-th traversal (optionally every
// K traversals after that), probabilistically from a seeded RNG, or merely
// stall the seam to simulate a slow device — so every retry, fallback, and
// shed path in db::QueryService is exercised by construction, not luck.
//
// Faults are typed by recoverability: InjectedFault derives from
// TransientFault (the retry-classified base the service's backoff loop
// catches); InjectedFatalFault does not, and must surface to the caller on
// the first throw.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace bbpim::engine {

/// The named injection seams. Order is the array index; keep
/// fault_seam_name in sync.
enum class FaultSeam : std::size_t {
  kPlanBind = 0,     ///< Session::build_plan (parse/bind front end)
  kSnapshotPin,      ///< SnapshotManager::acquire (reader pin / re-pin)
  kCrossbarVisit,    ///< filter-phase crossbar visits (solo and fused)
  kUpdateCommit,     ///< SnapshotManager::apply_update (writer commit)
  kReadback,         ///< result/column readback into the host
};
inline constexpr std::size_t kFaultSeamCount = 5;

const char* fault_seam_name(FaultSeam seam);

/// Base of everything the service's retry loop may transparently re-run:
/// the failed attempt provably left no partial state behind (every seam
/// sits before its operation mutates anything shared).
class TransientFault : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A transient injected fault (retry-classified).
class InjectedFault : public TransientFault {
  using TransientFault::TransientFault;
};

/// A non-retryable injected fault: surfaces on the first throw.
class InjectedFatalFault : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// When and how one seam misbehaves. All triggers compose: a rule may both
/// stall (always) and fire (when its counters/probability say so).
struct FaultRule {
  /// Fire on the nth traversal of the seam (1-based); 0 disables counting.
  std::uint64_t nth = 0;
  /// After `nth` fired, fire again every `every` traversals (0 = once).
  std::uint64_t every = 0;
  /// Independent per-traversal firing probability from the injector's
  /// seeded RNG (deterministic draw sequence per seam).
  double probability = 0.0;
  /// Classification of the thrown fault: transient (InjectedFault, the
  /// retry loop eats it) or fatal (InjectedFatalFault, surfaces at once).
  bool transient = true;
  /// Sleep this long on EVERY traversal, firing or not — a slow-device
  /// model the overload tests use to build queues deterministically.
  std::uint64_t stall_us = 0;
};

/// Seeded per-process injector. arm() is a test-setup operation;
/// traverse() is called concurrently from workers and is thread-safe.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0x5eedf417ULL);

  void arm(FaultSeam seam, FaultRule rule);

  /// Times the seam was crossed / times it threw, since construction.
  std::uint64_t traversals(FaultSeam seam) const;
  std::uint64_t fired(FaultSeam seam) const;

  /// Called by fault_point: counts the traversal, applies the stall, and
  /// throws the configured fault when the rule says this crossing fails.
  void traverse(FaultSeam seam);

 private:
  struct SeamState {
    mutable std::mutex mutex;  ///< guards rule + rng (counters are atomic)
    FaultRule rule;
    bbpim::Rng rng{0};
    std::atomic<std::uint64_t> traversals{0};
    std::atomic<std::uint64_t> fired{0};
  };
  std::array<SeamState, kFaultSeamCount> seams_;
};

namespace detail {
extern std::atomic<FaultInjector*> g_fault_injector;
}

/// The seam itself: free when no injector is installed.
inline void fault_point(FaultSeam seam) {
  FaultInjector* fi = detail::g_fault_injector.load(std::memory_order_acquire);
  if (fi != nullptr) fi->traverse(seam);
}

/// RAII install/uninstall of the process-wide injector. Tests scope one of
/// these around the traffic they want to disturb; nesting restores the
/// previous injector on destruction.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultInjector& injector);
  ~ScopedFaultInjection();
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  FaultInjector* previous_;
};

}  // namespace bbpim::engine
