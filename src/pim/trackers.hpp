// Energy and peak-power accounting for the PIM module.
//
// Figures 7 and 8 of the paper report per-query PIM module energy and the
// peak power drawn by a single PIM chip. EnergyMeter accumulates dynamic and
// active-component energy by category; PowerTracker collects time intervals
// of module activity and computes the worst instantaneous overlap.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/units.hpp"

namespace bbpim::pim {

/// Where the joules went — used by the energy bench to explain Fig. 7.
enum class EnergyCat : std::size_t {
  kLogic = 0,      ///< bulk-bitwise MAGIC cycles
  kRead,           ///< crossbar reads (host lines, result columns, agg reads)
  kWrite,          ///< crossbar writes (results, column writes, updates)
  kController,     ///< PIM controllers while executing requests
  kAggCircuit,     ///< aggregation circuits while active
  kCount
};

/// Accumulates module energy by category.
///
/// A journaling meter (EnergyMeter(true)) additionally records every add()
/// in order so a parallel simulation worker's private accumulation can be
/// replayed into a shared meter afterwards. Replaying per-chunk journals in
/// chunk order reproduces the serial run's exact floating-point add
/// sequence, which is what keeps parallel energy totals bit-identical to
/// serial ones (category-wise merging would reassociate the sums).
class EnergyMeter {
 public:
  EnergyMeter() = default;
  explicit EnergyMeter(bool journal) : journal_(journal) {}

  void add(EnergyCat cat, EnergyJ joules) {
    by_cat_[static_cast<std::size_t>(cat)] += joules;
    if (journal_) log_.push_back({cat, joules});
  }
  EnergyJ total() const {
    EnergyJ t = 0;
    for (EnergyJ e : by_cat_) t += e;
    return t;
  }
  EnergyJ of(EnergyCat cat) const {
    return by_cat_[static_cast<std::size_t>(cat)];
  }
  void reset() {
    by_cat_.fill(0.0);
    log_.clear();
  }

  /// Re-applies this journaling meter's adds, in order, onto `dst`.
  void replay_into(EnergyMeter& dst) const {
    for (const Entry& e : log_) dst.add(e.cat, e.joules);
  }

 private:
  struct Entry {
    EnergyCat cat;
    EnergyJ joules;
  };
  std::array<EnergyJ, static_cast<std::size_t>(EnergyCat::kCount)> by_cat_{};
  bool journal_ = false;
  std::vector<Entry> log_;
};

/// Category totals of one meter in a single struct — the export format the
/// engine's QueryStats and UpdateStats share, so new accounting consumers
/// (the UPDATE path, future request classes) cannot drift from the query
/// path's category mapping.
struct EnergyBreakdown {
  EnergyJ total = 0;
  EnergyJ logic = 0;
  EnergyJ read = 0;
  EnergyJ write = 0;
  EnergyJ controller = 0;
  EnergyJ agg_circuit = 0;
};

EnergyBreakdown energy_breakdown(const EnergyMeter& meter);

/// Sweep-line peak power over recorded activity intervals.
///
/// Pages are striped uniformly across all chips, so per-chip power is the
/// module power divided by the chip count.
class PowerTracker {
 public:
  /// Records that the module drew `watts` during [start, end).
  void add_interval(TimeNs start_ns, TimeNs end_ns, PowerW watts);

  /// Maximum instantaneous module power across all recorded intervals.
  PowerW peak_module_w() const;

  void reset() { events_.clear(); }

 private:
  struct Event {
    TimeNs t;
    PowerW delta;
  };
  std::vector<Event> events_;
};

}  // namespace bbpim::pim
