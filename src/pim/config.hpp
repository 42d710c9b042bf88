// PIM module configuration — Table I of the paper.
//
// Geometry, timing, energy, and power parameters of the RRAM bulk-bitwise
// PIM module. All defaults reproduce the paper's evaluated system: a 32 GB
// module of 8 chips, 1024x512 crossbars, 2 MB hugepages (32 crossbars),
// 16-bit fixed crossbar reads, 30 ns bulk logic cycle, MAGIC-style energy.
#pragma once

#include <compare>
#include <cstdint>

#include "common/units.hpp"

namespace bbpim::pim {

/// Static description of the PIM module (Table I, "Single RRAM PIM Module").
struct PimConfig {
  /// Sentinel for Page / PimModule::allocate_pages `data_cols`: the whole
  /// crossbar is shareable data (no private scratch split).
  static constexpr std::uint32_t kAllData = 0xFFFFFFFFu;

  // --- Geometry -----------------------------------------------------------
  std::uint32_t crossbar_rows = 1024;   ///< records per crossbar
  std::uint32_t crossbar_cols = 512;    ///< bits per record row
  std::uint32_t crossbars_per_page = 32;  ///< 2 MB hugepage
  std::uint32_t chips = 8;              ///< page striped 4 crossbars/chip
  std::uint64_t capacity_bytes = 32ULL << 30;  ///< 32 GB module
  std::uint32_t read_bits = 16;         ///< fixed crossbar read width [16]

  // --- Timing --------------------------------------------------------------
  TimeNs logic_cycle_ns = 30.0;     ///< one bulk-bitwise (MAGIC) op [5]
  TimeNs read_cycle_ns = 30.0;      ///< one 16-bit internal crossbar read
  TimeNs write_cycle_ns = 100.0;    ///< one 16-bit internal crossbar write

  // --- Energy (dynamic) ----------------------------------------------------
  /// MAGIC logic energy per computed output bit [20]. One bulk cycle computes
  /// `crossbar_rows` gates per crossbar (one output column).
  double logic_energy_fj_per_bit = 81.6;
  double read_energy_pj_per_bit = 0.84;   ///< crossbar read energy [5]
  double write_energy_pj_per_bit = 6.9;   ///< crossbar write energy [5]

  // --- Power (active components) -------------------------------------------
  double agg_circuit_power_uw = 25.4;   ///< one aggregation circuit, active
  double controller_power_uw = 126.0;   ///< one PIM controller, active [1]

  /// Field-by-field, doubles compared exactly: the identity that keys
  /// db::Database's snapshot managers.
  auto operator<=>(const PimConfig&) const = default;

  // --- Derived geometry -----------------------------------------------------
  std::uint32_t records_per_page() const {
    return crossbar_rows * crossbars_per_page;
  }
  std::uint64_t crossbar_bits() const {
    return static_cast<std::uint64_t>(crossbar_rows) * crossbar_cols;
  }
  std::uint64_t page_bytes() const {
    return crossbar_bits() * crossbars_per_page / 8;
  }
  std::uint64_t pages_in_module() const {
    return capacity_bytes / page_bytes();
  }
  std::uint32_t chunks_per_row() const { return crossbar_cols / read_bits; }
  /// A 64 B host cache line carries one 16-bit chunk from each of the 32
  /// crossbars of a page row — the 32x read amplification of Section V-B.
  std::uint32_t line_bytes() const {
    return crossbars_per_page * read_bits / 8;
  }

  // --- Energy helpers -------------------------------------------------------
  /// Energy of one bulk logic cycle on one crossbar (one gate per row).
  EnergyJ logic_cycle_energy_j() const {
    return static_cast<double>(crossbar_rows) * logic_energy_fj_per_bit *
           units::kJoulePerFj;
  }
  /// Energy of one fixed-width (16-bit) crossbar read.
  EnergyJ read_energy_j() const {
    return read_bits * read_energy_pj_per_bit * units::kJoulePerPj;
  }
  /// Energy of writing `bits` cells.
  EnergyJ write_energy_j(std::uint64_t bits) const {
    return static_cast<double>(bits) * write_energy_pj_per_bit *
           units::kJoulePerPj;
  }
};

}  // namespace bbpim::pim
