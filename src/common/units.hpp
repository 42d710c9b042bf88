// Physical units used throughout the simulator.
//
// All quantities are carried as doubles in fixed base units (documented in
// the alias names) so the cost model stays simple to audit against Table I
// of the paper. Helper constants convert to/from the unit prefixes the paper
// quotes (fJ/bit, pJ/bit, uW, ns, ...).
#pragma once

namespace bbpim {

/// Simulated time in nanoseconds.
using TimeNs = double;
/// Energy in joules.
using EnergyJ = double;
/// Power in watts.
using PowerW = double;
/// Silicon area in square millimeters.
using AreaMm2 = double;

namespace units {

inline constexpr double kNsPerUs = 1e3;
inline constexpr double kNsPerMs = 1e6;
inline constexpr double kNsPerSec = 1e9;

inline constexpr double kJoulePerFj = 1e-15;
inline constexpr double kJoulePerPj = 1e-12;
inline constexpr double kJoulePerNj = 1e-9;
inline constexpr double kJoulePerMj = 1e-3;

inline constexpr double kWattPerUw = 1e-6;
inline constexpr double kWattPerMw = 1e-3;

inline constexpr double kSecondsPerYear = 365.25 * 24 * 3600;

/// Converts nanoseconds to seconds.
constexpr double ns_to_sec(TimeNs ns) { return ns / kNsPerSec; }
/// Converts nanoseconds to milliseconds.
constexpr double ns_to_ms(TimeNs ns) { return ns / kNsPerMs; }

}  // namespace units
}  // namespace bbpim
