// The per-page PIM controller: macro-request execution with cost traces.
//
// The host talks to the module in macro requests (a whole filter program
// with its word-level twin, a whole aggregation pass, a packed result-column
// read/write). Each page has a dedicated controller on every chip (Section
// II-B); a controller decodes the request into the basic-cycle sequence and
// drives all 32 crossbars of its page concurrently. Functional effects apply
// immediately; the returned trace carries duration, dynamic energy and
// average power so the host-side scheduler (src/host/pipeline) can build the
// query timeline.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "common/units.hpp"
#include "pim/agg_circuit.hpp"
#include "pim/config.hpp"
#include "pim/microcode.hpp"
#include "pim/page.hpp"
#include "pim/trackers.hpp"

namespace bbpim::pim {

/// Request classes pipeline differently (Section V-A; README, "Deviations
/// from the paper"): bulk logic is power-limited to a shallow outstanding
/// window, read-class requests (aggregation, column streaming) may pipeline
/// deeper.
enum class RequestClass : std::uint8_t {
  kLogic,
  kAggregate,
  kColumnRead,
  kColumnWrite,
};

/// Cost record for one macro request on one page.
struct RequestTrace {
  RequestClass cls = RequestClass::kLogic;
  TimeNs duration_ns = 0;
  EnergyJ energy_j = 0;
  /// Average module power while the request runs (energy/duration).
  PowerW avg_power_w = 0;

  void finalize_power() {
    avg_power_w = duration_ns > 0
                      ? energy_j / units::ns_to_sec(duration_ns)
                      : 0.0;
  }
};

/// Aggregation macro request (one subgroup, one page).
struct AggRequest {
  Field value;             ///< aggregated attribute field
  std::uint16_t select_col = 0;  ///< filter-result bit column
  AggOp op = AggOp::kSum;
  Field result;            ///< where each crossbar's circuit writes its result
  std::uint32_t result_row = 0;
  bool with_count = false; ///< also write the selected-row count
  Field count;             ///< count destination (when with_count)
};

/// Cost-only trace for a bulk logic sequence of `cycles` on a page of
/// `crossbars` crossbars (used by the PIMDB bit-serial aggregation path and
/// the model fitter, which price sequences without materializing programs).
RequestTrace logic_trace_cost(const PimConfig& cfg, std::uint64_t cycles,
                              std::uint32_t crossbars);

// The `vectorized` flags below select between the fast simulation kernels
// (a program's builder-recorded word-level twin, word-level column packing,
// select-word-skipping aggregation) and the original scalar loops. Both
// produce bit-identical functional results and identical cost traces; the
// scalar path exists as the oracle the kernel-equivalence tests compare
// against.

/// Executes a program on every crossbar of the page (bulk logic). The cost
/// trace charges the gate program's cycles either way; the functional effect
/// comes from the word-level twin (vectorized) or from the gates (scalar).
RequestTrace execute_program(Page& page, const Program& prog,
                             const PimConfig& cfg, EnergyMeter* meter,
                             bool vectorized = true);

/// Folded functional outcome of one page's aggregation request: crossbar
/// results combined with the request's op (masked exactly as the written
/// result fields would read back) and counts summed. Lets the vectorized
/// engine skip re-reading the per-crossbar result fields.
struct PageAggResult {
  std::uint64_t value = 0;
  std::uint64_t count = 0;
};

/// Runs the aggregation circuits of all crossbars of the page in parallel.
RequestTrace execute_aggregate(Page& page, const AggRequest& req,
                               const PimConfig& cfg, EnergyMeter* meter,
                               bool vectorized = true,
                               PageAggResult* folded = nullptr);

/// Streams one bit column of every crossbar to the host, packed
/// (CONCEPT-style column reads). Record order: crossbar-major, then row.
/// `line_ns` is the host-side cost of transferring one 64 B line.
RequestTrace read_bit_column(Page& page, std::uint16_t col, TimeNs line_ns,
                             const PimConfig& cfg, EnergyMeter* meter,
                             BitVec* out, bool vectorized = true);

/// Writes a packed bit vector into one bit column of every crossbar
/// (used for two-xb intermediate-result transfer and bulk loads).
RequestTrace write_bit_column(Page& page, std::uint16_t col,
                              const BitVec& bits, TimeNs line_ns,
                              const PimConfig& cfg, EnergyMeter* meter,
                              bool vectorized = true);

}  // namespace bbpim::pim
