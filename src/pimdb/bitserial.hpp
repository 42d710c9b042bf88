// PIMDB-style pure bulk-bitwise aggregation: the baseline the paper beats.
//
// PIMDB [1] aggregates without any peripheral ALU: the selected values are
// reduced inside the crossbar with a binary tree of row-aligned additions,
// every addition built from MAGIC NOR full adders (plus the row copies that
// align operands between tree levels). That costs thousands of 30 ns logic
// cycles — and every cycle drives a full output column, so it also burns
// energy and endurance. This module prices that sequence; the paper's
// aggregation circuit (src/pim/agg_circuit) replaces it with serial reads.
//
// Cycle constants mirror the column-parallel builders of pim/microcode.cpp:
// a full adder costs ~38 cycles/bit there (init+gate pairs), a copy 4.
#pragma once

#include <cstdint>
#include <vector>

#include "pim/agg_circuit.hpp"

namespace bbpim::pimdb {

/// Per-request cycle counts of one in-crossbar reduction over `rows` values
/// of `value_bits` width: the select-mask pass followed by one entry per
/// tree level. SUM grows one bit per tree level; MIN/MAX compare and select
/// at constant width. Each entry is a separate PIM macro request — the
/// level l+1 operands are level l outputs, and the PIM controller's
/// broadcast sequencer only covers one row-aligned step, so the host must
/// issue (and fence) every level. This per-level issue cost is what makes
/// PIMDB's aggregation unattractive to the planner on most GROUP-BY
/// queries (Table II's pimdb column).
std::vector<std::uint64_t> bitserial_agg_phases(std::uint32_t value_bits,
                                                std::uint32_t rows,
                                                pim::AggOp op);

}  // namespace bbpim::pimdb
