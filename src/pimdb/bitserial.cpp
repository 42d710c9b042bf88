#include "pimdb/bitserial.hpp"

#include <bit>
#include <stdexcept>

namespace bbpim::pimdb {
namespace {

// Matches the measured costs of the NOR-only builders in pim/microcode.cpp
// (each gate is an INIT cycle plus a NOR/NOT cycle).
constexpr std::uint64_t kCyclesPerAdderBit = 38;   // XNOR+XNOR+MAJ+store
constexpr std::uint64_t kCyclesPerCopyBit = 4;     // two NOTs
constexpr std::uint64_t kCyclesPerCompareBit = 12; // lt scan step
constexpr std::uint64_t kCyclesPerMuxBit = 10;     // select via Alg.1 gates

}  // namespace

std::vector<std::uint64_t> bitserial_agg_phases(std::uint32_t value_bits,
                                                std::uint32_t rows,
                                                pim::AggOp op) {
  if (value_bits == 0 || value_bits > 64) {
    throw std::invalid_argument("bitserial_agg_phases: bad width");
  }
  if (rows < 2 || (rows & (rows - 1)) != 0) {
    throw std::invalid_argument(
        "bitserial_agg_phases: rows must be a power of two");
  }
  const std::uint32_t levels =
      static_cast<std::uint32_t>(std::countr_zero(rows));
  std::vector<std::uint64_t> phases;
  phases.reserve(levels + 1);
  // The selected-value mask is applied once: value AND select per bit.
  phases.push_back(static_cast<std::uint64_t>(value_bits) * 6);
  for (std::uint32_t l = 0; l < levels; ++l) {
    // Width of the partial results entering level l.
    const std::uint64_t w =
        op == pim::AggOp::kSum ? value_bits + l : value_bits;
    // Align operand rows (copy one operand next to the other), then combine.
    std::uint64_t cycles = w * kCyclesPerCopyBit;
    if (op == pim::AggOp::kSum) {
      cycles += (w + 1) * kCyclesPerAdderBit;
    } else {
      cycles += w * kCyclesPerCompareBit + w * kCyclesPerMuxBit;
    }
    phases.push_back(cycles);
  }
  return phases;
}

}  // namespace bbpim::pimdb
