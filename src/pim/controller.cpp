#include "pim/controller.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "pim/wordeval.hpp"

namespace bbpim::pim {
namespace {

/// Energy drawn by the page's controllers (one per chip) over a duration.
EnergyJ controller_energy(const PimConfig& cfg, TimeNs duration_ns) {
  return cfg.controller_power_uw * units::kWattPerUw * cfg.chips *
         units::ns_to_sec(duration_ns);
}

}  // namespace

RequestTrace logic_trace_cost(const PimConfig& cfg, std::uint64_t cycles,
                              std::uint32_t crossbars) {
  RequestTrace t;
  t.cls = RequestClass::kLogic;
  t.duration_ns = static_cast<double>(cycles) * cfg.logic_cycle_ns;
  t.energy_j = static_cast<double>(cycles) * crossbars *
                   cfg.logic_cycle_energy_j() +
               controller_energy(cfg, t.duration_ns);
  t.finalize_power();
  return t;
}

RequestTrace execute_program(Page& page, const Program& prog,
                             const PimConfig& cfg, EnergyMeter* meter,
                             bool vectorized) {
  for (std::uint32_t i = 0; i < page.crossbar_count(); ++i) {
    Crossbar& xb = page.crossbar(i);
    if (vectorized) {
      // Word-level semantics; the gate program's cycles still pay the wear.
      execute_words(xb, prog.words);
      xb.add_uniform_wear(prog.gates.size());
    } else {
      xb.execute(prog.gates);
    }
  }
  RequestTrace t =
      logic_trace_cost(cfg, prog.gates.size(), page.crossbar_count());
  if (meter != nullptr) {
    const EnergyJ ctrl = controller_energy(cfg, t.duration_ns);
    meter->add(EnergyCat::kLogic, t.energy_j - ctrl);
    meter->add(EnergyCat::kController, ctrl);
  }
  return t;
}

RequestTrace execute_aggregate(Page& page, const AggRequest& req,
                               const PimConfig& cfg, EnergyMeter* meter,
                               bool vectorized, PageAggResult* folded) {
  RequestTrace t;
  t.cls = RequestClass::kAggregate;
  EnergyJ agg_energy = 0;
  AggCircuitCost cost;
  const std::uint64_t value_max =
      req.value.width >= 64 ? ~0ULL : (1ULL << req.value.width) - 1;
  const std::uint64_t result_mask =
      req.result.width >= 64 ? ~0ULL : (1ULL << req.result.width) - 1;
  const std::uint64_t count_mask =
      req.count.width >= 64 ? ~0ULL : (1ULL << req.count.width) - 1;
  if (folded != nullptr) {
    folded->value = req.op == AggOp::kMin ? value_max : 0;
    folded->count = 0;
  }
  for (std::uint32_t i = 0; i < page.crossbar_count(); ++i) {
    std::uint64_t count = 0;
    const std::uint64_t acc = run_agg_circuit(
        page.crossbar(i), req.value, req.select_col, req.op, req.result,
        req.result_row, cfg, &cost, req.with_count ? &req.count : nullptr,
        vectorized, folded != nullptr ? &count : nullptr);
    if (folded != nullptr) {
      // Masked exactly as the written result field reads back.
      folded->value = agg_fold(req.op, folded->value, acc & result_mask);
      if (req.with_count) folded->count += count & count_mask;
    }
    agg_energy += cost.energy_j;
  }
  // All circuits run in parallel; page duration is one crossbar's duration.
  t.duration_ns = cost.duration_ns;
  const EnergyJ ctrl = controller_energy(cfg, t.duration_ns);
  if (meter != nullptr) {
    meter->add(EnergyCat::kAggCircuit, agg_energy);
    meter->add(EnergyCat::kController, ctrl);
  }
  t.energy_j = agg_energy + ctrl;
  t.finalize_power();
  return t;
}

RequestTrace read_bit_column(Page& page, std::uint16_t col, TimeNs line_ns,
                             const PimConfig& cfg, EnergyMeter* meter,
                             BitVec* out, bool vectorized) {
  const std::uint32_t rows = page.crossbar(0).rows();

  if (out != nullptr) {
    *out = BitVec(page.records());
    if (vectorized) {
      // Record order is crossbar-major and rows are a multiple of 64, so
      // crossbar x's column occupies a word-aligned slice of the output.
      const std::uint32_t words = page.crossbar(0).words_per_column();
      std::uint64_t* dst = out->words().data();
      for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
        const std::uint64_t* src = page.crossbar(x).column_data(col);
        std::copy(src, src + words, dst + static_cast<std::size_t>(x) * words);
      }
    } else {
      for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
        const BitVec colbits = page.crossbar(x).column(col);
        for (std::uint32_t r = 0; r < rows; ++r) {
          if (colbits.get(r)) {
            out->set(static_cast<std::size_t>(x) * rows + r, true);
          }
        }
      }
    }
  }

  RequestTrace t;
  t.cls = RequestClass::kColumnRead;
  // One 64 B line carries the 16-bit chunk holding the column's bit from
  // each of the 32 crossbars of one row: reading a bit column costs one
  // line per page row (the paper's "filter result read" cost). The internal
  // 16-bit chunk reads overlap with the line stream.
  const std::uint32_t lines = rows;
  t.duration_ns = static_cast<double>(lines) * line_ns;
  const EnergyJ read_e = static_cast<double>(page.crossbar_count()) * rows *
                         cfg.read_energy_j();
  const EnergyJ ctrl = controller_energy(cfg, t.duration_ns);
  if (meter != nullptr) {
    meter->add(EnergyCat::kRead, read_e);
    meter->add(EnergyCat::kController, ctrl);
  }
  t.energy_j = read_e + ctrl;
  t.finalize_power();
  return t;
}

RequestTrace write_bit_column(Page& page, std::uint16_t col,
                              const BitVec& bits, TimeNs line_ns,
                              const PimConfig& cfg, EnergyMeter* meter,
                              bool vectorized) {
  const std::uint32_t rows = page.crossbar(0).rows();
  if (bits.size() != page.records()) {
    throw std::invalid_argument("write_bit_column: size mismatch");
  }
  for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
    BitVec colbits(rows);
    if (vectorized) {
      const std::uint32_t words = page.crossbar(0).words_per_column();
      const std::uint64_t* src =
          bits.words().data() + static_cast<std::size_t>(x) * words;
      std::copy(src, src + words, colbits.words().begin());
    } else {
      for (std::uint32_t r = 0; r < rows; ++r) {
        if (bits.get(static_cast<std::size_t>(x) * rows + r)) {
          colbits.set(r, true);
        }
      }
    }
    page.crossbar(x).write_column(col, colbits);
  }

  RequestTrace t;
  t.cls = RequestClass::kColumnWrite;
  // Host writes arrive one line per row; each line rewrites the full 16-bit
  // chunk containing the target bit in every crossbar (write granularity),
  // which both the energy and the wear account for.
  for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
    page.crossbar(x).add_uniform_wear(cfg.read_bits - 1);  // +1 in write_column
  }
  t.duration_ns = static_cast<double>(rows) * line_ns + cfg.write_cycle_ns;
  const EnergyJ write_e = static_cast<double>(page.crossbar_count()) *
                          cfg.write_energy_j(static_cast<std::uint64_t>(rows) *
                                             cfg.read_bits);
  const EnergyJ ctrl = controller_energy(cfg, t.duration_ns);
  if (meter != nullptr) {
    meter->add(EnergyCat::kWrite, write_e);
    meter->add(EnergyCat::kController, ctrl);
  }
  t.energy_j = write_e + ctrl;
  t.finalize_power();
  return t;
}

}  // namespace bbpim::pim
