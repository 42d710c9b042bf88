// The PIM module: a rank of 8 PIM-enabled chips used as main memory.
//
// Owns the functional pages actually backing relations (the 32 GB capacity
// figure matters for area/static modeling only — pages are materialized on
// demand). Provides host-visible record reads at cache-line granularity,
// including the line geometry that produces the paper's 32x read
// amplification, and module-wide wear accounting for Fig. 9.
#pragma once

#include <cstdint>
#include <deque>

#include "pim/config.hpp"
#include "pim/microcode.hpp"
#include "pim/page.hpp"

namespace bbpim::pim {

class PimModule {
 public:
  explicit PimModule(PimConfig cfg = {}) : cfg_(cfg) {}

  const PimConfig& config() const { return cfg_; }

  /// Materializes `n` fresh pages; returns the index of the first.
  /// `data_cols` (see Crossbar) bounds the shareable data groups of every
  /// crossbar in the new pages; the default keeps whole crossbars as data.
  std::size_t allocate_pages(std::size_t n,
                             std::uint32_t data_cols = PimConfig::kAllData);

  std::size_t page_count() const { return pages_.size(); }
  Page& page(std::size_t i) { return pages_.at(i); }
  const Page& page(std::size_t i) const { return pages_.at(i); }

  /// Functional read of one record field (record index is page-local,
  /// crossbar-major). Timing is charged by the host memory model per unique
  /// line touched — see host::ReadSet.
  std::uint64_t read_record_field(std::size_t page_idx, std::uint32_t record,
                                  const Field& f) const;

  // --- Wear accounting (Fig. 9) --------------------------------------------
  /// Worst-case writes experienced by a single crossbar row anywhere.
  std::uint64_t max_row_writes() const;
  void reset_wear();

 private:
  PimConfig cfg_;
  std::deque<Page> pages_;  // deque keeps references stable across allocs
};

}  // namespace bbpim::pim
