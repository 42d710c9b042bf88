// A PIM hugepage: the unit of PIM request targeting.
//
// One 2 MB hugepage spans 32 crossbars, striped 4-per-chip across the 8
// chips of the module. All crossbars of a page execute the same micro-op
// sequence concurrently (Section II-B), which is where bulk-bitwise
// parallelism comes from. Record i of a page lives in crossbar i/1024,
// row i%1024.
#pragma once

#include <cstdint>
#include <vector>

#include "pim/config.hpp"
#include "pim/crossbar.hpp"

namespace bbpim::pim {

class Page {
 public:
  /// `data_cols` splits every crossbar of the page into shareable data
  /// groups and private scratch groups (see Crossbar); the default keeps
  /// the whole crossbar as data.
  Page(std::size_t id, const PimConfig& cfg,
       std::uint32_t data_cols = PimConfig::kAllData)
      : id_(id) {
    if (data_cols == PimConfig::kAllData) data_cols = cfg.crossbar_cols;
    crossbars_.reserve(cfg.crossbars_per_page);
    for (std::uint32_t i = 0; i < cfg.crossbars_per_page; ++i) {
      crossbars_.emplace_back(cfg.crossbar_rows, cfg.crossbar_cols, data_cols);
    }
  }

  std::size_t id() const { return id_; }
  std::uint32_t crossbar_count() const {
    return static_cast<std::uint32_t>(crossbars_.size());
  }
  Crossbar& crossbar(std::uint32_t i) { return crossbars_.at(i); }
  const Crossbar& crossbar(std::uint32_t i) const { return crossbars_.at(i); }

  std::uint32_t records() const {
    return crossbar_count() * crossbars_[0].rows();
  }

  /// Crossbar / row coordinates of a record index within this page.
  struct RecordCoord {
    std::uint32_t crossbar;
    std::uint32_t row;
  };
  RecordCoord locate(std::uint32_t record) const {
    const std::uint32_t rows = crossbars_[0].rows();
    return {record / rows, record % rows};
  }

 private:
  std::size_t id_;
  std::vector<Crossbar> crossbars_;
};

}  // namespace bbpim::pim
