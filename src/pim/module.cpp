#include "pim/module.hpp"

#include <algorithm>
#include <stdexcept>

namespace bbpim::pim {

std::size_t PimModule::allocate_pages(std::size_t n, std::uint32_t data_cols) {
  const std::size_t first = pages_.size();
  if ((pages_.size() + n) * cfg_.page_bytes() > cfg_.capacity_bytes) {
    throw std::runtime_error("PimModule: capacity exceeded");
  }
  for (std::size_t i = 0; i < n; ++i) {
    pages_.emplace_back(first + i, cfg_, data_cols);
  }
  return first;
}

std::uint64_t PimModule::read_record_field(std::size_t page_idx,
                                           std::uint32_t record,
                                           const Field& f) const {
  const Page& p = pages_.at(page_idx);
  const Page::RecordCoord c = p.locate(record);
  return p.crossbar(c.crossbar).read_row_bits(c.row, f.offset, f.width);
}

std::uint64_t PimModule::max_row_writes() const {
  std::uint64_t worst = 0;
  for (const Page& p : pages_) {
    for (std::uint32_t x = 0; x < p.crossbar_count(); ++x) {
      worst = std::max(worst, p.crossbar(x).max_row_writes());
    }
  }
  return worst;
}

void PimModule::reset_wear() {
  for (Page& p : pages_) {
    for (std::uint32_t x = 0; x < p.crossbar_count(); ++x) {
      p.crossbar(x).reset_wear();
    }
  }
}

}  // namespace bbpim::pim
