#include "relational/schema.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_set>

namespace bbpim::rel {

Schema::Schema(std::vector<Attribute> attrs) : attrs_(std::move(attrs)) {
  std::unordered_set<std::string> seen;
  for (const Attribute& a : attrs_) {
    if (a.bits == 0 || a.bits > 64) {
      throw std::invalid_argument("Schema: attribute '" + a.name +
                                  "' has invalid bit width");
    }
    if (a.type == DataType::kString && !a.dict) {
      throw std::invalid_argument("Schema: string attribute '" + a.name +
                                  "' lacks a dictionary");
    }
    if (!seen.insert(a.name).second) {
      throw std::invalid_argument("Schema: duplicate attribute '" + a.name + "'");
    }
  }
}

std::optional<std::size_t> Schema::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name == name) return i;
  }
  return std::nullopt;
}

bool Schema::has_dimension_attrs() const {
  return std::ranges::any_of(attrs_, &Attribute::dimension);
}

std::uint32_t Schema::record_bits() const {
  std::uint32_t total = 0;
  for (const Attribute& a : attrs_) total += a.bits;
  return total;
}

std::uint32_t bits_for_max(std::uint64_t max_value) {
  if (max_value == 0) return 1;
  return 64 - std::countl_zero(max_value);
}

}  // namespace bbpim::rel
