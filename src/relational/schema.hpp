// Relation schemas: attributes with types, bit widths, and dictionaries.
//
// Every attribute value is carried as a uint64 code: integers directly,
// strings through an order-preserving dictionary. `bits` is the packed
// width used when the relation is laid out in crossbar rows.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relational/dictionary.hpp"

namespace bbpim::rel {

enum class DataType : std::uint8_t { kInt, kString };

struct Attribute {
  std::string name;
  DataType type = DataType::kInt;
  std::uint32_t bits = 0;  ///< packed width (covers the attribute's domain)
  /// Present for kString attributes; shared because several relations can
  /// reference one domain (e.g. city appears in customer and supplier).
  std::shared_ptr<const Dictionary> dict;
  /// Came from a dimension relation (engine::prejoin sets it on each
  /// attribute it carries in). Two-xb puts these in part 1, the rest in 0.
  bool dimension = false;
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Attribute> attrs);

  std::size_t attribute_count() const { return attrs_.size(); }
  const Attribute& attribute(std::size_t i) const { return attrs_.at(i); }
  const std::vector<Attribute>& attributes() const { return attrs_; }

  /// Index of an attribute by name (case-sensitive); nullopt when absent.
  std::optional<std::size_t> index_of(const std::string& name) const;

  /// True when some attribute came from a dimension (two-xb splits the
  /// relation); a relation without one loads as one part on every backend.
  bool has_dimension_attrs() const;

  /// Total packed bits of one record.
  std::uint32_t record_bits() const;

 private:
  std::vector<Attribute> attrs_;
};

/// Helper for integer attributes: bits to cover [0, max_value].
std::uint32_t bits_for_max(std::uint64_t max_value);

}  // namespace bbpim::rel
