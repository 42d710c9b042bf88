// Column-major in-memory tables.
//
// The canonical host-side representation of a relation: one uint64 code
// vector per attribute. Used by the data generator, the pre-joiner, the
// MonetDB-like baseline, and as the loading source for the PIM store.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "relational/schema.hpp"

namespace bbpim::rel {

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema, std::string name = {});

  /// Builds a table from whole columns: one per attribute, all of one
  /// length, every value within its attribute's bit width. Each column is
  /// checked once, by OR-ing its values and testing the result's width.
  static Table from_columns(Schema schema, std::string name,
                            std::vector<std::vector<std::uint64_t>> columns);

  const Schema& schema() const { return schema_; }
  const std::string& name() const { return name_; }
  std::size_t row_count() const { return rows_; }

  /// Appends one record; values.size() must equal the attribute count and
  /// each value must fit its attribute's bit width.
  void append_row(std::span<const std::uint64_t> values);

  /// Reserves row capacity in every column.
  void reserve(std::size_t rows);

  std::uint64_t value(std::size_t row, std::size_t attr) const {
    return columns_.at(attr).at(row);
  }
  const std::vector<std::uint64_t>& column(std::size_t attr) const {
    return columns_.at(attr);
  }

  /// Renders a value for display (decodes through the dictionary when the
  /// attribute is a string).
  std::string display(std::size_t row, std::size_t attr) const;

 private:
  Schema schema_;
  std::string name_;
  std::size_t rows_ = 0;
  std::vector<std::vector<std::uint64_t>> columns_;
};

}  // namespace bbpim::rel
