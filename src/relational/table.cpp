#include "relational/table.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace bbpim::rel {

Table::Table(Schema schema, std::string name)
    : schema_(std::move(schema)),
      name_(std::move(name)),
      columns_(schema_.attribute_count()) {}

Table Table::from_columns(Schema schema, std::string name,
                          std::vector<std::vector<std::uint64_t>> columns) {
  if (columns.size() != schema.attribute_count()) {
    throw std::invalid_argument("Table::from_columns: arity mismatch");
  }
  const std::size_t rows = columns.empty() ? 0 : columns.front().size();
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const Attribute& a = schema.attribute(i);
    if (columns[i].size() != rows) {
      throw std::invalid_argument("Table::from_columns: column '" + a.name +
                                  "' has " + std::to_string(columns[i].size()) +
                                  " rows, expected " + std::to_string(rows));
    }
    std::uint64_t any = 0;
    for (const std::uint64_t v : columns[i]) any |= v;
    if (a.bits < 64 && any >> a.bits) {
      throw std::invalid_argument("Table::from_columns: value overflows '" +
                                  a.name + "'");
    }
  }
  Table t(std::move(schema), std::move(name));
  t.columns_ = std::move(columns);
  t.rows_ = rows;
  return t;
}

void Table::append_row(std::span<const std::uint64_t> values) {
  if (values.size() != schema_.attribute_count()) {
    throw std::invalid_argument("Table::append_row: arity mismatch");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    const Attribute& a = schema_.attribute(i);
    if (a.bits < 64 && values[i] >> a.bits) {
      throw std::invalid_argument("Table::append_row: value overflows '" +
                                  a.name + "'");
    }
    columns_[i].push_back(values[i]);
  }
  ++rows_;
}

void Table::reserve(std::size_t rows) {
  for (auto& col : columns_) col.reserve(rows);
}

std::string Table::display(std::size_t row, std::size_t attr) const {
  const Attribute& a = schema_.attribute(attr);
  const std::uint64_t v = value(row, attr);
  if (a.type == DataType::kString) return a.dict->value(v);
  return std::to_string(v);
}

}  // namespace bbpim::rel
