#include "relational/table.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace bbpim::rel {

namespace {

/// An empty column of the narrowest element type covering `bits`.
Table::Column empty_column(std::uint32_t bits) {
  if (bits <= 8) return std::vector<std::uint8_t>{};
  if (bits <= 16) return std::vector<std::uint16_t>{};
  if (bits <= 32) return std::vector<std::uint32_t>{};
  return std::vector<std::uint64_t>{};
}

/// Throws unless every value of `col` fits attribute `a`'s bit width.
template <class T>
void check_width(std::span<const T> col, const Attribute& a) {
  std::uint64_t any = 0;
  for (const T v : col) any |= v;
  if (a.bits < 64 && any >> a.bits) {
    throw std::invalid_argument("Table::from_columns: value overflows '" +
                                a.name + "'");
  }
}

void check_rows(std::size_t got, std::size_t rows, const Attribute& a) {
  if (got != rows) {
    throw std::invalid_argument("Table::from_columns: column '" + a.name +
                                "' has " + std::to_string(got) +
                                " rows, expected " + std::to_string(rows));
  }
}

}  // namespace

Table::Table(Schema schema, std::string name)
    : schema_(std::move(schema)),
      name_(std::move(name)),
      wide_(std::make_unique<WideCache>(schema_.attribute_count())) {
  columns_.reserve(schema_.attribute_count());
  for (const Attribute& a : schema_.attributes()) {
    columns_.push_back(empty_column(a.bits));
  }
}

Table::Table(const Table& other)
    : schema_(other.schema_),
      name_(other.name_),
      rows_(other.rows_),
      columns_(other.columns_),
      wide_(std::make_unique<WideCache>(columns_.size())) {}

Table& Table::operator=(const Table& other) {
  if (this != &other) *this = Table(other);
  return *this;
}

Table Table::from_columns(Schema schema, std::string name,
                          std::vector<std::vector<std::uint64_t>> columns) {
  if (columns.size() != schema.attribute_count()) {
    throw std::invalid_argument("Table::from_columns: arity mismatch");
  }
  const std::size_t rows = columns.empty() ? 0 : columns.front().size();
  Table t(std::move(schema), std::move(name));
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const Attribute& a = t.schema_.attribute(i);
    std::vector<std::uint64_t>& wide = columns[i];
    check_rows(wide.size(), rows, a);
    check_width(std::span<const std::uint64_t>(wide), a);
    std::visit(
        [&wide](auto& col) {
          using T = typename std::decay_t<decltype(col)>::value_type;
          if constexpr (std::is_same_v<T, std::uint64_t>) {
            col = std::move(wide);
          } else {
            col.assign(wide.begin(), wide.end());
          }
        },
        t.columns_[i]);
    std::vector<std::uint64_t>().swap(wide);  // free each wide column early
  }
  t.rows_ = rows;
  return t;
}

Table Table::from_columns(Schema schema, std::string name,
                          std::vector<Column> columns) {
  if (columns.size() != schema.attribute_count()) {
    throw std::invalid_argument("Table::from_columns: arity mismatch");
  }
  const std::size_t rows = columns.empty()
                               ? 0
                               : std::visit([](const auto& c) { return c.size(); },
                                            columns.front());
  Table t(std::move(schema), std::move(name));
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const Attribute& a = t.schema_.attribute(i);
    if (columns[i].index() != t.columns_[i].index()) {
      throw std::invalid_argument("Table::from_columns: column '" + a.name +
                                  "' is not at its attribute's width");
    }
    std::visit(
        [&](const auto& col) {
          check_rows(col.size(), rows, a);
          check_width(std::span(col.data(), col.size()), a);
        },
        columns[i]);
    t.columns_[i] = std::move(columns[i]);
  }
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
  }
  // A non-const call has no concurrent column() readers, so the widened
  // copies need no lock.
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::visit(
        [v = values[i]](auto& col) {
          using T = typename std::decay_t<decltype(col)>::value_type;
          col.push_back(static_cast<T>(v));
        },
        columns_[i]);
    if (wide_->owned[i] != nullptr) wide_->owned[i]->push_back(values[i]);
  }
  ++rows_;
}

void Table::reserve(std::size_t rows) {
  for (Column& col : columns_) {
    std::visit([rows](auto& c) { c.reserve(rows); }, col);
  }
}

const std::vector<std::uint64_t>& Table::widen(std::size_t attr) const {
  const std::lock_guard lock(wide_->mu);
  std::unique_ptr<std::vector<std::uint64_t>>& slot = wide_->owned[attr];
  if (slot == nullptr) {
    slot = visit_column(attr, [](auto col) {
      return std::make_unique<std::vector<std::uint64_t>>(col.begin(),
                                                          col.end());
    });
    wide_->ready[attr].store(slot.get(), std::memory_order_release);
  }
  return *slot;
}

std::size_t Table::resident_bytes() const {
  std::size_t bytes = 0;
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    bytes += visit_column(a, [](auto col) { return col.size_bytes(); });
  }
  if (wide_ != nullptr) {
    const std::lock_guard lock(wide_->mu);
    for (const auto& wide : wide_->owned) {
      if (wide != nullptr) bytes += wide->size() * sizeof(std::uint64_t);
    }
  }
  return bytes;
}

Table cluster_by(const Table& table, std::size_t attr) {
  std::vector<std::size_t> order(table.row_count());
  std::iota(order.begin(), order.end(), 0);
  table.visit_column(attr, [&order](auto codes) {
    std::stable_sort(order.begin(), order.end(),
                     [codes](std::size_t i, std::size_t j) {
                       return codes[i] < codes[j];
                     });
  });
  std::vector<Table::Column> columns;
  columns.reserve(table.schema().attribute_count());
  for (std::size_t a = 0; a < table.schema().attribute_count(); ++a) {
    table.visit_column(a, [&](auto src) {
      std::vector<typename decltype(src)::value_type> dst(order.size());
      for (std::size_t r = 0; r < order.size(); ++r) dst[r] = src[order[r]];
      columns.emplace_back(std::move(dst));
    });
  }
  return Table::from_columns(table.schema(), table.name(), std::move(columns));
}

}  // namespace bbpim::rel
