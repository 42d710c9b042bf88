// Column-major in-memory tables.
//
// The canonical host-side representation of a relation: one code vector
// per attribute, stored at the narrowest of 1, 2, 4 or 8 bytes that covers
// the attribute's bit width — the host counterpart of the packed crossbar
// record, and the fixed-width arrays of a MonetDB-like column store. The
// width comes from the schema, never from the data, so appending a row
// never re-widens a column. Used by the data generator, the pre-joiner, the
// MonetDB-like baseline, and as the loading source for the PIM store.
//
// Readers see codes as uint64 either one at a time through value(), or a
// column at a time through visit_column(), which hands a generic callable
// a std::span of the column's native element type.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "relational/schema.hpp"

namespace bbpim::rel {

class Table {
 public:
  /// One column at its native width: the alternative is the narrowest
  /// element type that covers the attribute's bits.
  using Column =
      std::variant<std::vector<std::uint8_t>, std::vector<std::uint16_t>,
                   std::vector<std::uint32_t>, std::vector<std::uint64_t>>;

  Table() = default;
  explicit Table(Schema schema, std::string name = {});
  /// Copies the columns; column()'s widened copies are not copied.
  Table(const Table& other);
  Table& operator=(const Table& other);
  /// Moves the columns and column()'s widened copies.
  Table(Table&&) noexcept = default;
  Table& operator=(Table&&) noexcept = default;

  /// Builds a table from whole columns: one per attribute, all of one
  /// length, every value within its attribute's bit width. Each column is
  /// checked once, by OR-ing its values and testing the result's width,
  /// then narrowed once to its native width.
  static Table from_columns(Schema schema, std::string name,
                            std::vector<std::vector<std::uint64_t>> columns);
  /// The same from columns already at their native widths: each column's
  /// element type must be its attribute's, and is checked as above.
  static Table from_columns(Schema schema, std::string name,
                            std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  const std::string& name() const { return name_; }
  std::size_t row_count() const { return rows_; }

  /// Appends one record; values.size() must equal the attribute count and
  /// each value must fit its attribute's bit width.
  void append_row(std::span<const std::uint64_t> values);

  /// Reserves row capacity in every column.
  void reserve(std::size_t rows);

  /// Calls f(std::span<const T>) over column `attr`, with T its native
  /// element type (uint8/16/32/64_t), and returns what f returns. Write a
  /// bulk reader once, as a generic lambda over that span.
  template <class F>
  decltype(auto) visit_column(std::size_t attr, F&& f) const {
    return std::visit(
        [&f](const auto& col) -> decltype(auto) {
          return f(std::span(col.data(), col.size()));
        },
        columns_.at(attr));
  }

  std::uint64_t value(std::size_t row, std::size_t attr) const {
    return visit_column(attr, [row](auto col) -> std::uint64_t {
      if (row >= col.size()) throw std::out_of_range("Table::value: row");
      return col[row];
    });
  }

  /// Compatibility shim: column `attr` widened to uint64. The first call
  /// widens the column once and caches the copy (thread-safe); later calls
  /// are one acquire load, with no lock. append_row keeps a cached copy in
  /// step. Nothing in src/, bench/ or examples/ calls it: it stays only
  /// because the benchmark package (perfbench/) binds it, and the benchmark
  /// change that moves perfbench to visit_column deletes it.
  const std::vector<std::uint64_t>& column(std::size_t attr) const {
    if (attr >= columns_.size()) throw std::out_of_range("Table::column");
    if (const auto* wide = wide_->ready[attr].load(std::memory_order_acquire)) {
      return *wide;
    }
    return widen(attr);
  }

  /// Bytes of column data held: every column at its native width, plus each
  /// uint64 copy column() has made. Counts values, not allocator slack.
  std::size_t resident_bytes() const;

 private:
  /// column()'s widened copies, one slot per attribute.
  struct WideCache {
    explicit WideCache(std::size_t attrs) : owned(attrs), ready(attrs) {}
    std::mutex mu;  // guards owned; ready publishes what it holds
    std::vector<std::unique_ptr<std::vector<std::uint64_t>>> owned;
    std::vector<std::atomic<const std::vector<std::uint64_t>*>> ready;
  };

  const std::vector<std::uint64_t>& widen(std::size_t attr) const;

  Schema schema_;
  std::string name_;
  std::size_t rows_ = 0;
  std::vector<Column> columns_;
  std::unique_ptr<WideCache> wide_;
};

/// Stable re-sort of a relation by the codes of attribute `attr` (the
/// clustering a chronological fact load produces for the date hierarchy):
/// sorts the row order once, then gathers every column through it at its
/// native width. Throws std::out_of_range on an attribute index past the
/// schema.
Table cluster_by(const Table& table, std::size_t attr);

}  // namespace bbpim::rel
