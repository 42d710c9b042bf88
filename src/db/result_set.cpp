#include "db/result_set.hpp"

#include <stdexcept>
#include <utility>

namespace bbpim::db {

ResultSet::ResultSet(engine::QueryOutput out, std::vector<Column> columns,
                     BackendKind backend)
    : out_(std::move(out)), columns_(std::move(columns)), backend_(backend) {}

ResultSet::ResultSet(const UpdateResult& update, BackendKind backend)
    : backend_(backend), update_stats_(update.stats) {
  out_.data_version = update.data_version;
}

const engine::UpdateStats& ResultSet::update_stats() const {
  if (!update_stats_) {
    throw std::logic_error("ResultSet::update_stats: not an UPDATE result");
  }
  return *update_stats_;
}

const engine::QueryStats& ResultSet::stats() const {
  if (update_stats_) {
    throw std::logic_error(
        "ResultSet::stats: UPDATE result (use update_stats())");
  }
  return out_.stats;
}

const std::string& ResultSet::column_name(std::size_t col) const {
  return columns_.at(col).name;
}

const engine::ResultRow& ResultSet::row(std::size_t r) const {
  return out_.rows.at(r);
}

std::uint64_t ResultSet::code(std::size_t r, std::size_t col) const {
  const Column& c = columns_.at(col);
  if (c.is_agg) return static_cast<std::uint64_t>(row(r).agg);
  return row(r).group.at(col);
}

std::int64_t ResultSet::integer(std::size_t r, std::size_t col) const {
  const Column& c = columns_.at(col);
  if (c.is_agg) return row(r).agg;
  return static_cast<std::int64_t>(row(r).group.at(col));
}

std::string ResultSet::text(std::size_t r, std::size_t col) const {
  const Column& c = columns_.at(col);
  if (c.is_agg) return std::to_string(row(r).agg);
  const std::uint64_t v = row(r).group.at(col);
  if (c.dict != nullptr) return c.dict->value(v);
  return std::to_string(v);
}

}  // namespace bbpim::db
