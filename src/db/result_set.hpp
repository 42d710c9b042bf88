// ResultSet: typed, dictionary-decoding view of a query result.
//
// The engines return group-attribute codes (engine::ResultRow); the facade
// wraps them with the column metadata of the bound query so callers read
// strings and integers without touching schemas or dictionaries. The
// simulated execution costs (QueryStats) ride along. Self-contained value
// type: safe to keep after the session that produced it is gone.
//
// An UPDATE statement also yields a ResultSet: zero rows, is_update() true,
// and update_stats() carrying the Algorithm-1 cost record. Both kinds carry
// data_version() — the number of updates the producing execution observed
// on its target table, taken at construction from the execution's output
// or the UpdateResult — which is what the HTAP benches use to match
// concurrent results against a serial oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "db/backend.hpp"
#include "engine/prejoin.hpp"
#include "engine/query_exec.hpp"
#include "relational/dictionary.hpp"

namespace bbpim::db {

/// Result of one facade UPDATE execution.
struct UpdateResult {
  engine::UpdateStats stats;
  /// The update's position in the table's log (its new data version).
  std::uint64_t data_version = 0;
};

class ResultSet {
 public:
  struct Column {
    std::string name;
    bool is_agg = false;
    /// Present for dictionary-encoded (string) group columns.
    std::shared_ptr<const rel::Dictionary> dict;
  };

  ResultSet() = default;
  /// SELECT result: data_version() is the output's.
  ResultSet(engine::QueryOutput out, std::vector<Column> columns,
            BackendKind backend);
  /// UPDATE result: no rows/columns, stats of the Algorithm-1 execution,
  /// data_version() the update's position in the log.
  ResultSet(const UpdateResult& update, BackendKind backend);

  std::size_t row_count() const { return out_.rows.size(); }
  std::size_t column_count() const { return columns_.size(); }
  const std::string& column_name(std::size_t col) const;
  const std::vector<Column>& columns() const { return columns_; }

  /// Raw attribute code of a group column; the aggregate cast to uint64.
  std::uint64_t code(std::size_t row, std::size_t col) const;
  /// Signed value: the aggregate, or a group code (exact for int columns).
  std::int64_t integer(std::size_t row, std::size_t col) const;
  /// Display form: dictionary-decoded for string columns, numeric otherwise.
  std::string text(std::size_t row, std::size_t col) const;

  BackendKind backend() const { return backend_; }
  /// Simulated query costs; throws std::logic_error on UPDATE results
  /// (symmetric with update_stats() — a silent all-zero QueryStats would
  /// skew any mixed-workload aggregate that forgot to branch).
  const engine::QueryStats& stats() const;
  const std::vector<engine::ResultRow>& rows() const { return out_.rows; }
  const engine::QueryOutput& output() const { return out_; }

  // --- UPDATE results ------------------------------------------------------
  bool is_update() const { return update_stats_.has_value(); }
  /// Algorithm-1 cost record; throws std::logic_error on SELECT results.
  const engine::UpdateStats& update_stats() const;
  /// Records rewritten (0 for SELECT results).
  std::size_t updated_records() const {
    return update_stats_ ? update_stats_->updated_records : 0;
  }

  // --- shared-scan batching (0 for UPDATEs / solo executions) --------------
  /// Queries fused into the batch this query executed with, itself included
  /// (0 = executed solo, today's path).
  std::size_t batched_queries() const {
    return is_update() ? 0 : out_.stats.batched_queries;
  }

  // --- serving-layer wall timings (0 unless served by db::QueryService) ----
  /// Wall microseconds between submit() and a worker dequeuing the statement.
  std::uint64_t queue_wait_us() const { return queue_wait_us_; }
  /// Wall microseconds the worker spent executing it (retries included).
  std::uint64_t service_us() const { return service_us_; }
  /// Facade-internal (set by db::QueryService when it settles the future).
  void set_service_timing(std::uint64_t queue_wait_us,
                          std::uint64_t service_us) {
    queue_wait_us_ = queue_wait_us;
    service_us_ = service_us;
  }

  /// Target-table data version this execution observed: the number of
  /// committed updates replayed into the executing store (for an UPDATE,
  /// including itself — its position in the table's update log). 0 for
  /// backends without update support and for pre-update-era results.
  std::uint64_t data_version() const { return out_.data_version; }

  /// Join results: the (table name, data version) pair each per-table scan
  /// was pinned to — exactly one consistent snapshot per touched table.
  /// Empty for single-table results. data_version() is the fact table's.
  const std::vector<std::pair<std::string, std::uint64_t>>& table_versions()
      const {
    return table_versions_;
  }
  void set_table_versions(
      std::vector<std::pair<std::string, std::uint64_t>> versions) {
    table_versions_ = std::move(versions);
  }

 private:
  const engine::ResultRow& row(std::size_t r) const;

  engine::QueryOutput out_;
  std::vector<Column> columns_;
  BackendKind backend_ = BackendKind::kReference;
  std::optional<engine::UpdateStats> update_stats_;
  std::uint64_t queue_wait_us_ = 0;
  std::uint64_t service_us_ = 0;
  std::vector<std::pair<std::string, std::uint64_t>> table_versions_;
};

}  // namespace bbpim::db
