// Answer oracles: row digests and the serial log fold of htap_rename.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_exec.hpp"
#include "relational/table.hpp"
#include "sql/logical_plan.hpp"

namespace perfbench {

/// Order-sensitive FNV-1a digest of result rows (the row order of a result
/// is part of its answer: ORDER BY and the engines' final sort).
std::uint64_t row_digest(const std::vector<bbpim::engine::ResultRow>& rows);

/// The serial log-fold oracle: a host copy of a relation's updated columns,
/// folded one UPDATE at a time in commit order, that answers a SELECT at
/// the current version with the scalar reference executor
/// (baseline::scan_execute). Nothing here touches the PIM store.
class FoldOracle {
 public:
  /// `table` is the pristine relation (version 0); it must outlive the
  /// oracle.
  explicit FoldOracle(const bbpim::rel::Table& table) : table_(&table) {}

  /// Applies the next update of the log; returns the records it matched.
  std::size_t apply(const bbpim::sql::BoundUpdate& update);
  /// Updates applied so far (the data version the oracle answers at).
  std::uint64_t version() const { return version_; }

  /// Digest of the reference rows of `q` at the current version. Memoized
  /// per (text, content of the updated columns `q` reads), so a text that
  /// reads no updated column is evaluated once.
  std::uint64_t digest(const std::string& text,
                       const bbpim::sql::BoundQuery& q);

  /// FNV-1a over every record's attribute codes in row order: the digest
  /// PimStore::contents_checksum computes over the crossbars.
  std::uint64_t contents_checksum() const;

 private:
  std::uint64_t value(std::size_t row, std::size_t attr) const;

  const bbpim::rel::Table* table_;
  std::uint64_t version_ = 0;
  std::map<std::size_t, std::vector<std::uint64_t>> folded_;  ///< by attr
  std::map<std::size_t, std::uint64_t> folded_hash_;          ///< by attr
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> memo_;
};

}  // namespace perfbench
