// Pre-joined relations (Section III).
//
// JOIN needs data-dependent movement that bulk-bitwise PIM cannot do, so the
// engine stores the equi-join of the fact relation with its dimension
// relations. Because dimension keys are unique, the join is one-to-one from
// the fact side: the output has exactly the fact's row count, and the added
// dimension attributes fit the crossbar row space the fact relation was
// underusing — no extra memory in the common case.
//
// The UPDATE drawback of pre-joining (a dimension value duplicated into many
// fact rows) is mitigated with Algorithm 1: filter the rows holding the old
// value with PIM, then MUX-write the new value under that select bit —
// no host reads at all.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "engine/pim_store.hpp"
#include "host/config.hpp"
#include "relational/table.hpp"
#include "sql/logical_plan.hpp"

namespace bbpim::engine {

/// One dimension to fold into the fact relation.
struct DimensionSpec {
  const rel::Table* dim = nullptr;
  std::string fact_fk;   ///< fact attribute holding the dimension key
  std::string dim_key;   ///< unique key attribute of the dimension
  /// Dimension attributes left out of the pre-join (the paper drops the
  /// long NAME/ADDRESS texts of CUSTOMER and SUPPLIER).
  std::vector<std::string> exclude;
};

/// Equi-joins the fact relation with every dimension on its key.
/// The output keeps all fact attributes (including the foreign keys) and
/// appends each dimension's attributes except its key and the excluded ones,
/// flagged rel::Attribute::dimension: the paper's two-xb split.
///
/// Built a column at a time, at native widths: per dimension, a key -> row
/// hash map is built once and every foreign key resolves once into a vector
/// of dimension rows; the fact columns are copied whole, each carried
/// dimension column is gathered through that vector in one pass into a
/// column of its own element type, and rel::Table::from_columns checks each
/// output column's width once. No uint64 copy of the relation is built.
///
/// Throws std::invalid_argument on an unknown attribute or a duplicate
/// dimension key, and std::runtime_error naming the fact row when a foreign
/// key has no match (SSB guarantees referential integrity).
rel::Table prejoin(const rel::Table& fact, std::span<const DimensionSpec> dims,
                   std::string name = "prejoined");

/// Statistics of one PIM UPDATE (Algorithm 1). Energy, peak power, and
/// wear account with the same trackers the query path uses, so the HTAP
/// benches can put reads and writes on one axis.
struct UpdateStats {
  TimeNs total_ns = 0;
  EnergyJ energy_j = 0;
  EnergyJ energy_logic_j = 0;
  EnergyJ energy_write_j = 0;
  EnergyJ energy_controller_j = 0;
  PowerW peak_chip_w = 0;             ///< peak power of one PIM chip
  std::uint64_t wear_row_writes = 0;  ///< worst per-row write cycles
  std::size_t cycles = 0;          ///< bulk-bitwise cycles executed per page
  std::size_t updated_records = 0;

  /// What the same update would cost without PIM: read the filter result,
  /// then read-modify-write each matching record through the host.
  TimeNs host_path_estimate_ns = 0;
};

/// UPDATE <store> SET attr = value WHERE <where> executed entirely in PIM:
/// a filter program computes the select bit, then the MUX of Algorithm 1
/// overwrites the attribute only where selected. The predicates and the
/// updated attribute must share a provenance (rel::Attribute::dimension),
/// on every store, so the shared update log replays on every placement.
///
/// The new value is validated through the attribute's encoding: a
/// dictionary-encoded attribute rejects codes outside the dictionary even
/// when they fit the field's raw bit width (such a write would produce
/// records no decode can read), and integer attributes reject values beyond
/// the packed width.
///
/// Mutation protocol: the caller must hold the store's mutation lock
/// (PimStore::lock_mutation; asserted in debug builds). On a successful
/// update that changed at least one record, the store moves to the next
/// version's derived state via PimStore::note_mutation. The db facade routes every
/// SQL UPDATE through the Database-level writer gate, which additionally
/// excludes in-flight reads on the same table.
UpdateStats pim_update(PimStore& store, const host::HostConfig& hcfg,
                       const std::vector<sql::BoundPredicate>& where,
                       std::size_t attr, std::uint64_t new_value);

}  // namespace bbpim::engine
