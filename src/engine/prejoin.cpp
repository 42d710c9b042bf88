#include "engine/prejoin.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "engine/filter_compiler.hpp"
#include "engine/group_index.hpp"
#include "host/pipeline.hpp"
#include "pim/controller.hpp"
#include "pim/trackers.hpp"

namespace bbpim::engine {

rel::Table prejoin(const rel::Table& fact, std::span<const DimensionSpec> dims,
                   std::string name) {
  // Output schema: fact attributes, then each dimension's carried attributes.
  std::vector<rel::Attribute> attrs = fact.schema().attributes();

  struct DimPlan {
    const rel::Table* dim;
    std::size_t fk_idx;                     // in fact
    std::vector<std::size_t> carried;       // dim attribute indices
    CodeIndex key_to_row{0};                // dim key -> dim row
  };
  std::vector<DimPlan> plans;

  for (const DimensionSpec& spec : dims) {
    if (spec.dim == nullptr) throw std::invalid_argument("prejoin: null dim");
    DimPlan plan;
    plan.dim = spec.dim;
    const auto fk = fact.schema().index_of(spec.fact_fk);
    if (!fk) throw std::invalid_argument("prejoin: unknown fk " + spec.fact_fk);
    plan.fk_idx = *fk;
    const auto key = spec.dim->schema().index_of(spec.dim_key);
    if (!key) throw std::invalid_argument("prejoin: unknown key " + spec.dim_key);
    if (spec.dim->row_count() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("prejoin: dimension " + spec.dim->name() +
                                  " has more than 2^32 - 1 rows");
    }

    for (std::size_t a = 0; a < spec.dim->schema().attribute_count(); ++a) {
      const std::string& aname = spec.dim->schema().attribute(a).name;
      if (a == *key) continue;
      bool excluded = false;
      for (const std::string& e : spec.exclude) {
        if (e == aname) {
          excluded = true;
          break;
        }
      }
      if (excluded) continue;
      plan.carried.push_back(a);
      attrs.push_back(spec.dim->schema().attribute(a));
      attrs.back().dimension = true;
    }

    spec.dim->visit_column(*key, [&](auto keys) {
      plan.key_to_row = CodeIndex(keys.size());
      for (std::size_t r = 0; r < keys.size(); ++r) {
        if (plan.key_to_row.insert(keys[r]) != r) {
          throw std::invalid_argument("prejoin: duplicate dimension key in " +
                                      spec.dim->name());
        }
      }
    });
    plans.push_back(std::move(plan));
  }

  // Column at a time, each at its native width: the fact columns are
  // copied whole; per dimension, every foreign key resolves once to a
  // dimension row, and each carried column is gathered through those rows
  // in one pass.
  std::vector<rel::Table::Column> columns;
  columns.reserve(attrs.size());
  for (std::size_t a = 0; a < fact.schema().attribute_count(); ++a) {
    fact.visit_column(a, [&](auto col) {
      columns.emplace_back(std::vector(col.begin(), col.end()));
    });
  }
  const std::size_t n = fact.row_count();
  std::vector<std::uint32_t> dim_row(n);
  for (const DimPlan& plan : plans) {
    fact.visit_column(plan.fk_idx, [&](auto fks) {
      for (std::size_t r = 0; r < n; ++r) {
        dim_row[r] = plan.key_to_row.find(fks[r]);
        if (dim_row[r] == CodeIndex::kAbsent) {
          throw std::runtime_error("prejoin: dangling foreign key in row " +
                                   std::to_string(r));
        }
      }
    });
    for (const std::size_t a : plan.carried) {
      plan.dim->visit_column(a, [&](auto src) {
        std::vector<typename decltype(src)::value_type> dst(n);
        for (std::size_t r = 0; r < n; ++r) dst[r] = src[dim_row[r]];
        columns.emplace_back(std::move(dst));
      });
    }
  }
  return rel::Table::from_columns(rel::Schema(std::move(attrs)),
                                  std::move(name), std::move(columns));
}

UpdateStats pim_update(PimStore& store, const host::HostConfig& hcfg,
                       const std::vector<sql::BoundPredicate>& where,
                       std::size_t attr, std::uint64_t new_value) {
  assert(store.mutation_locked_by_caller() &&
         "pim_update requires the store's mutation lock "
         "(PimStore::lock_mutation); the db facade's writer gate takes it");
  // Checked by provenance, not by this store's parts: the shared update log
  // replays on every placement, so a one-part store refuses what two-xb
  // would.
  const rel::Schema& schema = store.table().schema();
  const bool dimension = schema.attribute(attr).dimension;
  for (const sql::BoundPredicate& p : where) {
    if (p.kind != sql::BoundPredicate::Kind::kAlways &&
        p.kind != sql::BoundPredicate::Kind::kNever &&
        schema.attribute(p.attr).dimension != dimension) {
      throw std::invalid_argument(
          "pim_update: predicates must share the updated attribute's "
          "provenance (fact or dimension; Algorithm 1 computes the select "
          "bit in its two-xb part)");
    }
  }
  const int part = store.part_of_attr(attr);
  const RecordLayout& layout = store.layout(part);
  const pim::Field target = layout.field(attr);
  if (new_value > width_max(target.width)) {
    throw std::invalid_argument("pim_update: value overflows attribute");
  }
  // Raw width is not enough: a dictionary of 6 values packs into 3 bits,
  // so code 7 fits the field yet decodes to nothing. Validate through the
  // encoding so an undecodable record can never be written.
  const rel::Attribute& attr_meta = schema.attribute(attr);
  if (attr_meta.dict != nullptr && new_value >= attr_meta.dict->size()) {
    throw std::invalid_argument(
        "pim_update: value " + std::to_string(new_value) +
        " has no dictionary code for attribute '" + attr_meta.name + "'");
  }

  // One program: filter -> select bit -> Algorithm 1 MUX. No host reads.
  pim::ColumnAlloc alloc = layout.make_alloc();
  CompiledFilter filter = compile_filter(where, layout, alloc);
  pim::ProgramBuilder pb(alloc, std::move(filter.program));
  pb.emit_mux_const(target, new_value, filter.result_col);
  const pim::Program program = pb.take();

  const pim::PimConfig& cfg = store.module().config();
  store.module().reset_wear();  // per-request wear, like the query path
  pim::EnergyMeter meter;
  pim::PowerTracker tracker;
  std::vector<pim::RequestTrace> traces;
  std::size_t updated = 0;
  // Crossbars with at least one rewritten row: the zone-map sketches of
  // exactly these are rebuilt below (incremental maintenance).
  std::vector<std::uint32_t> touched_crossbars;
  for (std::size_t p = 0; p < store.pages_per_part(); ++p) {
    pim::Page& page = store.page(part, p);
    traces.push_back(pim::execute_program(page, program, cfg, &meter));
    for (std::uint32_t x = 0; x < page.crossbar_count(); ++x) {
      const std::size_t selected =
          page.crossbar(x).column_popcount(filter.result_col);
      if (selected > 0) {
        touched_crossbars.push_back(
            static_cast<std::uint32_t>(p * cfg.crossbars_per_page + x));
      }
      updated += selected;
    }
  }
  host::ScheduleParams params;
  params.threads = hcfg.threads;
  params.window = hcfg.request_window;
  params.issue_gap_ns = hcfg.issue_ns;
  const TimeNs end = host::schedule_requests(traces, params, 0.0, &tracker);

  UpdateStats stats;
  stats.total_ns = end + hcfg.phase_overhead_ns;
  const pim::EnergyBreakdown energy = pim::energy_breakdown(meter);
  stats.energy_j = energy.total;
  stats.energy_logic_j = energy.logic;
  stats.energy_write_j = energy.write;
  stats.energy_controller_j = energy.controller;
  stats.peak_chip_w = tracker.peak_module_w() / cfg.chips;
  stats.wear_row_writes = store.module().max_row_writes();
  stats.cycles = program.gates.size();
  stats.updated_records = updated;

  // Host alternative: read the filter bit-vector (one line per page row),
  // then read-modify-write the record chunk of every match.
  const double bitvec_lines = static_cast<double>(store.pages_per_part()) *
                              cfg.crossbar_rows / hcfg.threads;
  const double rmw_lines = 2.0 * static_cast<double>(updated) / hcfg.threads;
  stats.host_path_estimate_ns = bitvec_lines * hcfg.line_stream_ns +
                                rmw_lines * hcfg.line_random_ns +
                                2 * hcfg.phase_overhead_ns;

  alloc.release(filter.result_col);

  // Derived state (distinct stats, co-occurrence maps, zone-map sketches of
  // the touched crossbars, page classifications) observed old data; move to
  // the next version's while the mutation lock is still held. A no-match update changed nothing, so its
  // derived state stays warm.
  if (updated > 0) store.note_mutation(attr, touched_crossbars);
  return stats;
}

}  // namespace bbpim::engine
