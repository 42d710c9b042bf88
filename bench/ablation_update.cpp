// Ablation: UPDATE on the pre-joined relation (Section III, Algorithm 1).
//
// Pre-joining duplicates dimension values into every matching fact record;
// the paper's answer is a pure-PIM read-free update (filter + MUX). This
// bench drives the full SQL surface — UPDATE ... SET ... WHERE through the
// db facade's prepare/execute path and writer gate — updating s_city for
// all records of one city, and compares the PIM path against the modeled
// host read-modify-write path across update selectivities.
#include <iostream>
#include <string>

#include "common/table_printer.hpp"
#include "common/units.hpp"
#include "harness.hpp"

int main() {
  using namespace bbpim;
  bench::BenchWorld world;
  db::Session& session = world.session();
  const rel::Schema& schema = world.prejoined().schema();
  const std::size_t s_city = *schema.index_of("s_city");
  const auto& dict = *schema.attribute(s_city).dict;

  std::cout << "=== UPDATE via Algorithm 1 vs host read-modify-write ===\n";
  std::cout << "UPDATE ssb_prejoined SET s_city = <city> WHERE s_city = "
               "<city>\n\n";
  TablePrinter t({"city", "records", "share", "PIM [ms]", "host est. [ms]",
                  "PIM cycles"});

  // A mix of hot (Zipf head) and cold cities. Rewriting the same code has
  // identical cost (Algorithm 1's work does not depend on the value) and
  // keeps the store pristine for other selectivity points.
  for (const char* city : {"ALGERIA  0", "UNITED ST0", "UNITED KI1",
                           "CHINA    9"}) {
    if (!dict.code(city)) continue;
    const std::string sql = std::string("UPDATE ssb_prejoined SET s_city = '") +
                            city + "' WHERE s_city = '" + city + "'";
    const db::ResultSet rs = session.execute(sql, db::BackendKind::kOneXb);
    const engine::UpdateStats& st = rs.update_stats();
    t.add_row({city, std::to_string(st.updated_records),
               TablePrinter::fmt(100.0 * st.updated_records /
                                     world.prejoined().row_count(),
                                 2) + "%",
               TablePrinter::fmt(units::ns_to_ms(st.total_ns), 3),
               TablePrinter::fmt(units::ns_to_ms(st.host_path_estimate_ns), 3),
               std::to_string(st.cycles)});
  }
  t.print(std::cout);
  std::cout << "\nThe PIM path reads nothing from memory (Algorithm 1's "
               "point); the host path pays the filter-result read plus two "
               "random lines per matching record.\nEvery update above "
               "committed through the facade's writer gate (final data "
               "version: "
            << world.database().update_version(world.prejoined()) << ").\n";
  return 0;
}
