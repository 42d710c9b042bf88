// Maintaining a pre-joined relation with Algorithm 1 (Section III).
//
// Pre-joining duplicates each dimension value into every matching fact
// record, which normally makes UPDATE expensive. This example renames a
// supplier city across the whole pre-joined SSB relation with one SQL
// statement — UPDATE ... SET ... WHERE through the db facade, which routes
// it to the paper's PIM MUX (a filter program plus one conditional write
// per attribute bit, zero host reads) under the Database writer gate —
// and verifies the mutated store record by record.
//
//   ./examples/update_inplace
#include <iostream>

#include "common/table_printer.hpp"
#include "common/units.hpp"
#include "db/db.hpp"
#include "ssb/dbgen.hpp"

int main() {
  using namespace bbpim;

  ssb::SsbConfig gen;
  gen.scale_factor = 0.05;
  const ssb::SsbData data = ssb::generate(gen);

  db::Database database;
  const rel::Table& prejoined =
      database.register_table(ssb::prejoin_ssb(data));
  db::Session session(database);

  const std::size_t s_city = *prejoined.schema().index_of("s_city");
  const auto& dict = *prejoined.schema().attribute(s_city).dict;
  const std::uint64_t old_code = *dict.code("UNITED ST0");
  const std::uint64_t new_code = *dict.code("UNITED ST9");

  std::size_t expected = 0;
  for (std::size_t r = 0; r < prejoined.row_count(); ++r) {
    expected += prejoined.value(r, s_city) == old_code;
  }
  const char* sql =
      "UPDATE ssb_prejoined SET s_city = 'UNITED ST9' "
      "WHERE s_city = 'UNITED ST0'";
  std::cout << sql << "\n(" << expected << " of " << prejoined.row_count()
            << " records hold the duplicated value)\n\n";

  const db::ResultSet rs = session.execute(sql, db::BackendKind::kOneXb);
  const engine::UpdateStats& st = rs.update_stats();

  TablePrinter t({"Metric", "PIM (Algorithm 1)", "Host read-modify-write"});
  t.add_row({"Updated records", std::to_string(st.updated_records), "same"});
  t.add_row({"Latency",
             TablePrinter::fmt(units::ns_to_ms(st.total_ns), 3) + " ms",
             TablePrinter::fmt(units::ns_to_ms(st.host_path_estimate_ns), 3) +
                 " ms"});
  t.add_row({"Bulk-bitwise cycles/page", std::to_string(st.cycles), "0"});
  t.add_row({"Data version", std::to_string(rs.data_version()), "-"});
  t.print(std::cout);

  // Verify the crossbar store against the immutable source relation.
  std::cout << "\nVerifying the mutated store record by record... ";
  engine::PimStore& store =
      session.pim_engine(engine::EngineKind::kOneXb).store();
  bool ok = st.updated_records == expected;
  for (std::size_t r = 0; r < prejoined.row_count() && ok; ++r) {
    const std::uint64_t before = prejoined.value(r, s_city);
    const std::uint64_t after = store.read_attr(r, s_city);
    ok = after == (before == old_code ? new_code : before);
  }
  std::cout << (ok ? "OK — every duplicated copy updated, nothing else "
                     "touched.\n"
                   : "MISMATCH!\n");
  return ok ? 0 : 1;
}
