// Tests for the SSB generator: schema shape, hierarchy consistency, skew,
// preserved selectivities, and the pre-joined relation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "sql/logical_plan.hpp"
#include "sql/parser.hpp"
#include "ssb/dbgen.hpp"
#include "ssb/names.hpp"
#include "ssb/queries.hpp"

namespace bbpim::ssb {
namespace {

SsbConfig tiny_config() {
  SsbConfig cfg;
  cfg.scale_factor = 0.01;
  cfg.seed = 5;
  return cfg;
}

TEST(Names, CityHierarchyInterleaves) {
  // City rank r: nation r%25, region r%5; exactly 10 cities per nation.
  for (std::size_t r = 0; r < 250; ++r) {
    EXPECT_EQ(city_nation(r), r % 25);
    EXPECT_EQ(city_region(r), r % 5);
  }
  EXPECT_EQ(city_name(21), "UNITED ST0");   // UNITED STATES is nation 21
  EXPECT_EQ(city_name(23 + 25), "UNITED KI1");
  EXPECT_EQ(city_names().size(), 250u);
}

TEST(Names, NationRegionAlignment) {
  // kNations is ordered so that index % 5 is the region; verify a few known
  // memberships of the real SSB mapping.
  EXPECT_EQ(kNations[21], "UNITED STATES");
  EXPECT_EQ(kRegions[21 % 5], "AMERICA");
  EXPECT_EQ(kNations[23], "UNITED KINGDOM");
  EXPECT_EQ(kRegions[23 % 5], "EUROPE");
  EXPECT_EQ(kNations[2], "CHINA");
  EXPECT_EQ(kRegions[2 % 5], "ASIA");
}

TEST(Names, BrandHierarchy) {
  EXPECT_EQ(mfgr_name(0), "MFGR#1");
  EXPECT_EQ(category_name(6), "MFGR#22");
  EXPECT_EQ(brand_name(6), "MFGR#221");           // bnum 1
  EXPECT_EQ(brand_name(6 + 25 * 20), "MFGR#2221");  // bnum 21
  EXPECT_EQ(part_colors().size(), 92u);
  EXPECT_EQ(part_types().size(), 150u);
  EXPECT_EQ(part_containers().size(), 40u);
}

class DbgenFixture : public ::testing::Test {
 protected:
  static const SsbData& data() {
    static const SsbData d = generate(tiny_config());
    return d;
  }
  static const rel::Table& prejoined() {
    static const rel::Table t = prejoin_ssb(data());
    return t;
  }
};

TEST_F(DbgenFixture, Cardinalities) {
  EXPECT_EQ(data().date.row_count(), 2555u);
  EXPECT_EQ(data().customer.row_count(), 300u);
  EXPECT_EQ(data().supplier.row_count(), 40u);
  EXPECT_EQ(data().part.row_count(), 2000u);
  EXPECT_EQ(data().lineorder.row_count(), 15000u * 4);
}

TEST_F(DbgenFixture, DateAttributesConsistent) {
  const rel::Table& d = data().date;
  const std::size_t year = *d.schema().index_of("d_year");
  const std::size_t ymn = *d.schema().index_of("d_yearmonthnum");
  const std::size_t month = *d.schema().index_of("d_monthnuminyear");
  const std::size_t week = *d.schema().index_of("d_weeknuminyear");
  for (std::size_t r = 0; r < d.row_count(); r += 97) {
    EXPECT_GE(d.value(r, year), 1992u);
    EXPECT_LE(d.value(r, year), 1998u);
    EXPECT_EQ(d.value(r, ymn), d.value(r, year) * 100 + d.value(r, month));
    EXPECT_GE(d.value(r, week), 1u);
    EXPECT_LE(d.value(r, week), 53u);
  }
  // Q3.4's literal must exist.
  const auto& ym_attr = d.schema().attribute(*d.schema().index_of("d_yearmonth"));
  EXPECT_TRUE(ym_attr.dict->code("Dec1997").has_value());
}

TEST_F(DbgenFixture, CustomerHierarchyConsistent) {
  const rel::Table& c = data().customer;
  const std::size_t city = *c.schema().index_of("c_city");
  const std::size_t nation = *c.schema().index_of("c_nation");
  const std::size_t region = *c.schema().index_of("c_region");
  const auto& city_attr = c.schema().attribute(city);
  for (std::size_t r = 0; r < c.row_count(); ++r) {
    const std::string city_str = city_attr.dict->value(c.value(r, city));
    const std::string nation_str =
        c.schema().attribute(nation).dict->value(c.value(r, nation));
    const std::string region_str =
        c.schema().attribute(region).dict->value(c.value(r, region));
    // The city prefix is the nation's first 9 chars (space padded).
    std::string prefix(std::string(nation_str).substr(0, 9));
    prefix.resize(9, ' ');
    EXPECT_EQ(city_str.substr(0, 9), prefix);
    // Nation is in the right region per the index%5 alignment.
    std::size_t n_idx = 0;
    while (kNations[n_idx] != nation_str) ++n_idx;
    EXPECT_EQ(kRegions[n_idx % 5], region_str);
  }
}

TEST_F(DbgenFixture, SkewedCitiesUniformRegions) {
  const rel::Table& c = data().customer;
  const std::size_t city = *c.schema().index_of("c_city");
  const std::size_t region = *c.schema().index_of("c_region");
  std::map<std::uint64_t, std::size_t> city_counts, region_counts;
  for (std::size_t r = 0; r < c.row_count(); ++r) {
    ++city_counts[c.value(r, city)];
    ++region_counts[c.value(r, region)];
  }
  // Skew: the largest city holds far more than the uniform share (300/250).
  std::size_t max_city = 0;
  for (const auto& [k, v] : city_counts) max_city = std::max(max_city, v);
  EXPECT_GT(max_city, 10u);
  // Regions stay balanced within a factor ~2 of each other.
  std::size_t mn = ~0ULL, mx = 0;
  for (const auto& [k, v] : region_counts) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  ASSERT_EQ(region_counts.size(), 5u);
  EXPECT_LT(static_cast<double>(mx) / mn, 2.0);
}

TEST_F(DbgenFixture, QuerySelectivitiesNearPaper) {
  // Selectivities on the pre-joined relation should be within a small
  // factor of Table II despite the skew (README, "Deviations from the
  // paper").
  const rel::Table& pj = prejoined();
  for (const char* id : {"1.1", "1.2", "2.1", "3.1", "4.1"}) {
    const SsbQuery& q = query(id);
    const sql::BoundQuery bound = sql::bind(sql::parse(q.sql), pj.schema());
    std::size_t hits = 0;
    for (std::size_t r = 0; r < pj.row_count(); ++r) {
      bool ok = true;
      for (const auto& p : bound.filters) {
        if (!p.matches(pj.value(r, p.attr))) {
          ok = false;
          break;
        }
      }
      hits += ok;
    }
    const double sel = static_cast<double>(hits) / pj.row_count();
    EXPECT_GT(sel, q.paper_selectivity / 5) << "query " << id;
    EXPECT_LT(sel, q.paper_selectivity * 5) << "query " << id;
  }
}

TEST_F(DbgenFixture, PrejoinedShape) {
  const rel::Table& pj = prejoined();
  EXPECT_EQ(pj.row_count(), data().lineorder.row_count());
  // NAME/ADDRESS of customer and supplier are dropped.
  EXPECT_FALSE(pj.schema().index_of("c_name").has_value());
  EXPECT_FALSE(pj.schema().index_of("c_address").has_value());
  EXPECT_FALSE(pj.schema().index_of("s_name").has_value());
  EXPECT_FALSE(pj.schema().index_of("s_address").has_value());
  // Everything the 13 queries touch is present.
  for (const char* col :
       {"lo_discount", "lo_quantity", "lo_extendedprice", "lo_revenue",
        "lo_supplycost", "d_year", "d_yearmonthnum", "d_yearmonth",
        "d_weeknuminyear", "p_category", "p_brand1", "p_mfgr", "s_region",
        "s_nation", "s_city", "c_region", "c_nation", "c_city"}) {
    EXPECT_TRUE(pj.schema().index_of(col).has_value()) << col;
  }
  // One record fits a single 512-bit crossbar row (the paper's claim).
  EXPECT_LE(pj.schema().record_bits() + 1, 512u);

  // Column for column, the same relation as a row-by-row reference join:
  // the lineorder attributes, then each dimension's attributes other than
  // its key and the dropped NAME/ADDRESS texts, looked up through an
  // ordered key -> row map.
  struct Dim {
    const rel::Table* table;
    const char* fk;
    const char* key;
    std::vector<std::string> drop;
  };
  const Dim dims[] = {
      {&data().date, "lo_orderdate", "d_datekey", {"d_datekey"}},
      {&data().customer, "lo_custkey", "c_custkey",
       {"c_custkey", "c_name", "c_address"}},
      {&data().supplier, "lo_suppkey", "s_suppkey",
       {"s_suppkey", "s_name", "s_address"}},
      {&data().part, "lo_partkey", "p_partkey", {"p_partkey"}},
  };
  const rel::Table& lo = data().lineorder;
  std::vector<rel::Attribute> want_attrs = lo.schema().attributes();
  std::vector<std::vector<std::uint64_t>> want(want_attrs.size());
  for (std::size_t r = 0; r < lo.row_count(); ++r) {
    for (std::size_t a = 0; a < lo.schema().attribute_count(); ++a) {
      want[a].push_back(lo.value(r, a));
    }
  }
  for (const Dim& dim : dims) {
    const rel::Schema& ds = dim.table->schema();
    const std::size_t key = *ds.index_of(dim.key);
    std::map<std::uint64_t, std::size_t> row_of;
    for (std::size_t r = 0; r < dim.table->row_count(); ++r) {
      row_of.emplace(dim.table->value(r, key), r);
    }
    const std::size_t fk = *lo.schema().index_of(dim.fk);
    for (std::size_t a = 0; a < ds.attribute_count(); ++a) {
      if (std::find(dim.drop.begin(), dim.drop.end(), ds.attribute(a).name) !=
          dim.drop.end()) {
        continue;
      }
      want_attrs.push_back(ds.attribute(a));
      std::vector<std::uint64_t>& col = want.emplace_back();
      for (std::size_t r = 0; r < lo.row_count(); ++r) {
        col.push_back(dim.table->value(row_of.at(lo.value(r, fk)), a));
      }
    }
  }
  ASSERT_EQ(pj.schema().attribute_count(), want_attrs.size());
  for (std::size_t a = 0; a < want_attrs.size(); ++a) {
    const rel::Attribute& got = pj.schema().attribute(a);
    EXPECT_EQ(got.name, want_attrs[a].name) << a;
    EXPECT_EQ(got.type, want_attrs[a].type) << got.name;
    EXPECT_EQ(got.bits, want_attrs[a].bits) << got.name;
    EXPECT_EQ(got.dict, want_attrs[a].dict) << got.name;
    // The pre-joiner flags what it carries in: the paper's two-xb split.
    EXPECT_EQ(got.dimension, a >= lo.schema().attribute_count()) << got.name;
    EXPECT_EQ(pj.column(a), want[a]) << got.name;
  }
}

/// Checks that every value of each of `attrs` of `t` covers one contiguous
/// run of the key attribute `key`.
void expect_key_ranges(const rel::Table& t, const char* key,
                       std::initializer_list<const char*> attrs) {
  const rel::Schema& s = t.schema();
  const std::size_t k = *s.index_of(key);
  for (const char* name : attrs) {
    const std::size_t a = *s.index_of(name);
    std::map<std::uint64_t, std::vector<std::uint64_t>> keys_of;
    for (std::size_t r = 0; r < t.row_count(); ++r) {
      keys_of[t.value(r, a)].push_back(t.value(r, k));
    }
    EXPECT_GT(keys_of.size(), 1u) << name;
    for (const auto& [code, keys] : keys_of) {
      const auto [lo, hi] = std::minmax_element(keys.begin(), keys.end());
      EXPECT_EQ(*hi - *lo + 1, keys.size())
          << name << " = '" << s.attribute(a).dict->value(code) << "'";
    }
  }
}

TEST_F(DbgenFixture, HierarchyValuesAreKeyRanges) {
  // Surrogate keys follow the hierarchy, so every SSB dimension filter
  // selects one run of keys.
  expect_key_ranges(data().customer, "c_custkey",
                    {"c_region", "c_nation", "c_city"});
  expect_key_ranges(data().supplier, "s_suppkey",
                    {"s_region", "s_nation", "s_city"});
  expect_key_ranges(data().part, "p_partkey",
                    {"p_mfgr", "p_category", "p_brand1"});
}

TEST_F(DbgenFixture, KeysRunInRowOrderAndNameTheirRow) {
  const auto check = [](const rel::Table& t, const char* key,
                        const char* name, const char* prefix) {
    const rel::Schema& s = t.schema();
    const std::size_t k = *s.index_of(key);
    const std::size_t n = name ? *s.index_of(name) : 0;
    for (std::size_t r = 0; r < t.row_count(); ++r) {
      ASSERT_EQ(t.value(r, k), r + 1) << key;
      if (name == nullptr) continue;
      char want[32];
      std::snprintf(want, sizeof want, "%s#%09zu", prefix, r + 1);
      ASSERT_EQ(s.attribute(n).dict->value(t.value(r, n)), want) << name;
    }
  };
  check(data().customer, "c_custkey", "c_name", "Customer");
  check(data().supplier, "s_suppkey", "s_name", "Supplier");
  check(data().part, "p_partkey", nullptr, nullptr);
}

TEST_F(DbgenFixture, PrejoinedNonKeyColumnsKeepTheirDigest) {
  // The key order is a loader choice: apart from the three surrogate
  // foreign keys, the pre-joined relation keeps every value and row order
  // of the draw-order generator (FNV-1a over name and values per column).
  const rel::Table& pj = prejoined();
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t a = 0; a < pj.schema().attribute_count(); ++a) {
    const std::string& name = pj.schema().attribute(a).name;
    if (name == "lo_custkey" || name == "lo_partkey" || name == "lo_suppkey") {
      continue;
    }
    for (const char c : name) mix(static_cast<unsigned char>(c));
    for (std::size_t r = 0; r < pj.row_count(); ++r) mix(pj.value(r, a));
  }
  EXPECT_EQ(h, 0xDBF4B3B2EC9F1249ULL);  // recorded before the re-key
}

TEST_F(DbgenFixture, RevenueDerivation) {
  const rel::Table& lo = data().lineorder;
  const std::size_t price = *lo.schema().index_of("lo_extendedprice");
  const std::size_t disc = *lo.schema().index_of("lo_discount");
  const std::size_t rev = *lo.schema().index_of("lo_revenue");
  for (std::size_t r = 0; r < lo.row_count(); r += 499) {
    EXPECT_EQ(lo.value(r, rev),
              lo.value(r, price) * (100 - lo.value(r, disc)) / 100);
  }
}

TEST(Dbgen, DeterministicForSeed) {
  const SsbData a = generate(tiny_config());
  const SsbData b = generate(tiny_config());
  ASSERT_EQ(a.lineorder.row_count(), b.lineorder.row_count());
  for (std::size_t r = 0; r < 100; ++r) {
    for (std::size_t c = 0; c < a.lineorder.schema().attribute_count(); ++c) {
      ASSERT_EQ(a.lineorder.value(r, c), b.lineorder.value(r, c));
    }
  }
}

TEST(Dbgen, RejectsBadScale) {
  SsbConfig cfg;
  cfg.scale_factor = 0;
  EXPECT_THROW(generate(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace bbpim::ssb
