#include "ssb/dbgen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "engine/prejoin.hpp"
#include "ssb/names.hpp"

namespace bbpim::ssb {
namespace {

constexpr std::size_t kDays = 2555;  // 7 years x 365 (leap days ignored)
constexpr std::uint32_t kMonthLen[12] = {31, 28, 31, 30, 31, 30,
                                         31, 31, 30, 31, 30, 31};
constexpr std::uint32_t kMaxPartPrice = 20000;
constexpr std::uint32_t kMinPartPrice = 90;

std::shared_ptr<const rel::Dictionary> make_dict(
    std::vector<std::string> values) {
  return std::make_shared<const rel::Dictionary>(
      rel::Dictionary::from_values(std::move(values)));
}

template <typename Range>
std::shared_ptr<const rel::Dictionary> make_dict_of(const Range& range) {
  std::vector<std::string> values;
  for (const auto& v : range) values.emplace_back(v);
  return make_dict(std::move(values));
}

rel::Attribute int_attr(std::string name, std::uint64_t max_value) {
  return {std::move(name), rel::DataType::kInt, rel::bits_for_max(max_value),
          nullptr};
}

rel::Attribute str_attr(std::string name,
                        std::shared_ptr<const rel::Dictionary> dict) {
  const std::uint32_t bits = dict->code_bits();
  return {std::move(name), rel::DataType::kString, bits, std::move(dict)};
}

std::uint64_t code_of(const rel::Attribute& attr, const std::string& value) {
  const auto c = attr.dict->code(value);
  if (!c) {
    throw std::logic_error("dbgen: value '" + value + "' missing from dict of " +
                           attr.name);
  }
  return *c;
}

struct DateParts {
  std::uint32_t year, month /*1..12*/, day /*1..31*/, day_of_year /*1..365*/;
};

DateParts split_date(std::size_t day_index) {
  DateParts d;
  d.year = static_cast<std::uint32_t>(1992 + day_index / 365);
  std::uint32_t diy = static_cast<std::uint32_t>(day_index % 365);
  d.day_of_year = diy + 1;
  d.month = 1;
  for (std::uint32_t m = 0; m < 12; ++m) {
    if (diy < kMonthLen[m]) {
      d.month = m + 1;
      d.day = diy + 1;
      return d;
    }
    diy -= kMonthLen[m];
  }
  throw std::logic_error("split_date: bad day index");
}

std::string iso_date(const DateParts& d) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%04u-%02u-%02u", d.year, d.month, d.day);
  return buf;
}

std::string yearmonth(const DateParts& d) {
  return std::string(kMonthAbbrev[d.month - 1]) + std::to_string(d.year);
}

std::string season_of(std::uint32_t month) {
  if (month == 12) return std::string(kSeasons[4]);  // Christmas
  if (month <= 2) return std::string(kSeasons[0]);   // Winter
  if (month <= 5) return std::string(kSeasons[1]);   // Spring
  if (month <= 8) return std::string(kSeasons[2]);   // Summer
  return std::string(kSeasons[3]);                   // Fall
}

std::string random_address(Rng& rng) {
  static const char* const kStreets[] = {"Oak", "Main", "Pine", "Maple",
                                         "Cedar", "Elm", "Lake", "Hill"};
  return std::to_string(1 + rng.next_below(9999)) + " " +
         kStreets[rng.next_below(8)] + " St.";
}

std::string random_phone(std::size_t nation, Rng& rng) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%02zu-%03llu-%03llu-%04llu", 10 + nation,
                static_cast<unsigned long long>(100 + rng.next_below(900)),
                static_cast<unsigned long long>(100 + rng.next_below(900)),
                static_cast<unsigned long long>(1000 + rng.next_below(9000)));
  return buf;
}

/// "<prefix>#<key>" for the keys 1..n, 9 digits zero padded.
std::vector<std::string> key_names(const char* prefix, std::size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t k = 1; k <= n; ++k) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s#%09zu", prefix, k);
    names.emplace_back(buf);
  }
  return names;
}

/// A Zipf rank's hierarchy codes, coarsest level first.
using Level = std::array<std::uint64_t, 3>;

/// Surrogate keys in hierarchy order, the way a warehouse loader assigns
/// them: drawn entities sort by the levels of their ranks, ties in draw
/// order, so every value of every level covers one run of consecutive keys.
struct KeyOrder {
  std::vector<std::size_t> drawn;     ///< per key - 1: the drawn entity
  std::vector<std::uint64_t> key_of;  ///< per drawn entity: its key

  KeyOrder(const std::vector<Level>& of_rank,
           const std::vector<std::size_t>& ranks)
      : drawn(ranks.size()), key_of(ranks.size()) {
    std::iota(drawn.begin(), drawn.end(), std::size_t{0});
    std::stable_sort(drawn.begin(), drawn.end(),
                     [&](std::size_t a, std::size_t b) {
                       return of_rank[ranks[a]] < of_rank[ranks[b]];
                     });
    for (std::size_t k = 0; k < drawn.size(); ++k) key_of[drawn[k]] = k + 1;
  }
};

/// (region, nation, city) codes of each of the 250 city ranks under a
/// customer or supplier schema (attributes 3, 4 and 5: city, nation, region).
std::vector<Level> city_levels(const rel::Schema& s) {
  std::vector<Level> of_rank(250);
  for (std::size_t r = 0; r < of_rank.size(); ++r) {
    of_rank[r] = {code_of(s.attribute(5), std::string(kRegions[city_region(r)])),
                  code_of(s.attribute(4), std::string(kNations[city_nation(r)])),
                  code_of(s.attribute(3), city_name(r))};
  }
  return of_rank;
}

}  // namespace

SsbData generate(const SsbConfig& cfg) {
  if (cfg.scale_factor <= 0) {
    throw std::invalid_argument("generate: non-positive scale factor");
  }
  const double sf = cfg.scale_factor;
  const std::size_t customers =
      std::max<std::size_t>(200, static_cast<std::size_t>(30000 * sf));
  const std::size_t suppliers =
      std::max<std::size_t>(40, static_cast<std::size_t>(2000 * sf));
  const std::size_t parts =
      sf <= 1.0 ? std::max<std::size_t>(400,
                                        static_cast<std::size_t>(200000 * sf))
                : static_cast<std::size_t>(200000 * (1.0 + std::log2(sf)));
  const std::size_t orders =
      std::max<std::size_t>(250, static_cast<std::size_t>(1500000 * sf));
  constexpr std::size_t kLinesPerOrder = 4;

  Rng root(cfg.seed);
  Rng rng_cust = root.fork(1);
  Rng rng_supp = root.fork(2);
  Rng rng_part = root.fork(3);
  Rng rng_lo = root.fork(4);

  // --- shared dictionaries --------------------------------------------------
  const auto region_dict = make_dict_of(kRegions);
  const auto nation_dict = make_dict_of(kNations);
  const auto city_dict = make_dict(city_names());

  // ==========================================================================
  // DATE
  // ==========================================================================
  rel::Table date_table = [&] {
    std::vector<std::string> dates, yearmonths;
    for (std::size_t d = 0; d < kDays; ++d) {
      const DateParts p = split_date(d);
      dates.push_back(iso_date(p));
      yearmonths.push_back(yearmonth(p));
    }
    std::vector<rel::Attribute> attrs;
    attrs.push_back(int_attr("d_datekey", kDays - 1));
    attrs.push_back(str_attr("d_date", make_dict(dates)));
    attrs.push_back(str_attr("d_dayofweek", make_dict_of(kDaysOfWeek)));
    attrs.push_back(str_attr("d_month", make_dict_of(kMonths)));
    attrs.push_back(int_attr("d_year", 1998));
    attrs.push_back(int_attr("d_yearmonthnum", 199812));
    attrs.push_back(str_attr("d_yearmonth", make_dict(yearmonths)));
    attrs.push_back(int_attr("d_daynuminweek", 7));
    attrs.push_back(int_attr("d_daynuminmonth", 31));
    attrs.push_back(int_attr("d_daynuminyear", 365));
    attrs.push_back(int_attr("d_monthnuminyear", 12));
    attrs.push_back(int_attr("d_weeknuminyear", 53));
    attrs.push_back(str_attr("d_sellingseason", make_dict_of(kSeasons)));
    attrs.push_back(int_attr("d_lastdayinweekfl", 1));
    attrs.push_back(int_attr("d_lastdayinmonthfl", 1));
    attrs.push_back(int_attr("d_holidayfl", 1));
    attrs.push_back(int_attr("d_weekdayfl", 1));
    rel::Table t(rel::Schema(std::move(attrs)), "date");
    t.reserve(kDays);
    for (std::size_t d = 0; d < kDays; ++d) {
      const DateParts p = split_date(d);
      const std::uint32_t dow = static_cast<std::uint32_t>(d % 7);
      const std::uint64_t row[] = {
          d,
          code_of(t.schema().attribute(1), iso_date(p)),
          code_of(t.schema().attribute(2), std::string(kDaysOfWeek[dow])),
          code_of(t.schema().attribute(3), std::string(kMonths[p.month - 1])),
          p.year,
          static_cast<std::uint64_t>(p.year) * 100 + p.month,
          code_of(t.schema().attribute(6), yearmonth(p)),
          dow + 1,
          p.day,
          p.day_of_year,
          p.month,
          (p.day_of_year - 1) / 7 + 1,
          code_of(t.schema().attribute(12), season_of(p.month)),
          dow == 6 ? 1ULL : 0ULL,
          p.day == kMonthLen[p.month - 1] ? 1ULL : 0ULL,
          (p.day_of_year == 1 || p.day_of_year == 359) ? 1ULL : 0ULL,
          dow < 5 ? 1ULL : 0ULL,
      };
      t.append_row(row);
    }
    return t;
  }();

  // ==========================================================================
  // CUSTOMER — city drawn from the Zipf hierarchy; keys in (region, nation,
  // city) order, the drawn attributes unchanged.
  // ==========================================================================
  const ZipfSampler city_zipf(250, cfg.zipf_theta);
  std::vector<std::uint64_t> cust_key;  // per drawn customer: its key
  rel::Table customer_table = [&] {
    const std::vector<std::string> names = key_names("Customer", customers);
    std::vector<std::string> addresses, phones;
    std::vector<std::size_t> city_ranks(customers);
    for (std::size_t i = 0; i < customers; ++i) {
      const std::size_t rank = city_zipf.sample(rng_cust);
      city_ranks[i] = rank;
      addresses.push_back(random_address(rng_cust));
      phones.push_back(random_phone(city_nation(rank), rng_cust));
    }
    std::vector<std::uint64_t> segments(customers);
    for (std::uint64_t& m : segments) {
      m = rng_cust.next_below(kMktSegments.size());
    }
    std::vector<rel::Attribute> attrs;
    attrs.push_back(int_attr("c_custkey", customers));
    attrs.push_back(str_attr("c_name", make_dict(names)));
    attrs.push_back(str_attr("c_address", make_dict(addresses)));
    attrs.push_back(str_attr("c_city", city_dict));
    attrs.push_back(str_attr("c_nation", nation_dict));
    attrs.push_back(str_attr("c_region", region_dict));
    attrs.push_back(str_attr("c_phone", make_dict(phones)));
    attrs.push_back(str_attr("c_mktsegment", make_dict_of(kMktSegments)));
    rel::Table t(rel::Schema(std::move(attrs)), "customer");
    t.reserve(customers);
    const KeyOrder order(city_levels(t.schema()), city_ranks);
    for (std::size_t k = 0; k < customers; ++k) {
      const std::size_t i = order.drawn[k];
      const std::size_t rank = city_ranks[i];
      const std::uint64_t row[] = {
          k + 1,
          code_of(t.schema().attribute(1), names[k]),
          code_of(t.schema().attribute(2), addresses[i]),
          code_of(t.schema().attribute(3), city_name(rank)),
          code_of(t.schema().attribute(4),
                  std::string(kNations[city_nation(rank)])),
          code_of(t.schema().attribute(5),
                  std::string(kRegions[city_region(rank)])),
          code_of(t.schema().attribute(6), phones[i]),
          segments[i],
      };
      t.append_row(row);
    }
    cust_key = order.key_of;
    return t;
  }();

  // ==========================================================================
  // SUPPLIER — same hierarchy and key order, independent Zipf stream.
  // ==========================================================================
  std::vector<std::uint64_t> supp_key;  // per drawn supplier: its key
  rel::Table supplier_table = [&] {
    const std::vector<std::string> names = key_names("Supplier", suppliers);
    std::vector<std::string> addresses, phones;
    std::vector<std::size_t> city_ranks(suppliers);
    for (std::size_t i = 0; i < suppliers; ++i) {
      const std::size_t rank = city_zipf.sample(rng_supp);
      city_ranks[i] = rank;
      addresses.push_back(random_address(rng_supp));
      phones.push_back(random_phone(city_nation(rank), rng_supp));
    }
    std::vector<rel::Attribute> attrs;
    attrs.push_back(int_attr("s_suppkey", suppliers));
    attrs.push_back(str_attr("s_name", make_dict(names)));
    attrs.push_back(str_attr("s_address", make_dict(addresses)));
    attrs.push_back(str_attr("s_city", city_dict));
    attrs.push_back(str_attr("s_nation", nation_dict));
    attrs.push_back(str_attr("s_region", region_dict));
    attrs.push_back(str_attr("s_phone", make_dict(phones)));
    rel::Table t(rel::Schema(std::move(attrs)), "supplier");
    t.reserve(suppliers);
    const KeyOrder order(city_levels(t.schema()), city_ranks);
    for (std::size_t k = 0; k < suppliers; ++k) {
      const std::size_t i = order.drawn[k];
      const std::size_t rank = city_ranks[i];
      const std::uint64_t row[] = {
          k + 1,
          code_of(t.schema().attribute(1), names[k]),
          code_of(t.schema().attribute(2), addresses[i]),
          code_of(t.schema().attribute(3), city_name(rank)),
          code_of(t.schema().attribute(4),
                  std::string(kNations[city_nation(rank)])),
          code_of(t.schema().attribute(5),
                  std::string(kRegions[city_region(rank)])),
          code_of(t.schema().attribute(6), phones[i]),
      };
      t.append_row(row);
    }
    supp_key = order.key_of;
    return t;
  }();

  // ==========================================================================
  // PART — brand drawn from the Zipf hierarchy; keys in (mfgr, category,
  // brand) order; price kept per drawn part for lineorder.
  // ==========================================================================
  const ZipfSampler brand_zipf(1000, cfg.zipf_theta);
  std::vector<std::uint32_t> part_price(parts);
  std::vector<std::uint64_t> part_key;  // per drawn part: its key
  rel::Table part_table = [&] {
    std::vector<std::string> mfgrs, categories, brands;
    for (std::size_t c = 0; c < 25; ++c) categories.push_back(category_name(c));
    for (std::size_t m = 0; m < 25; ++m) mfgrs.push_back(mfgr_name(m));
    for (std::size_t b = 0; b < 1000; ++b) brands.push_back(brand_name(b));
    std::vector<std::string> part_names;
    const auto& colors = part_colors();
    for (const std::string& c1 : colors) {
      for (const std::string& c2 : colors) {
        if (&c1 != &c2) part_names.push_back(c1 + " " + c2);
      }
    }
    std::vector<rel::Attribute> attrs;
    attrs.push_back(int_attr("p_partkey", parts));
    attrs.push_back(str_attr("p_name", make_dict(part_names)));
    attrs.push_back(str_attr("p_mfgr", make_dict(mfgrs)));
    attrs.push_back(str_attr("p_category", make_dict(categories)));
    attrs.push_back(str_attr("p_brand1", make_dict(brands)));
    attrs.push_back(str_attr("p_color", make_dict_of(colors)));
    attrs.push_back(str_attr("p_type", make_dict_of(part_types())));
    attrs.push_back(int_attr("p_size", 50));
    attrs.push_back(str_attr("p_container", make_dict_of(part_containers())));
    rel::Table t(rel::Schema(std::move(attrs)), "part");
    t.reserve(parts);
    const auto& types = part_types();
    const auto& containers = part_containers();
    struct Drawn {
      std::size_t color1, color2;
      std::uint64_t color, type, size, container;
    };
    std::vector<std::size_t> brand_ranks(parts);
    std::vector<Drawn> drawn(parts);
    for (std::size_t i = 0; i < parts; ++i) {
      Drawn& d = drawn[i];
      brand_ranks[i] = brand_zipf.sample(rng_part);
      d.color1 = rng_part.next_below(colors.size());
      d.color2 = rng_part.next_below(colors.size());
      if (d.color2 == d.color1) d.color2 = (d.color2 + 1) % colors.size();
      part_price[i] = static_cast<std::uint32_t>(
          kMinPartPrice + rng_part.next_below(kMaxPartPrice - kMinPartPrice));
      d.color = rng_part.next_below(colors.size());
      d.type = rng_part.next_below(types.size());
      d.size = 1 + rng_part.next_below(50);
      d.container = rng_part.next_below(containers.size());
    }
    std::vector<Level> of_rank(1000);  // (mfgr, category, brand) codes
    for (std::size_t r = 0; r < of_rank.size(); ++r) {
      of_rank[r] = {code_of(t.schema().attribute(2), mfgr_name(r % 25)),
                    code_of(t.schema().attribute(3), category_name(r % 25)),
                    code_of(t.schema().attribute(4), brand_name(r))};
    }
    const KeyOrder order(of_rank, brand_ranks);
    for (std::size_t k = 0; k < parts; ++k) {
      const std::size_t i = order.drawn[k];
      const Drawn& d = drawn[i];
      const Level& level = of_rank[brand_ranks[i]];
      const std::uint64_t row[] = {
          k + 1,
          code_of(t.schema().attribute(1),
                  colors[d.color1] + " " + colors[d.color2]),
          level[0],
          level[1],
          level[2],
          d.color,
          d.type,
          d.size,
          d.container,
      };
      t.append_row(row);
    }
    part_key = order.key_of;
    return t;
  }();

  // ==========================================================================
  // LINEORDER — uniform foreign keys and filter attributes; skew enters
  // through the dimension hierarchies above. Keys are drawn per drawn
  // dimension entity and stored as that entity's hierarchy-ordered key.
  // ==========================================================================
  rel::Table lineorder_table = [&] {
    const std::uint64_t max_ext = 50ULL * kMaxPartPrice;
    std::vector<rel::Attribute> attrs;
    attrs.push_back(int_attr("lo_orderkey", orders));
    attrs.push_back(int_attr("lo_linenumber", kLinesPerOrder));
    attrs.push_back(int_attr("lo_custkey", customers));
    attrs.push_back(int_attr("lo_partkey", parts));
    attrs.push_back(int_attr("lo_suppkey", suppliers));
    attrs.push_back(int_attr("lo_orderdate", kDays - 1));
    attrs.push_back(str_attr("lo_orderpriority", make_dict_of(kOrderPriorities)));
    attrs.push_back(int_attr("lo_shippriority", 1));
    attrs.push_back(int_attr("lo_quantity", 50));
    attrs.push_back(int_attr("lo_extendedprice", max_ext));
    attrs.push_back(int_attr("lo_ordtotalprice", max_ext * kLinesPerOrder));
    attrs.push_back(int_attr("lo_discount", 10));
    attrs.push_back(int_attr("lo_revenue", max_ext));
    attrs.push_back(int_attr("lo_supplycost", 1000 + kMaxPartPrice * 55 / 100));
    attrs.push_back(int_attr("lo_tax", 8));
    attrs.push_back(int_attr("lo_commitdate", kDays - 1));
    attrs.push_back(str_attr("lo_shipmode", make_dict_of(kShipModes)));
    rel::Table t(rel::Schema(std::move(attrs)), "lineorder");
    t.reserve(orders * kLinesPerOrder);

    struct Line {  // `part` is the drawn part, `supp` a supplier key
      std::uint64_t part, supp, quantity, price, discount, tax, shipmode;
    };
    std::array<Line, kLinesPerOrder> lines;
    for (std::size_t o = 0; o < orders; ++o) {
      const std::uint64_t orderdate = rng_lo.next_below(kDays);
      const std::uint64_t custkey = cust_key[rng_lo.next_below(customers)];
      const std::uint64_t priority = rng_lo.next_below(kOrderPriorities.size());
      std::uint64_t ordtotal = 0;
      for (auto& ln : lines) {
        ln.part = rng_lo.next_below(parts);
        ln.supp = supp_key[rng_lo.next_below(suppliers)];
        ln.quantity = 1 + rng_lo.next_below(50);
        ln.discount = rng_lo.next_below(11);
        ln.tax = rng_lo.next_below(9);
        ln.shipmode = rng_lo.next_below(kShipModes.size());
        ln.price = ln.quantity * part_price[ln.part];
        ordtotal += ln.price;
      }
      const std::uint64_t commitdate =
          std::min<std::uint64_t>(kDays - 1, orderdate + 30 +
                                                 rng_lo.next_below(61));
      for (std::size_t l = 0; l < kLinesPerOrder; ++l) {
        const Line& ln = lines[l];
        const std::uint64_t revenue = ln.price * (100 - ln.discount) / 100;
        const std::uint64_t supplycost =
            1000 + part_price[ln.part] * 55 / 100;
        const std::uint64_t row[] = {
            o + 1,      l + 1,      custkey,      part_key[ln.part],
            ln.supp,    orderdate,  priority,     0,
            ln.quantity, ln.price,  ordtotal,     ln.discount,
            revenue,    supplycost, ln.tax,       commitdate,
            ln.shipmode,
        };
        t.append_row(row);
      }
    }
    return t;
  }();

  return SsbData{std::move(date_table), std::move(customer_table),
                 std::move(supplier_table), std::move(part_table),
                 std::move(lineorder_table)};
}

rel::Table prejoin_ssb(const SsbData& data) {
  const engine::DimensionSpec specs[] = {
      {&data.date, "lo_orderdate", "d_datekey", {}},
      {&data.customer, "lo_custkey", "c_custkey", {"c_name", "c_address"}},
      {&data.supplier, "lo_suppkey", "s_suppkey", {"s_name", "s_address"}},
      {&data.part, "lo_partkey", "p_partkey", {}},
  };
  return engine::prejoin(data.lineorder, specs, "ssb_prejoined");
}

}  // namespace bbpim::ssb
