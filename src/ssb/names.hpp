// SSB name domains (nations, regions, colors, types, containers, ...).
//
// The 25 nations are ordered so that nation index % 5 gives the region —
// each region has exactly five nations, so the rank-interleaved Zipf
// assignment keeps region selectivity at ~1/5 while leaf subgroups
// (cities, brands) stay skewed (README, "Deviations from the paper").
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bbpim::ssb {

inline constexpr std::array<std::string_view, 5> kRegions = {
    "AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"};

/// Nation i belongs to region i % 5.
inline constexpr std::array<std::string_view, 25> kNations = {
    "ALGERIA",    "ARGENTINA", "CHINA",     "FRANCE",         "EGYPT",
    "ETHIOPIA",   "BRAZIL",    "INDIA",     "GERMANY",        "IRAN",
    "KENYA",      "CANADA",    "INDONESIA", "ROMANIA",        "IRAQ",
    "MOROCCO",    "PERU",      "JAPAN",     "RUSSIA",         "JORDAN",
    "MOZAMBIQUE", "UNITED STATES", "VIETNAM", "UNITED KINGDOM",
    "SAUDI ARABIA"};

inline constexpr std::array<std::string_view, 7> kDaysOfWeek = {
    "Sunday", "Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
    "Saturday"};

inline constexpr std::array<std::string_view, 12> kMonths = {
    "January", "February", "March",     "April",   "May",      "June",
    "July",    "August",   "September", "October", "November", "December"};

inline constexpr std::array<std::string_view, 12> kMonthAbbrev = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

inline constexpr std::array<std::string_view, 5> kSeasons = {
    "Winter", "Spring", "Summer", "Fall", "Christmas"};

inline constexpr std::array<std::string_view, 5> kMktSegments = {
    "AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"};

inline constexpr std::array<std::string_view, 5> kOrderPriorities = {
    "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"};

inline constexpr std::array<std::string_view, 7> kShipModes = {
    "AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"};

/// 92 part colors (TPC-H's color vocabulary).
const std::vector<std::string>& part_colors();

/// 150 part types ("STANDARD ANODIZED TIN", ...).
const std::vector<std::string>& part_types();

/// 40 containers ("SM CASE", ...).
const std::vector<std::string>& part_containers();

/// 250 city names: first 9 characters of the nation padded with '#', plus a
/// digit 0-9 (SSB convention, e.g. "UNITED KI1"). City rank r belongs to
/// nation r % 25 and carries digit r / 25.
std::vector<std::string> city_names();

/// City rank -> name / nation index / region index.
std::string city_name(std::size_t rank);
inline std::size_t city_nation(std::size_t rank) { return rank % 25; }
inline std::size_t city_region(std::size_t rank) { return rank % 5; }

/// Brand rank (0..999) -> names. Category = rank % 25 ("MFGR#mc"),
/// manufacturer = category % 5 ("MFGR#m"), brand number = rank / 25 + 1.
std::string mfgr_name(std::size_t category);
std::string category_name(std::size_t category);
std::string brand_name(std::size_t rank);

}  // namespace bbpim::ssb
