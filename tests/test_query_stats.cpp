// The QueryStats spine: BBPIM_QUERY_STATS_FIELDS declares every field once
// with its join merge rule and its class, and QueryStats::merge and
// stats_equal follow that table field by field.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/query_exec.hpp"

namespace bbpim::engine {
namespace {

/// Converts to any member type, so T{AnyMember{}...} counts T's members.
struct AnyMember {
  template <class T>
  operator T() const;
};

template <class T, class... Members>
consteval std::size_t member_count() {
  if constexpr (requires { T{Members{}..., AnyMember{}}; }) {
    return member_count<T, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

// The table has one row per leaf field: `phases` counts as one QueryStats
// member, its seven fields through QueryPhaseBreakdown.
#define BBPIM_COUNT_ROW(member, rule, cls) +1
static_assert(member_count<QueryStats>() - 1 +
                      member_count<QueryPhaseBreakdown>() ==
                  0 BBPIM_QUERY_STATS_FIELDS(BBPIM_COUNT_ROW),
              "every QueryStats field needs a BBPIM_QUERY_STATS_FIELDS row");
#undef BBPIM_COUNT_ROW

template <class T>
void set_value(T& v, int seed) {
  v = static_cast<T>(seed);
}
void set_value(bool& v, int seed) { v = seed % 2 == 1; }
void set_value(std::vector<double>& v, int seed) { v = {seed + 0.5, 1.0}; }

template <class T>
void bump(T& v) {
  v += 1;
}
void bump(bool& v) { v = !v; }
void bump(std::vector<double>& v) { v.push_back(2.0); }

/// A distinct value in every field: field i gets base + 2 i, so two stats
/// filled from bases of different parity differ in every field (bools too).
QueryStats filled(int base) {
  QueryStats s;
  int i = 0;
#define BBPIM_FILL(member, rule, cls) set_value(s.member, base + 2 * i++);
  BBPIM_QUERY_STATS_FIELDS(BBPIM_FILL)
#undef BBPIM_FILL
  return s;
}

template <StatMerge Rule, class T>
void expect_merged(const char* name, const T& got, const T& into,
                   const T& part, bool fact) {
  if constexpr (Rule == StatMerge::kSum) {
    EXPECT_EQ(got, into + part) << name;
  } else if constexpr (Rule == StatMerge::kMax) {
    EXPECT_EQ(got, std::max(into, part)) << name;
  } else if constexpr (Rule == StatMerge::kFact) {
    EXPECT_EQ(got, fact ? part : into) << name;
  } else {
    EXPECT_EQ(got, into) << name;
  }
}

TEST(QueryStatsSpine, MergeFollowsEachFieldsRule) {
  // Both orders, so kMax sees the larger value on either side.
  for (const auto& [into, part] : {std::pair{filled(1000), filled(1)},
                                   std::pair{filled(1), filled(1000)}}) {
    for (const bool fact : {false, true}) {
      QueryStats merged = into;
      merged.merge(part, fact);
#define BBPIM_CHECK(member, rule, cls)                                \
  expect_merged<StatMerge::rule>(#member, merged.member, into.member, \
                                 part.member, fact);
      BBPIM_QUERY_STATS_FIELDS(BBPIM_CHECK)
#undef BBPIM_CHECK
    }
  }
}

TEST(QueryStatsSpine, EqualitiesFlipOnlyOnTheirOwnClasses) {
  const QueryStats a = filled(7);
  EXPECT_TRUE(stats_equal(
      a, a, {StatClass::kCost, StatClass::kPlan, StatClass::kCounter}));
#define BBPIM_FLIP(member, rule, cls)                                     \
  {                                                                       \
    QueryStats b = a;                                                     \
    bump(b.member);                                                       \
    EXPECT_EQ(stats_equal(a, b, {StatClass::kCost, StatClass::kPlan}),    \
              StatClass::cls == StatClass::kCounter)                      \
        << #member;                                                       \
    EXPECT_EQ(stats_equal(a, b, {StatClass::kPlan}),                      \
              StatClass::cls != StatClass::kPlan)                         \
        << #member;                                                       \
    EXPECT_FALSE(stats_equal(a, b, {StatClass::cls})) << #member;         \
  }
  BBPIM_QUERY_STATS_FIELDS(BBPIM_FLIP)
#undef BBPIM_FLIP
}

TEST(QueryStatsSpine, ClassesAreTheBenchComparatorFieldSets) {
  // plan = what prune_speed compares (pruning must not change it);
  // cost + plan = what the kernel-parity checks compare (thread count must
  // not change it).
  std::vector<std::string> cost, plan, counter;
#define BBPIM_NAME(member, rule, cls)              \
  (StatClass::cls == StatClass::kCost   ? cost     \
   : StatClass::cls == StatClass::kPlan ? plan     \
                                        : counter) \
      .push_back(#member);
  BBPIM_QUERY_STATS_FIELDS(BBPIM_NAME)
#undef BBPIM_NAME
  EXPECT_EQ(cost, (std::vector<std::string>{
                      "total_ns", "phases.filter", "phases.transfer",
                      "phases.sample", "phases.plan", "phases.pim_gb",
                      "phases.host_gb", "phases.finalize", "energy_j",
                      "energy_logic_j", "energy_read_j", "energy_write_j",
                      "energy_controller_j", "energy_agg_circuit_j",
                      "peak_chip_w", "wear_row_writes", "host_lines",
                      "pim_requests", "dims_ns"}));
  EXPECT_EQ(plan, (std::vector<std::string>{
                      "selectivity", "selected_records", "total_subgroups",
                      "sampled_subgroups", "pim_subgroups", "n_chunks",
                      "s_chunks", "selectivity_estimate",
                      "candidates_complete", "candidate_masses"}));
  EXPECT_EQ(counter.size(), 11u);
}

}  // namespace
}  // namespace bbpim::engine
