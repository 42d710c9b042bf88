// The four named workloads and the seeded statement streams they run.
//
// A workload is counted in statements, never in seconds: --seconds only
// sizes the stream (statements_per_s * seconds, raised to the minimum the
// percentile rule needs), so one seed always runs the same statements and
// the modeled metrics repeat exactly. Every thread count is fixed here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "relational/dictionary.hpp"

namespace perfbench {

/// SSB scale factor of every workload (lineorder = 600,000 rows).
inline constexpr double kScaleFactor = 0.1;

/// What the catalog holds.
enum class Catalog {
  kPrejoined,        ///< the paper's pre-joined relation
  kPrejoinedByDate,  ///< the same, clustered on lo_orderdate
  kNormalized,       ///< lineorder + four dimension tables
};

/// How the statement stream is drawn.
enum class Mix {
  kRoundRobin,  ///< each round is a seeded shuffle of the 13 SSB texts
  kHotSkewed,   ///< per client, independent draws weighting rank r 1/(r+1)
  kZipfRenames  ///< a Zipf-weighted multiset of reads, shuffled with
                ///< Algorithm-1 s_city renames
};

struct WorkloadSpec {
  std::string name;
  Catalog catalog = Catalog::kPrejoined;
  Mix mix = Mix::kRoundRobin;
  std::size_t clients = 1;        ///< closed-loop client threads
  std::size_t workers = 1;        ///< QueryService workers
  std::uint32_t sim_threads = 1;  ///< simulator threads per execution
  bool shared_scan = false;       ///< QueryService batch former
  bool prune = false;             ///< zone-map pruning (HostConfig::prune)
  /// Stream size per second of --seconds, measured on a 4-core x86 host.
  double statements_per_s = 1;
  double update_share = 0;  ///< kZipfRenames: share of UPDATE statements
  double theta = 0;         ///< kZipfRenames: Zipf exponent of reads, cities
};

/// ssb_solo, ssb_shared, htap_rename, star_join.
const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

struct Statement {
  std::string sql;
  std::size_t query = 0;  ///< index into ssb::queries() (reads only)
  bool is_update = false;
};

/// SSB generator seed of every workload. The data stay fixed so that a
/// modeled metric moves only with the statements a seed draws (and with
/// the program); --seed drives the statement streams.
inline constexpr std::uint64_t kDataSeed = 42;

/// One closed-loop stream per client. `cities` is the s_city dictionary
/// (kZipfRenames draws rename sources and targets from it).
std::vector<std::vector<Statement>> make_streams(
    const WorkloadSpec& spec, std::uint64_t seed, double seconds,
    const bbpim::rel::Dictionary& cities);

}  // namespace perfbench
