#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "metrics.hpp"
#include "ssb/queries.hpp"

namespace perfbench {
namespace {

using bbpim::Rng;

/// Statement counts per text proportional to `weights`, summing to `total`
/// (largest-remainder rounding, ties to the lower rank).
std::vector<std::size_t> apportion(const std::vector<double>& weights,
                                   std::size_t total) {
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<std::size_t> counts(weights.size());
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t given = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double exact = static_cast<double>(total) * weights[i] / sum;
    counts[i] = static_cast<std::size_t>(std::floor(exact));
    given += counts[i];
    remainders.emplace_back(-(exact - std::floor(exact)), i);
  }
  std::sort(remainders.begin(), remainders.end());
  for (std::size_t k = 0; given < total; ++k, ++given) {
    ++counts[remainders[k % remainders.size()].second];
  }
  return counts;
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.next_below(i)]);
  }
}

Statement read_of(std::size_t query) {
  return {std::string(bbpim::ssb::queries()[query].sql), query, false};
}


}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec solo;
    solo.name = "ssb_solo";
    solo.statements_per_s = 380;
    v.push_back(solo);

    WorkloadSpec shared;
    shared.name = "ssb_shared";
    shared.catalog = Catalog::kPrejoinedByDate;
    shared.mix = Mix::kHotSkewed;
    shared.clients = 4;
    shared.shared_scan = true;
    shared.prune = true;
    shared.statements_per_s = 1100;
    v.push_back(shared);

    WorkloadSpec htap;
    htap.name = "htap_rename";
    htap.mix = Mix::kZipfRenames;
    htap.statements_per_s = 36;
    htap.update_share = 0.25;
    htap.theta = 0.75;
    v.push_back(htap);

    WorkloadSpec join;
    join.name = "star_join";
    join.catalog = Catalog::kNormalized;
    join.statements_per_s = 8;
    v.push_back(join);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::vector<Statement>> make_streams(
    const WorkloadSpec& spec, std::uint64_t seed, double seconds,
    const bbpim::rel::Dictionary& cities) {
  const std::size_t n_queries = bbpim::ssb::queries().size();
  // The percentile rule: p95 of reads and p90 of updates each rest on at
  // least ten samples, whatever --seconds asks for.
  std::size_t total = static_cast<std::size_t>(
      std::ceil(spec.statements_per_s * std::max(seconds, 0.0)));
  total = std::max(total, samples_needed(0.95));
  if (spec.update_share > 0) {
    total = std::max(total, static_cast<std::size_t>(std::ceil(
                                samples_needed(0.90) / spec.update_share)));
  }

  Rng root(seed);
  std::vector<std::vector<Statement>> streams(spec.clients);
  switch (spec.mix) {
    case Mix::kRoundRobin: {
      Rng rng = root.fork(1);
      // Whole rounds, then a partial round of three texts. Whole rounds keep
      // each text's share, and with it where the median read falls, fixed;
      // which three texts end the stream is the seed's only effect on the
      // mix, so the modeled means still move a little from seed to seed.
      total = (total + n_queries - 1) / n_queries * n_queries + 3;
      for (std::size_t n = 0; n < total;) {
        std::vector<Statement> round;
        for (std::size_t q = 0; q < n_queries; ++q) round.push_back(read_of(q));
        shuffle(round, rng);
        for (std::size_t i = 0; i < round.size() && n < total; ++i, ++n) {
          streams[n % spec.clients].push_back(std::move(round[i]));
        }
      }
      break;
    }
    case Mix::kHotSkewed: {
      // Independent draws per client (Zipf with theta 1 is weight 1/(r+1)):
      // clients share the hot head, the tail keeps batches mixed.
      const bbpim::ZipfSampler skew(n_queries, 1.0);
      const std::size_t per_client = (total + spec.clients - 1) / spec.clients;
      for (std::size_t c = 0; c < spec.clients; ++c) {
        Rng rng = root.fork(100 + c);
        for (std::size_t i = 0; i < per_client; ++i) {
          streams[c].push_back(read_of(skew.sample(rng)));
        }
      }
      break;
    }
    case Mix::kZipfRenames: {
      Rng rng = root.fork(2);
      const bbpim::ZipfSampler read_skew(n_queries, spec.theta);
      std::vector<double> weights(n_queries);
      for (std::size_t q = 0; q < n_queries; ++q) {
        weights[q] = read_skew.mass(q);
      }
      const auto n_updates = static_cast<std::size_t>(
          std::ceil(static_cast<double>(total) * spec.update_share));
      // A fixed multiset of reads: how many cold reads a run makes stays
      // the same from seed to seed, which keeps its wall time steady.
      const std::vector<std::size_t> counts =
          apportion(weights, total - n_updates);
      std::vector<Statement> all;
      for (std::size_t q = 0; q < n_queries; ++q) {
        for (std::size_t k = 0; k < counts[q]; ++k) all.push_back(read_of(q));
      }
      const bbpim::ZipfSampler city_skew(cities.size(), spec.theta);
      for (std::size_t u = 0; u < n_updates; ++u) {
        const std::string& from = cities.value(city_skew.sample(rng));
        const std::string& to = cities.value(rng.next_below(cities.size()));
        all.push_back({"UPDATE ssb_prejoined SET s_city = '" + to +
                           "' WHERE s_city = '" + from + "'",
                       0, true});
      }
      shuffle(all, rng);
      for (std::size_t i = 0; i < all.size(); ++i) {
        streams[i % spec.clients].push_back(std::move(all[i]));
      }
      break;
    }
  }
  return streams;
}

}  // namespace perfbench
