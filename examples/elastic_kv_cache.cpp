// Elastic web-object cache - the classic Consistent-Hashing use case
// (the paper's reference model [4] was designed for web caching),
// served side by side by the cluster-oriented balanced DHT and by CH
// itself, through the *same* store template and the same serving loop.
//
// Simulates a URL cache under a Zipf-like request mix while the
// cluster scales out node by node, reporting per deployment the
// steady-state hit ratio, the invalidation cost of each scale-out step
// (keys whose responsible node changed), and the storage balance
// across nodes.
//
//   ./elastic_kv_cache [--urls=40000] [--requests=200000] [--nodes=8]

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "kv/store.hpp"

namespace {

/// Zipf(s=1)-distributed URL index via rejection-free inverse CDF over
/// precomputed cumulative weights.
class ZipfUrls {
 public:
  ZipfUrls(std::size_t count, std::uint64_t seed) : rng_(seed) {
    cdf_.reserve(count);
    double acc = 0.0;
    for (std::size_t i = 1; i <= count; ++i) {
      acc += 1.0 / static_cast<double>(i);
      cdf_.push_back(acc);
    }
  }

  std::size_t next() {
    const double u = rng_.next_double() * cdf_.back();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  cobalt::Xoshiro256 rng_;
  std::vector<double> cdf_;
};

std::string url_of(std::size_t index) {
  return "https://origin.example/asset/" + std::to_string(index);
}

/// One scale-out step's report for one deployment.
struct StepReport {
  double hit_ratio = 0.0;
  std::uint64_t relocated = 0;
  double storage_sigma = 0.0;
};

/// The shared serving loop: scale out by one node, serve a request
/// batch (misses fill the cache), report. Backend-generic: `cache` is
/// any kv::Store instantiation.
template <typename StoreT>
StepReport serve_step(StoreT& cache, ZipfUrls& workload,
                      std::size_t requests, std::uint64_t& relocated_before) {
  StepReport report;
  cache.add_node();

  std::size_t hits = 0;
  for (std::size_t r = 0; r < requests; ++r) {
    const std::string url = url_of(workload.next());
    if (cache.get(url).has_value()) {
      ++hits;
    } else {
      cache.put(url, "cached-object");
    }
  }
  report.hit_ratio =
      static_cast<double>(hits) / static_cast<double>(requests);

  const auto keys = cache.keys_per_node();
  std::vector<double> loads(keys.begin(), keys.end());
  report.storage_sigma =
      loads.size() > 1 ? cobalt::relative_stddev(loads) : 0.0;

  const std::uint64_t relocated_total =
      cache.stats().relocation.keys_moved_across_nodes;
  report.relocated = relocated_total - relocated_before;
  relocated_before = relocated_total;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const cobalt::CliParser args(argc, argv);
  const std::size_t url_count = args.get_uint("urls", 40000);
  const std::size_t requests = args.get_uint("requests", 200000);
  const std::size_t max_nodes = args.get_uint("nodes", 8);
  const std::size_t vnodes_per_node = args.get_uint("vnodes-per-node", 8);

  cobalt::dht::Config config;
  config.pmin = 16;
  config.vmin = 16;
  config.seed = args.get_uint("seed", 11);

  cobalt::kv::KvStore dht_cache({config, vnodes_per_node});
  cobalt::kv::ChKvStore ch_cache({config.seed, 32});

  // Independent but identically seeded request streams, so both
  // deployments serve the same mix.
  ZipfUrls dht_workload(url_count, 99);
  ZipfUrls ch_workload(url_count, 99);

  cobalt::TextTable table({"nodes", "hit dht (%)", "hit ch (%)",
                           "relocated dht", "relocated ch",
                           "storage sigma dht (%)", "storage sigma ch (%)"});

  std::uint64_t dht_relocated = 0;
  std::uint64_t ch_relocated = 0;
  for (std::size_t n = 0; n < max_nodes; ++n) {
    const std::size_t batch = requests / max_nodes;
    const auto dht_step =
        serve_step(dht_cache, dht_workload, batch, dht_relocated);
    const auto ch_step =
        serve_step(ch_cache, ch_workload, batch, ch_relocated);
    table.add_row({std::to_string(n + 1),
                   cobalt::format_fixed(dht_step.hit_ratio * 100, 1),
                   cobalt::format_fixed(ch_step.hit_ratio * 100, 1),
                   std::to_string(dht_step.relocated),
                   std::to_string(ch_step.relocated),
                   cobalt::format_fixed(dht_step.storage_sigma * 100, 2),
                   cobalt::format_fixed(ch_step.storage_sigma * 100, 2)});
  }

  std::cout << "elastic URL cache: balanced DHT vs CH, one serving loop\n\n"
            << table.render() << "\n"
            << "final population: dht " << dht_cache.size() << " / ch "
            << ch_cache.size() << " objects\n"
            << "balance sigma: dht "
            << cobalt::format_fixed(dht_cache.backend().sigma() * 100, 2)
            << "% (groups = "
            << dht_cache.backend().dht().group_count() << "), ch "
            << cobalt::format_fixed(ch_cache.backend().sigma() * 100, 2)
            << "%\n"
            << "note: 'relocated' is the invalidation cost of each "
               "scale-out step\n";
  return 0;
}
