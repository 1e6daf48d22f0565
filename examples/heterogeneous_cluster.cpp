// Heterogeneous cluster walkthrough - the scenario that motivates the
// paper (section 1): a cluster mixing machine generations, where each
// node's share of the DHT must track the resources it enrolls.
//
// Builds a three-tier cluster (1x / 2x / 4x machines) by passing each
// node's capacity to the placement backend (which enrolls vnodes
// proportionally), loads a KV dataset, and prints each node's share
// next to its capacity - then shows an enrollment-level *change*
// (section 2.1.2: enrollment "is not necessarily static"): one node
// upgrades at runtime via resize_node, run as one membership event
// through the store's bracket (Store::mutate).
//
//   ./heterogeneous_cluster [--nodes=9] [--keys=90000] [--base-vnodes=6]

#include <iostream>
#include <string>

#include "cluster/capacity.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "kv/store.hpp"

namespace {

void print_shares(const cobalt::kv::KvStore& store,
                  const std::vector<double>& capacities,
                  std::size_t key_count) {
  double total_capacity = 0.0;
  for (const double c : capacities) total_capacity += c;

  cobalt::TextTable table(
      {"node", "capacity", "vnodes", "keys", "share (%)", "fair (%)"});
  const auto keys = store.keys_per_node();
  for (std::size_t n = 0; n < capacities.size(); ++n) {
    const double share =
        100.0 * static_cast<double>(keys[n]) / static_cast<double>(key_count);
    const double fair = 100.0 * capacities[n] / total_capacity;
    table.add_row({std::to_string(n),
                   cobalt::format_fixed(capacities[n], 1),
                   std::to_string(store.backend().vnodes_of(
                       static_cast<cobalt::placement::NodeId>(n))),
                   std::to_string(keys[n]), cobalt::format_fixed(share, 2),
                   cobalt::format_fixed(fair, 2)});
  }
  std::cout << table.render();
}

}  // namespace

int main(int argc, char** argv) {
  const cobalt::CliParser args(argc, argv);
  const std::size_t nodes = args.get_uint("nodes", 9);
  const std::size_t key_count = args.get_uint("keys", 90000);
  const std::size_t base_vnodes = args.get_uint("base-vnodes", 6);

  const auto capacities = cobalt::cluster::make_capacities(
      cobalt::cluster::CapacityProfile::kThreeTiers, nodes);

  cobalt::dht::Config config;
  config.pmin = 16;
  config.vmin = 16;
  config.seed = args.get_uint("seed", 7);

  cobalt::kv::KvStore store({config, base_vnodes});
  std::vector<cobalt::placement::NodeId> ids;
  for (std::size_t n = 0; n < nodes; ++n) {
    ids.push_back(store.add_node(capacities[n]));
  }

  for (std::size_t i = 0; i < key_count; ++i) {
    store.put("doc/" + std::to_string(i), "payload");
  }

  std::cout << "three-tier cluster (capacity 1x / 2x / 4x), vnodes "
               "proportional to capacity\n\n";
  print_shares(store, capacities, key_count);

  // Runtime enrollment change: node 0 upgrades from 1x to 4x - the
  // backend enrolls the difference in vnodes and its share follows.
  const std::size_t before_vnodes = store.backend().vnodes_of(ids[0]);
  const std::uint64_t moved_before =
      store.stats().relocation.keys_moved_across_nodes;
  (void)store.mutate(cobalt::kv::MembershipEventKind::kJoin,
                     [&ids](auto& backend) {
                       return backend.resize_node(ids[0], 4.0);
                     });
  auto upgraded = capacities;
  upgraded[0] = 4.0;
  std::cout << "\n>>> node 0 upgrades 1x -> 4x: enrolling "
            << store.backend().vnodes_of(ids[0]) - before_vnodes
            << " more vnodes\n\n";
  print_shares(store, upgraded, key_count);
  std::cout << "\nkeys that crossed nodes for the upgrade: "
            << store.stats().relocation.keys_moved_across_nodes - moved_before
            << " (of " << key_count << ")\n"
            << "sigma(Qv) after upgrade: "
            << cobalt::format_fixed(store.backend().dht().sigma_qv() * 100, 2)
            << "% (per-vnode; per-node quotas differ by design here)\n";
  return 0;
}
