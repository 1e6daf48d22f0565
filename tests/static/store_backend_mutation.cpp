// Negative-compile fixture: changing the placement backend behind the
// store's back.
//
// kv::Store exposes its backend read-only; every membership change
// runs through the store's one bracket (add_node, remove_node,
// fail_nodes, set_topology, mutate), which collects the dirty ranges,
// flushes the relocation batches and repairs the replica sets. This
// file must FAIL to compile on every compiler (the ctest entry
// building it is marked WILL_FAIL): if it builds, a mutable backend()
// is back, and with it membership changes the store never repairs.

#include "kv/store.hpp"

int main() {
  cobalt::kv::KvStore store({cobalt::dht::Config{}, 2});
  const cobalt::placement::NodeId node = store.add_node();
  store.backend().add_node();  // must not compile: backend() is const
  const auto& backend = store.backend();
  return backend.node_count() == 1 && backend.vnodes_of(node) == 2 ? 0 : 1;
}
