// Positive control for store_backend_mutation.cpp: the same store,
// read through its const backend() and changed through the store's
// membership bracket (add_node, Store::mutate), must compile on every
// compiler. If this target fails to build, the WILL_FAIL fixture
// proves nothing.

#include "kv/store.hpp"

int main() {
  cobalt::kv::KvStore store({cobalt::dht::Config{}, 2});
  const cobalt::placement::NodeId node = store.add_node();
  store.mutate(cobalt::kv::MembershipEventKind::kJoin,
               [node](auto& backend) { return backend.add_vnode(node); });
  const auto& backend = store.backend();
  return backend.node_count() == 1 && backend.vnodes_of(node) == 3 ? 0 : 1;
}
