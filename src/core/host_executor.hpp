// Host-level executors: the schedule walks on the hosts, every edge is a
// host-level message over the substrate's point-to-point API, and every
// arrival pays the host's receive detection — the baselines the NIC
// protocols are measured against.
//
// One executor serves every substrate through a small transport (send,
// subscribe/unsubscribe, the per-operation host cost, and GM's receive
// buffer top-up); the transports live in host_executor.cpp. Barriers are
// the same executor at OpKind::kBarrier.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/collectives.hpp"

namespace qmb::core {

/// Host executor for `spec` over `cluster` (MyriCluster, ElanCluster or
/// IbCluster) and the ranks placed by `rank_to_node`. Named `name`, or by
/// default executor_name("<network>-host-", ...). Installs one receive
/// subscription per member node.
template <class Cluster>
std::unique_ptr<Collective> make_host_collective(Cluster& cluster, const coll::CollSpec& spec,
                                                 std::vector<int> rank_to_node,
                                                 std::string name = {});

}  // namespace qmb::core
