#include <cassert>

#include "core/cluster.hpp"
#include "core/quadrics_barriers.hpp"

namespace qmb::core {

ElanHwBarrier::ElanHwBarrier(ElanCluster& cluster)
    : cluster_(cluster), size_(cluster.size()) {}

void ElanHwBarrier::enter(int rank, sim::EventCallback done) {
  cluster_.node(rank).hgsync_enter(std::move(done));
}

ElanNicBarrier::ElanNicBarrier(ElanCluster& cluster, const coll::GroupSchedule& schedule,
                               std::vector<int> rank_to_node)
    : cluster_(cluster),
      rank_to_node_(std::move(rank_to_node)),
      group_id_(cluster.next_group_id()) {
  const int n = schedule.size;
  assert(static_cast<int>(rank_to_node_.size()) == n);
  name_ = std::string("elan-nic-") + std::string(coll::to_string(schedule.algorithm));

  const coll::Placement placement = coll::make_placement(rank_to_node_);
  for (int r = 0; r < n; ++r) {
    elan::ElanGroupDesc desc;
    desc.group_id = group_id_;
    desc.my_rank = r;
    desc.rank_to_node = placement;
    desc.schedule = schedule.ranks[static_cast<std::size_t>(r)];
    cluster_.node(rank_to_node_[static_cast<std::size_t>(r)]).create_barrier_group(std::move(desc));
  }
}

void ElanNicBarrier::enter(int rank, sim::EventCallback done) {
  const int node = rank_to_node_.at(static_cast<std::size_t>(rank));
  cluster_.node(node).barrier_enter(group_id_, std::move(done));
}

}  // namespace qmb::core
