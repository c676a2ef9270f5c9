// The IB NIC barrier: the NIC-based collective protocol ported onto RC
// verbs. Its host-level baseline over tagged write-with-immediate messages
// is core/host_executor.hpp's executor.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/barrier.hpp"
#include "core/schedule.hpp"
#include "ib/node.hpp"

namespace qmb::core {

class IbCluster;

/// The paper's barrier on verbs: the schedule is armed on the HCA once and
/// advanced purely by arriving RDMA writes-with-immediate; the host sees
/// one doorbell in and one CQE out per operation (Sec. 5 ported to RC).
class IbNicBarrier final : public Barrier {
 public:
  IbNicBarrier(IbCluster& cluster, const coll::GroupSchedule& schedule,
               std::vector<int> rank_to_node);

  void enter(int rank, sim::EventCallback done) override;
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] int size() const override { return static_cast<int>(rank_to_node_.size()); }

 private:
  IbCluster& cluster_;
  std::vector<int> rank_to_node_;
  std::uint32_t group_id_;
  std::string name_;
};

}  // namespace qmb::core
