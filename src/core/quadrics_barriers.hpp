// The Quadrics NIC and hardware barriers compared in Fig. 7 (elan_gsync,
// the host-level tree, is core/host_executor.hpp's executor).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/barrier.hpp"
#include "core/schedule.hpp"
#include "quadrics/elanlib.hpp"

namespace qmb::core {

class ElanCluster;

/// elan_hgsync(): the hardware broadcast + network test-and-set barrier.
/// Fast and N-independent, but only when processes arrive together; a
/// straggler forces probe retries (paper Secs. 4.1 and 8.2).
class ElanHwBarrier final : public Barrier {
 public:
  explicit ElanHwBarrier(ElanCluster& cluster);

  void enter(int rank, sim::EventCallback done) override;
  [[nodiscard]] std::string_view name() const override { return "elan-hgsync"; }
  [[nodiscard]] int size() const override { return size_; }

 private:
  ElanCluster& cluster_;
  int size_;
};

/// The paper's Quadrics barrier: chained RDMA descriptors at the NIC,
/// advanced purely by remote events (Sec. 7).
class ElanNicBarrier final : public Barrier {
 public:
  ElanNicBarrier(ElanCluster& cluster, const coll::GroupSchedule& schedule,
                 std::vector<int> rank_to_node);

  void enter(int rank, sim::EventCallback done) override;
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] int size() const override { return static_cast<int>(rank_to_node_.size()); }

 private:
  ElanCluster& cluster_;
  std::vector<int> rank_to_node_;
  std::uint32_t group_id_;
  std::string name_;
};

}  // namespace qmb::core
