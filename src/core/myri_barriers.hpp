// The Myrinet NIC barrier implementations compared in Figs. 5 and 6 (the
// host-based baseline is core/host_executor.hpp's executor).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/barrier.hpp"
#include "core/coll_tag.hpp"
#include "core/group_window.hpp"
#include "core/schedule.hpp"
#include "myrinet/gm.hpp"

namespace qmb::core {

class MyriCluster;

// BarrierTag (the GM-tag codec for collective messages) lives in
// core/coll_tag.hpp so the GM port can demultiplex on it as well.

/// Prior work's direct NIC-based barrier (Buntinas et al.): the NIC detects
/// barrier messages and triggers the next ones, but every message still
/// traverses the MCP point-to-point machinery — per-destination queues,
/// packet-pool claims, per-packet send records, ACK-based reliability.
///
/// Construction installs this barrier as each NIC's MCP nic-consumer: one
/// direct barrier per cluster at a time.
class MyriDirectNicBarrier final : public Barrier {
 public:
  MyriDirectNicBarrier(MyriCluster& cluster, const coll::GroupSchedule& schedule,
                       std::vector<int> rank_to_node);

  void enter(int rank, sim::EventCallback done) override;
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] int size() const override { return static_cast<int>(ranks_.size()); }

 private:
  struct RankCtx {
    myri::MyriNode* node = nullptr;
    std::unique_ptr<GroupWindow<>> window;
    sim::EventCallback done;
  };

  void start_op(int rank);

  MyriCluster& cluster_;
  coll::GroupSchedule schedule_;
  std::vector<int> rank_to_node_;
  std::vector<int> node_to_rank_;
  std::vector<RankCtx> ranks_;
  std::uint32_t group_id_;
  std::string name_;
};

/// The paper's barrier: NIC-based collective protocol (dedicated group
/// queue, static send packet, bit-vector record, receiver-driven NACKs).
class MyriNicBarrier final : public Barrier {
 public:
  MyriNicBarrier(MyriCluster& cluster, const coll::GroupSchedule& schedule,
                 std::vector<int> rank_to_node, myri::CollFeatures features);

  void enter(int rank, sim::EventCallback done) override;
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] int size() const override { return static_cast<int>(rank_to_node_.size()); }

 private:
  MyriCluster& cluster_;
  std::vector<int> rank_to_node_;
  std::uint32_t group_id_;
  std::string name_;
};

}  // namespace qmb::core
