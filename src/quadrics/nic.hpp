// Elan3 NIC model: an RDMA engine plus an event unit sharing the card's
// microcode processor (one serialized Resource), attached to the quaternary
// fat-tree fabric.
//
// The chained-RDMA barrier executes here: a group's chained descriptor list
// is armed from user level once; arriving remote events advance the chain
// without any host involvement until the final local event (paper Sec. 7).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/group_window.hpp"
#include "core/schedule.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "quadrics/config.hpp"
#include "quadrics/packets.hpp"
#include "sim/resource.hpp"
#include "sim/trace.hpp"

namespace qmb::elan {

struct ElanGroupDesc {
  std::uint32_t group_id = 0;
  int my_rank = -1;
  coll::Placement rank_to_node;  // shared across the group's NICs
  coll::RankSchedule schedule;
  coll::OpKind op_kind = coll::OpKind::kBarrier;
  coll::ReduceOp reduce_op = coll::ReduceOp::kSum;
  std::uint32_t payload_bytes = 8;  // bytes per contribution word; RDMA puts
                                    // carry any size directly to host memory
};

/// Handles into the engine's MetricRegistry, registered per NIC under
/// "elan.*" names; RunResult reads the cross-node totals off the registry.
struct ElanStats {
  obs::Counter rdma_issued;
  obs::Counter events_fired;
  obs::Counter host_notifies;
  obs::Counter barrier_ops_completed;
  obs::Counter early_buffered;
  obs::Counter crc_dropped;  // inbound CRC discards (fault-injected corruption)
};

class Nic {
 public:
  Nic(sim::Engine& engine, net::Fabric& fabric, const Elan3Config& config,
      int node_index, sim::Tracer* tracer);

  // --- raw Elan3 primitives ---

  /// Issues an RDMA put of `bytes` towards `dst_node`, firing the remote
  /// event described by `body`. Called at NIC time (post-doorbell).
  void rdma_put(int dst_node, std::uint32_t bytes, ElanRdma body);

  /// Handler for host-level tagged puts landing on this NIC; invoked at NIC
  /// time after the event word reaches host memory (host poll cost is the
  /// caller's).
  using HostMsgHandler = std::function<void(const ElanRdma&)>;
  void set_host_msg_handler(HostMsgHandler h) { host_msg__handler_ = std::move(h); }

  // --- chained-RDMA barrier unit ---

  /// Arms a collective group: builds the chained descriptor list for this
  /// rank's schedule.
  void create_group(ElanGroupDesc desc);

  /// Host triggered the first descriptor of the chain (at NIC time) with
  /// `value`. The payload rides the RDMA put exactly as a barrier's
  /// notification does (paper Sec. 7 — a put may carry data as well as
  /// fire an event). `done` runs at NIC time when the final local event's
  /// word lands in host memory.
  void collective_enter(std::uint32_t group, std::int64_t value,
                        std::function<void(std::int64_t)> done);

  // --- hardware-barrier hooks (used by HwBarrierController) ---

  /// Sets/clears the test-and-set flag the hardware probe examines.
  void set_tset_flag(std::uint64_t round) { tset_round_ = round; }
  [[nodiscard]] bool tset_flag_at_least(std::uint64_t round) const {
    return tset_round_ >= round;
  }

  using ProbeHandler = std::function<void(const TsetProbe&)>;
  using GoHandler = std::function<void(const TsetGo&)>;
  void set_probe_handler(ProbeHandler h) { probe_handler_ = std::move(h); }
  void set_go_handler(GoHandler h) { go_handler_ = std::move(h); }

  [[nodiscard]] net::NicAddr addr() const { return addr_; }
  [[nodiscard]] int node() const { return node_; }
  [[nodiscard]] const Elan3Config& config() const { return *config_; }
  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] sim::Resource& unit() { return unit_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] const ElanStats& stats() const { return stats_; }

  /// Records a protocol trace event; `flow` (when non-zero) correlates it
  /// with the fabric packet carrying this RDMA/event-chain step.
  void trace(std::string_view event, std::int64_t a = 0, std::int64_t b = 0,
             std::int64_t flow = 0);

 private:
  using Window = core::GroupWindow<core::DoneSlot>;
  using Op = Window::Op;
  struct Group {
    explicit Group(ElanGroupDesc d)
        : desc(std::move(d)), window(desc.schedule, desc.op_kind, desc.reduce_op) {}
    ElanGroupDesc desc;
    Window window;
  };

  void on_packet(net::Packet&& p);
  void handle_barrier_event(const ElanRdma& r);
  void barrier_send(Group& g, std::uint32_t seq, const coll::Edge& e, std::int64_t value);
  void finish_barrier(Group& g, Op& op);

  sim::Engine* engine_;
  net::Fabric* fabric_;
  const Elan3Config* config_;
  int node_;
  sim::Tracer* tracer_;
  std::uint16_t trace_comp_ = 0;  // interned "elan"
  sim::Resource unit_;
  net::NicAddr addr_;
  ElanStats stats_;
  HostMsgHandler host_msg__handler_;
  ProbeHandler probe_handler_;
  GoHandler go_handler_;
  std::uint64_t tset_round_ = 0;
  std::unordered_map<std::uint32_t, Group> groups_;
};

}  // namespace qmb::elan
