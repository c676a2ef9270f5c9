// IB HCA model: RC queue pairs, a completion path, remote atomics, and the
// NIC-resident collective group engine, all sharing the card's processing
// unit (one serialized Resource) — the verbs twin of the Elan3 NIC in
// src/quadrics/nic.hpp.
//
// The transport is the part neither existing substrate has: one RC queue
// pair per (src, dst) direction with packet sequence numbers, cumulative
// ACKs, NAK-on-gap, and go-back-N retransmission on a timer. The paper's
// four protocol simplifications (dedicated per-group queue, static
// buffering, bounded retransmission state, NIC-resident progress) are
// exercised here on a fabric where loss, duplication and reordering are
// all recoverable — the generalization claim of Sec. 9.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/group_window.hpp"
#include "core/schedule.hpp"
#include "ib/config.hpp"
#include "ib/verbs.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "sim/resource.hpp"
#include "sim/trace.hpp"

namespace qmb::ib {

struct IbGroupDesc {
  std::uint32_t group_id = 0;
  int my_rank = -1;
  coll::Placement rank_to_node;  // shared across the group's HCAs
  coll::RankSchedule schedule;
  coll::OpKind op_kind = coll::OpKind::kBarrier;
  coll::ReduceOp reduce_op = coll::ReduceOp::kSum;
  std::uint32_t payload_bytes = 8;  // bytes per contribution word
};

/// Handles into the engine's MetricRegistry, registered per HCA under
/// "ib.*" names; RunResult folds ib.naks_sent / ib.retransmissions into
/// the legacy nacks / retransmissions fingerprint counters and the fuzzer
/// checks ib.ops_completed algebra.
struct HcaStats {
  obs::Counter writes_posted;
  obs::Counter acks_sent;
  obs::Counter naks_sent;
  obs::Counter retransmissions;
  obs::Counter rto_fires;
  obs::Counter duplicates_dropped;
  obs::Counter ops_completed;
  obs::Counter early_buffered;
  obs::Counter atomics_executed;
  obs::Counter crc_dropped;  // inbound CRC discards (fault-injected corruption)
};

class Hca {
 public:
  /// `skip_retransmit` disables NAK handling and the RTO timer — the
  /// planted-bug hook (spec.features.debug_skip_retransmit) the fuzzer
  /// uses to prove its invariants can catch a broken recovery path.
  Hca(sim::Engine& engine, net::Fabric& fabric, const IbConfig& config, int node_index,
      sim::Tracer* tracer, bool skip_retransmit = false);

  // --- RC transport verbs ---

  /// Posts one RC request towards `dst_node` (called at HCA time,
  /// post-doorbell): stamps the QP's next PSN, records the packet for
  /// go-back-N, injects it, and arms the retransmission timer.
  void post_write(int dst_node, IbWrite body, std::uint32_t payload_bytes);

  /// Handler for write-with-immediate requests whose immediate data is a
  /// host-level message; runs at HCA time after the CQE DMA (host poll
  /// cost is the caller's).
  using HostMsgHandler = std::function<void(const IbWrite&)>;
  void set_host_msg_handler(HostMsgHandler h) { host_msg_handler_ = std::move(h); }

  // --- remote atomics ---

  using AtomicDone = std::function<void(std::int64_t old_value)>;
  /// Remote fetch-and-add on `slot` of `dst_node`'s atomic region; `done`
  /// runs at HCA time with the pre-add value when the response retires.
  void fetch_add(int dst_node, std::uint32_t slot, std::int64_t addend, AtomicDone done);
  /// Remote compare-and-swap; `done` receives the pre-swap value (the swap
  /// happened iff it equals `compare`).
  void compare_swap(int dst_node, std::uint32_t slot, std::int64_t compare,
                    std::int64_t swap, AtomicDone done);
  /// This HCA's atomic region (responder side), for tests and seeding.
  [[nodiscard]] std::int64_t atomic_word(std::uint32_t slot) const;
  void set_atomic_word(std::uint32_t slot, std::int64_t value) {
    atomic_words_[slot] = value;
  }

  // --- NIC-resident collective group engine (paper Secs. 5-7 on verbs) ---

  /// Arms a collective group: this rank's schedule walks entirely on the
  /// HCA, advanced by arriving write-with-immediate events.
  void create_group(IbGroupDesc desc);

  /// Host rang the doorbell for one operation (at HCA time); the operand
  /// rides the immediate data of the group's RDMA writes. `done` runs at
  /// HCA time when the completion CQE lands in host memory.
  void collective_enter(std::uint32_t group, std::int64_t value,
                        std::function<void(std::int64_t)> done);

  [[nodiscard]] net::NicAddr addr() const { return addr_; }
  [[nodiscard]] int node() const { return node_; }
  [[nodiscard]] const IbConfig& config() const { return *config_; }
  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] sim::Resource& unit() { return unit_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] const HcaStats& stats() const { return stats_; }

  void trace(std::string_view event, std::int64_t a = 0, std::int64_t b = 0,
             std::int64_t flow = 0);

 private:
  // --- transport state ---
  struct PendingWrite {
    IbWrite body;
    std::uint32_t wire_bytes = 0;
  };
  struct SendQp {
    std::uint32_t next_psn = 0;
    std::deque<PendingWrite> unacked;  // PSN order; front is the oldest
    sim::EventId rto_timer;
    bool timer_armed = false;
  };
  struct RecvQp {
    std::uint32_t expected_psn = 0;
    bool nak_outstanding = false;  // one NAK per gap until progress resumes
  };

  // --- collective engine state ---
  using Window = core::GroupWindow<core::DoneSlot>;
  using Op = Window::Op;
  struct Group {
    explicit Group(IbGroupDesc d)
        : desc(std::move(d)), window(desc.schedule, desc.op_kind, desc.reduce_op) {}
    IbGroupDesc desc;
    Window window;
  };

  void on_packet(net::Packet&& p);
  void accept_request(int src_node, const IbWrite& w);
  void deliver_request(int src_node, const IbWrite& w);
  void send_ack(int dst_node, std::uint32_t psn, bool nak);
  void handle_ack(int peer, const IbAck& a);
  void arm_rto(int peer);
  void retransmit_window(int peer);
  void post_atomic(int dst_node, IbWrite::Op op, std::uint32_t slot, std::int64_t compare,
                   std::int64_t swap_or_add, AtomicDone done);

  void handle_group_event(const IbWrite& w);
  void group_send(Group& g, std::uint32_t seq, const coll::Edge& e, std::int64_t value);
  void finish_op(Group& g, Op& op);

  sim::Engine* engine_;
  net::Fabric* fabric_;
  const IbConfig* config_;
  int node_;
  sim::Tracer* tracer_;
  std::uint16_t trace_comp_ = 0;  // interned "ib"
  sim::Resource unit_;
  net::NicAddr addr_;
  HcaStats stats_;
  bool skip_retransmit_ = false;
  HostMsgHandler host_msg_handler_;

  std::unordered_map<int, SendQp> send_qps_;
  std::unordered_map<int, RecvQp> recv_qps_;
  std::unordered_map<std::uint32_t, std::int64_t> atomic_words_;
  std::unordered_map<std::uint32_t, AtomicDone> pending_atomics_;
  std::uint32_t next_atomic_token_ = 1;
  std::unordered_map<std::uint32_t, Group> groups_;
};

}  // namespace qmb::ib
