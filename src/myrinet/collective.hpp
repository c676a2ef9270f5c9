// The NIC-based collective message passing protocol (paper Sec. 3 and 6) —
// the paper's primary contribution.
//
// Compared to running collectives over the MCP point-to-point path, this
// engine:
//   * keeps a dedicated queue per process group: a triggered barrier message
//     is injected immediately instead of waiting behind per-destination
//     send queues (Sec. 6.1);
//   * transmits from the padded static send packet: no claim/fill/release
//     of pool buffers and no host DMA — the entire payload is one integer
//     already in NIC SRAM (Sec. 6.2);
//   * keeps ONE send record per barrier operation with a bit vector of
//     expected messages (here: the ScheduleExecutor arrival set) instead of
//     per-packet records (Sec. 6.3);
//   * uses receiver-driven retransmission: no ACKs; a receiver missing an
//     expected message past the timeout NACKs the sender, halving the packet
//     count (Sec. 6.3).
//
// Each of the four simplifications can be disabled independently through
// CollFeatures for the ablation benchmark. Disabling a feature re-adds the
// corresponding firmware cycles (and, for receiver_driven=false, the full
// per-message ACK/timeout machinery and its packets); queue-contention
// effects of dedicated_queue=false beyond the cycle cost are not modeled,
// since the figure benchmarks run barriers in isolation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/group_window.hpp"
#include "core/schedule.hpp"
#include "myrinet/nic.hpp"
#include "myrinet/packets.hpp"
#include "obs/metrics.hpp"

namespace qmb::myri {

struct CollFeatures {
  bool dedicated_queue = true;
  bool static_packet = true;
  bool receiver_driven = true;
  bool bitvector_record = true;
  /// Deliberate protocol bug behind a debug flag: ignore NACKs that would
  /// retransmit an already-sent message. Exists so the fuzzer's invariants
  /// can be demonstrated to catch (and shrink) a real loss-recovery break;
  /// never enabled by any production preset or ablation sweep.
  bool debug_skip_retransmit = false;
};

/// What a group's operations compute. Barrier is the paper's case study;
/// the value-carrying kinds implement its Sec. 9 future work on the same
/// protocol (messages still fit the padded static packet: one integer).
using CollOpKind = coll::OpKind;
using ReduceOp = coll::ReduceOp;

struct GroupDesc {
  std::uint32_t group_id = 0;
  int my_rank = -1;
  coll::Placement rank_to_node;   // rank -> fabric node index, shared
                                  // across the group's NICs
  coll::RankSchedule schedule;    // this rank's schedule for the op kind
  CollFeatures features;
  CollOpKind op_kind = CollOpKind::kBarrier;
  ReduceOp reduce_op = ReduceOp::kSum;  // allreduce only
  std::uint32_t payload_bytes = 8;      // bytes per contribution word; payloads
                                        // beyond the static packet's capacity
                                        // fall back to pool buffers + host DMA
};

/// Handles into the engine's MetricRegistry, registered per NIC under
/// "coll.*" names; RunResult reads the cross-node totals off the registry.
struct CollStats {
  obs::Counter msgs_sent;
  obs::Counter msgs_received;
  obs::Counter duplicates;       // retransmit already arrived; ignored
  obs::Counter early_buffered;   // arrived before the host entered the op
  obs::Counter stale_dropped;    // for an operation already completed
  obs::Counter nacks_sent;
  obs::Counter nacks_received;
  obs::Counter retransmissions;  // NACK- or timeout-triggered resends
  obs::Counter acks_sent;        // receiver_driven=false ablation only
  obs::Counter ops_completed;
};

class CollectiveEngine {
 public:
  explicit CollectiveEngine(Nic& nic);

  /// Registers a process group on this NIC. Must be called on every member
  /// NIC with the same group_id and consistent rank_to_node.
  void create_group(GroupDesc desc);

  /// Host entered the group's next operation (call at NIC time, post-PIO)
  /// with `value`, this rank's contribution (broadcast payload at the root,
  /// reduction operand, allgather bit mask; 0 for barriers). `done`
  /// receives the operation's result at NIC time, when the completion word
  /// lands in host memory.
  void host_enter_value(std::uint32_t group, std::int64_t value,
                        std::function<void(std::int64_t)> done);

  /// Packet dispatcher entry for CollPacket / CollNack / CollAck bodies.
  /// Returns false if the body is not collective-protocol traffic.
  bool on_packet(net::Packet&& p);

  [[nodiscard]] const CollStats& stats() const { return stats_; }
  [[nodiscard]] bool has_group(std::uint32_t group) const { return groups_.contains(group); }

 private:
  // Per-operation engine state riding in the group window's slots.
  struct Slot {
    std::function<void(std::int64_t)> done;
    std::unordered_map<std::uint64_t, std::int64_t> sent_values;  // for NACK resends
    sim::EventId nack_timer;  // dead by the time a slot recycles (finish_op cancels)
    void clear() {
      done = nullptr;
      sent_values.clear();
    }
  };
  using Window = core::GroupWindow<Slot>;
  using Op = Window::Op;

  struct Group {
    explicit Group(GroupDesc d)
        : desc(std::move(d)), window(desc.schedule, desc.op_kind, desc.reduce_op) {}
    GroupDesc desc;
    // Two-deep operation window: consecutive barriers overlap by at most
    // one (a peer can race one operation ahead, never two — see tests).
    Window window;
  };

  // Ablation-only per-message reliability record (receiver_driven = false).
  struct MsgRecord {
    std::uint32_t group = 0;
    std::uint32_t seq = 0;
    std::uint32_t tag = 0;
    int peer_rank = -1;
    sim::EventId timer;
  };

  Group& group_of(std::uint32_t id);
  void deliver_arrival(Group& g, std::uint32_t seq, int peer_rank, std::uint32_t tag,
                       std::int64_t value);
  void send_msg(Group& g, std::uint32_t seq, const coll::Edge& e, bool is_retransmit,
                std::int64_t value);
  [[nodiscard]] std::uint32_t wire_bytes_for(const GroupDesc& desc, std::uint32_t tag,
                                             std::int64_t value) const;
  void finish_op(Group& g, Op& op);
  void arm_nack_timer(Group& g, Op& op);
  void handle_nack(const CollNack& n, std::uint64_t flow);
  void handle_ack(const CollAck& a);
  void arm_msg_timer(Group* gp, std::uint64_t key, std::uint32_t seq);
  [[nodiscard]] std::uint32_t send_cycles(const CollFeatures& f) const;
  [[nodiscard]] std::uint32_t recv_cycles(const CollFeatures& f) const;
  [[nodiscard]] static std::uint64_t msg_key(std::uint32_t group, std::uint32_t seq,
                                             std::uint32_t tag, int peer);

  Nic& nic_;
  const LanaiConfig& cfg_;
  CollStats stats_;
  std::unordered_map<std::uint32_t, Group> groups_;
  std::unordered_map<std::uint64_t, MsgRecord> msg_records_;  // ablation only
};

}  // namespace qmb::myri
