// The two-deep operation window: the paper's one record per collective
// operation (Sec. 6.3), shared by every executor that walks a schedule —
// the three NIC engines (myri::CollectiveEngine, elan::Nic, ib::Hca), the
// host-level executors and the direct NIC barrier.
//
// Consecutive operations overlap: a peer that completed operation k may
// send its first message of k+1 before this rank finished k, but never k+2
// (its completion of k+1 transitively required everyone to finish k). The
// window keeps two operation slots, buffers early arrivals, and recycles a
// slot only once its operation completed. It also carries the one-word
// payload semantics of value collectives: payloads fold into the
// accumulator as their step is consumed, sends carry the accumulator.
//
// Per-operation state is flat, like the paper's one record with a bit
// vector: the window builds one coll::EdgeIndex for its rank's schedule
// (on first use, so creating a group stays cheap), and each slot's executor keeps one arrival bit and (for value kinds) one
// payload word per wait of that index, plus a reused buffer of early
// arrivals stored by wait index. Recycling a slot zeroes bit words; once
// both slots have run an operation, nothing on this path allocates.
// Barriers install no payload consumer at all: their payloads are never
// read.
//
// The window owns no cost model. Engines bind their hooks at compile time:
// start() takes the send/complete callables the slot's ScheduleExecutor
// is built with, plus an on_start hook that runs just before the schedule
// starts; arrive() reports how it classified each message so the engine
// counts exactly what it counts; per-slot engine state rides in SlotState.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/schedule.hpp"

namespace qmb::core {

/// How GroupWindow::arrive classified a message.
enum class Arrival : std::uint8_t {
  kDelivered,  // handed to the running operation's executor
  kDuplicate,  // the running operation already had it (a retransmission)
  kEarly,      // buffered: this rank has not started that operation yet
  kStale,      // for an operation this rank already completed
};

/// Slot state for engines that need none.
struct NoSlotState {
  void clear() {}
};

/// Slot state of a NIC engine whose host waits on a completion callback.
struct DoneSlot {
  std::function<void(std::int64_t)> done;
  void clear() { done = nullptr; }
};

/// `SlotState` is the engine's per-operation state (completion callback,
/// resend memory, timers); its clear() runs whenever a slot is recycled.
template <class SlotState = NoSlotState>
class GroupWindow {
 public:
  class Op {
   public:
    std::uint32_t seq = 0;
    bool in_use = false;    // slot bound to `seq`
    bool active = false;    // this rank started the operation
    bool complete = false;
    std::int64_t acc = 0;   // value accumulator (ignored by barriers)
    std::unique_ptr<coll::ScheduleExecutor> exec;  // bound on the slot's first start
    SlotState state;

   private:
    friend class GroupWindow;
    struct Early {
      std::size_t wait;  // coll::EdgeIndex wait index
      std::int64_t value;
    };
    std::vector<Early> early;
  };

  /// `schedule` must outlive the window. Executors point into the slots
  /// and the index, so the window never moves.
  GroupWindow(const coll::RankSchedule& schedule, coll::OpKind kind, coll::ReduceOp reduce)
      : schedule_(&schedule), kind_(kind), reduce_(reduce) {}
  GroupWindow(const GroupWindow&) = delete;
  GroupWindow& operator=(const GroupWindow&) = delete;

  /// Claims the slot of this rank's next operation and seeds its
  /// accumulator with the rank's contribution.
  Op& enter(std::int64_t value) {
    Op& op = touch(next_seq_++);
    op.acc = value;
    return op;
  }

  /// Starts `op` (claimed by enter()). On the slot's first use, binds its
  /// executor: `send(op, edge)` sends one message, `complete(op)` runs
  /// once `op.complete` is set. Then runs `on_start(op)`, starts the
  /// schedule and replays the buffered early arrivals. Returns how many of
  /// those the executor rejected as duplicates.
  template <class Send, class Complete, class OnStart>
  int start(Op& op, Send send, Complete complete, OnStart on_start) {
    op.active = true;
    if (!op.exec) bind(op, std::move(send), std::move(complete));
    on_start(op);
    op.exec->start();
    int duplicates = 0;
    if (!op.complete) {
      for (const auto& ea : op.early) {
        if (!op.exec->arrive(ea.wait, ea.value)) ++duplicates;
        if (op.complete) break;
      }
    }
    op.early.clear();
    return duplicates;
  }

  template <class Send, class Complete>
  int start(Op& op, Send send, Complete complete) {
    return start(op, std::move(send), std::move(complete), [](Op&) {});
  }

  /// Records a message from `peer` for operation `seq`. An arrival for an
  /// operation this rank has not started claims its slot (the peer raced
  /// one operation ahead); one for a seq two ahead of an unfinished slot
  /// throws std::logic_error, and so does one whose (peer, tag) matches no
  /// wait of this rank's schedule.
  Arrival arrive(std::uint32_t seq, int peer, std::uint32_t tag, std::int64_t value) {
    const std::size_t wait = index().arrival(peer, tag);
    Op& slot = slots_[seq & 1];
    if (slot.in_use && slot.seq == seq) {
      if (slot.complete) return Arrival::kStale;
      if (!slot.active) {
        slot.early.push_back({wait, value});
        return Arrival::kEarly;
      }
      return slot.exec->arrive(wait, value) ? Arrival::kDelivered : Arrival::kDuplicate;
    }
    if (slot.in_use && seq < slot.seq) return Arrival::kStale;
    touch(seq).early.push_back({wait, value});
    return Arrival::kEarly;
  }

  /// The slot bound to operation `seq`, or null once it was recycled (or
  /// before anything touched it).
  [[nodiscard]] Op* find(std::uint32_t seq) {
    Op& slot = slots_[seq & 1];
    return slot.in_use && slot.seq == seq ? &slot : nullptr;
  }

  /// Sequence number the next enter() will use.
  [[nodiscard]] std::uint32_t next_seq() const { return next_seq_; }

  /// Dense edge numbering of this rank's schedule, built on first use.
  [[nodiscard]] const coll::EdgeIndex& index() {
    if (!index_) index_.emplace(*schedule_);
    return *index_;
  }

 private:
  Op& touch(std::uint32_t seq) {
    Op& op = slots_[seq & 1];
    if (op.in_use && op.seq == seq) return op;
    // Slot reuse: the operation two back must have completed.
    if (op.in_use && !op.complete) {
      throw std::logic_error("operation window violated: operation overtaken by seq+2");
    }
    if (op.exec) op.exec->reset();
    op.early.clear();
    op.state.clear();
    op.seq = seq;
    op.in_use = true;
    op.active = false;
    op.complete = false;
    op.acc = 0;
    return op;
  }

  template <class Send, class Complete>
  void bind(Op& op, Send send, Complete complete) {
    Op* opp = &op;
    op.exec = std::make_unique<coll::ScheduleExecutor>(
        index(),
        [opp, send = std::move(send)](const coll::Edge& e) mutable { send(*opp, e); },
        [opp, complete = std::move(complete)]() mutable {
          opp->complete = true;
          complete(*opp);
        });
    // Fold payloads only as their step is consumed (see ScheduleExecutor::
    // set_step_consumer): an early arrival must not leak into the values
    // this rank sends during the same step. A barrier's accumulator never
    // changes, so it keeps no payloads.
    if (kind_ == coll::OpKind::kBarrier) return;
    op.exec->set_step_consumer([this, opp](const coll::Step& st, const std::int64_t* values) {
      for (std::size_t j = 0; j < st.waits.size(); ++j) {
        opp->acc = coll::combine_value(kind_, reduce_, st.waits[j].tag, opp->acc, values[j]);
      }
    });
  }

  const coll::RankSchedule* schedule_;
  std::optional<coll::EdgeIndex> index_;
  coll::OpKind kind_;
  coll::ReduceOp reduce_;
  std::uint32_t next_seq_ = 0;
  Op slots_[2];
};

}  // namespace qmb::core
