// Test harness for core::GroupWindow: binds one fixed send callback and one
// fixed completion callback, so a test can start operations and feed
// arrivals without an engine around the window.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "core/group_window.hpp"

namespace qmb::core {

class WindowHarness {
 public:
  using SendFn = std::function<void(std::uint32_t seq, const coll::Edge&, std::int64_t value)>;
  using CompleteFn = std::function<void(std::uint32_t seq, std::int64_t result)>;

  WindowHarness(const coll::RankSchedule& schedule, SendFn send, CompleteFn complete,
                coll::OpKind kind = coll::OpKind::kBarrier,
                coll::ReduceOp reduce = coll::ReduceOp::kSum)
      : window_(schedule, kind, reduce), send_(std::move(send)), complete_(std::move(complete)) {}

  /// Starts the next operation with `value`; returns its sequence number.
  std::uint32_t start(std::int64_t value = 0) {
    GroupWindow<>::Op& op = window_.enter(value);
    const std::uint32_t seq = op.seq;
    last_start_duplicates_ = window_.start(
        op, [this](GroupWindow<>::Op& o, const coll::Edge& e) { send_(o.seq, e, o.acc); },
        [this](GroupWindow<>::Op& o) { complete_(o.seq, o.acc); });
    return seq;
  }

  Arrival on_arrival(std::uint32_t seq, int peer, std::uint32_t tag, std::int64_t value = 0) {
    return window_.arrive(seq, peer, tag, value);
  }

  [[nodiscard]] bool is_complete(std::uint32_t seq) {
    const GroupWindow<>::Op* op = window_.find(seq);
    return op != nullptr && op->complete;
  }
  [[nodiscard]] std::uint32_t next_seq() const { return window_.next_seq(); }
  /// Early arrivals the last start() replayed that the executor rejected.
  [[nodiscard]] int last_start_duplicates() const { return last_start_duplicates_; }

 private:
  GroupWindow<> window_;
  SendFn send_;
  CompleteFn complete_;
  int last_start_duplicates_ = 0;
};

}  // namespace qmb::core
