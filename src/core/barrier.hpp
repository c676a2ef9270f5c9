// The barrier view: a barrier is the collective protocol at
// OpKind::kBarrier, so every barrier executor is a core::Collective. This
// view keeps the nullary-callback style for code that only synchronizes:
//
//  * enter(rank, done)       — blocking style: the rank enters and `done`
//                              fires when its barrier completes.
//  * notify(rank) / wait(..) — GASNet-style split phase over the
//                              collective's start/wait: notify() starts the
//                              rank's participation and returns at once;
//                              the rank computes, then wait() either
//                              completes at once (the barrier already
//                              finished underneath the compute) or parks
//                              until it does.
#pragma once

#include <cassert>
#include <memory>
#include <string_view>
#include <utility>

#include "core/collectives.hpp"
#include "sim/engine.hpp"

namespace qmb::core {

class Barrier final {
 public:
  /// `op` must be a kBarrier executor.
  explicit Barrier(std::unique_ptr<Collective> op) : op_(std::move(op)) {
    assert(op_->kind() == coll::OpKind::kBarrier);
  }

  /// Rank `rank` enters the barrier; `done` runs on that rank's host when
  /// the barrier completes for it. A rank must not re-enter before its
  /// previous completion.
  void enter(int rank, sim::EventCallback done) { op_->enter(rank, 0, bridge(std::move(done))); }

  /// Split phase, part 1: starts `rank`'s participation without blocking.
  /// Throws std::logic_error on a double notify.
  void notify(int rank) { op_->start(rank, 0); }

  /// Split phase, part 2: `done` runs when the barrier notified earlier
  /// completes for `rank` — immediately if it already has. Throws
  /// std::logic_error without a prior notify, or when a wait is pending.
  void wait(int rank, sim::EventCallback done) { op_->wait(rank, bridge(std::move(done))); }

  [[nodiscard]] std::string_view name() const { return op_->name(); }
  [[nodiscard]] int size() const { return op_->size(); }

  /// The executor behind the view.
  [[nodiscard]] Collective& collective() { return *op_; }
  /// Hands the executor over; the view is empty afterwards.
  [[nodiscard]] std::unique_ptr<Collective> release() { return std::move(op_); }

 private:
  // `done` is move-only (and may be empty); shared_ptr bridges it into the
  // copyable DoneFn.
  static Collective::DoneFn bridge(sim::EventCallback done) {
    return [done = std::make_shared<sim::EventCallback>(std::move(done))](std::int64_t) {
      if (*done) (*done)();
    };
  }

  std::unique_ptr<Collective> op_;
};

}  // namespace qmb::core
