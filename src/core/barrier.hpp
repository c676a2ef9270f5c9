// Public barrier interface. Each implementation spans a whole simulated
// cluster (the simulation owns every rank); application code enters per
// rank and gets its completion callback at host time.
//
// Two entry styles share one protocol engine:
//
//  * enter(rank, done)       — blocking style: the rank enters and `done`
//                              fires when its barrier completes.
//  * notify(rank) / wait(..) — GASNet-style split phase: notify() starts
//                              the rank's participation and returns
//                              immediately; the rank computes, then wait()
//                              either completes at once (the barrier
//                              already finished underneath the compute) or
//                              parks until it does. Synchronization cost
//                              that overlaps computation is hidden.
#pragma once

#include <string_view>
#include <utility>

#include "core/split_phase.hpp"
#include "sim/engine.hpp"

namespace qmb::core {

class Barrier {
 public:
  virtual ~Barrier() = default;

  /// Rank `rank` enters the barrier; `done` runs on that rank's host when
  /// the barrier completes for it. A rank must not re-enter before its
  /// previous completion.
  virtual void enter(int rank, sim::EventCallback done) = 0;

  /// Split phase, part 1: starts `rank`'s participation without blocking.
  /// Throws std::logic_error on a double notify (a notify with no
  /// intervening wait completion).
  void notify(int rank) {
    split_.begin(rank, size());
    enter(rank, [this, rank] { split_.complete(rank, size(), 0); });
  }

  /// Split phase, part 2: `done` runs when the barrier notified earlier
  /// completes for `rank` — immediately if it already has. Throws
  /// std::logic_error without a prior notify, or when a wait is already
  /// pending.
  void wait(int rank, sim::EventCallback done) { split_.wait(rank, size(), std::move(done)); }

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual int size() const = 0;

 private:
  SplitPhase<sim::EventCallback> split_{{"barrier", "notified", "notify"}};
};

}  // namespace qmb::core
